#ifndef ANKER_MVCC_VERSION_STORE_H_
#define ANKER_MVCC_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "mvcc/timestamp_oracle.h"

namespace anker::mvcc {

/// Rows per metadata block. The paper adopts HyPer's optimization of
/// keeping, for every 1024 rows, the position of the first and the last
/// versioned row so scans can run in tight loops between versioned records
/// (Section 5.5).
inline constexpr size_t kRowsPerBlock = 1024;

/// One superseded value in a version chain. Chains are ordered newest to
/// oldest (paper Section 2.1). `ts` is the commit timestamp of the
/// transaction that *overwrote* this value: the value was visible until
/// `ts`. A reader at start time s takes the value of the oldest node with
/// ts > s, or the in-place column value if there is none.
struct VersionNode {
  uint64_t value;
  Timestamp ts;
  VersionNode* next;  ///< Older node, or nullptr.
};

/// Next-pointer access for chain walks that may race the homogeneous
/// GC's suffix unlink (TruncateOlderThan stores nullptr into an interior
/// `next` while readers traverse). Benign by design: the reader either
/// continues into the retired suffix — valid, arena-owned memory until
/// the retire list drains — or stops at the new chain end; both yield
/// correct visibility. Plain accesses in normal builds; relaxed atomics
/// under ThreadSanitizer (ANKER_TSAN) so only unintended races are
/// reported.
inline const VersionNode* LoadNext(const VersionNode* node) {
#ifdef ANKER_TSAN
  const VersionNode* next;
  __atomic_load(&node->next, const_cast<VersionNode**>(&next),
                __ATOMIC_RELAXED);
  return next;
#else
  return node->next;
#endif
}
inline VersionNode* LoadNextMutable(VersionNode* node) {
#ifdef ANKER_TSAN
  VersionNode* next;
  __atomic_load(&node->next, &next, __ATOMIC_RELAXED);
  return next;
#else
  return node->next;
#endif
}
inline void StoreNext(VersionNode* node, VersionNode* next) {
#ifdef ANKER_TSAN
  __atomic_store(&node->next, &next, __ATOMIC_RELAXED);
#else
  node->next = next;
#endif
}

/// value/ts access for the same reason, one hazard further: the arena
/// *recycles* retired nodes (Treiber free list), so a reader that raced
/// past a chain's unlink can traverse a node while AddVersion rewrites
/// its payload for a new row. The surrounding seqlock (Block::seq,
/// validated by the scan fold before any value is used) makes the torn
/// read harmless — the block retries — but the access itself is racy by
/// design, so under TSan it must be a relaxed atomic like next above.
inline uint64_t LoadNodeValue(const VersionNode* node) {
#ifdef ANKER_TSAN
  uint64_t value;
  __atomic_load(&node->value, &value, __ATOMIC_RELAXED);
  return value;
#else
  return node->value;
#endif
}
inline Timestamp LoadNodeTs(const VersionNode* node) {
#ifdef ANKER_TSAN
  Timestamp ts;
  __atomic_load(&node->ts, &ts, __ATOMIC_RELAXED);
  return ts;
#else
  return node->ts;
#endif
}
inline void StoreNodePayload(VersionNode* node, uint64_t value,
                             Timestamp ts) {
#ifdef ANKER_TSAN
  __atomic_store(&node->value, &value, __ATOMIC_RELAXED);
  __atomic_store(&node->ts, &ts, __ATOMIC_RELAXED);
#else
  node->value = value;
  node->ts = ts;
#endif
}

/// Bump allocator for VersionNodes, owned by one ChainDirectory segment.
/// Nodes are carved out of chunk-sized slabs, so AddVersion never hits the
/// global heap on the commit critical path, and dropping the segment
/// returns all of its chains in a handful of chunk deallocations — the
/// paper's "implicit GC by snapshot drop" becomes (almost) literally one
/// free. Node addresses are stable for the arena's lifetime.
///
/// A Treiber free-list lets the homogeneous GC hand truncated chain
/// suffixes back for reuse (the long-lived current segment would otherwise
/// grow without bound): Recycle may be called from any thread, Allocate
/// only by the single committing writer. A recycled node is overwritten on
/// reuse, so callers must guarantee no reader still traverses the chain —
/// the GC's retire list provides exactly that drain barrier.
class VersionArena {
 public:
  VersionArena() = default;
  ~VersionArena();
  ANKER_DISALLOW_COPY_AND_MOVE(VersionArena);

  /// Pops a recycled node if available, else bumps the current chunk.
  /// Single-consumer: only the committing writer allocates.
  VersionNode* Allocate();

  /// Returns a whole chain (following next pointers) to the free list.
  /// Thread-safe against the allocating writer and other recyclers.
  void Recycle(VersionNode* head);

  /// Chunk count (each kNodesPerChunk nodes) — observability for tests.
  size_t allocated_chunks() const {
    return chunk_count_.load(std::memory_order_relaxed);
  }
  /// Allocations served from the free list instead of a chunk bump.
  size_t reused_nodes() const {
    return reused_.load(std::memory_order_relaxed);
  }

  static constexpr size_t kNodesPerChunk = 2048;

 private:
  struct Chunk {
    Chunk* next;
    VersionNode nodes[kNodesPerChunk];
  };

  Chunk* chunks_ = nullptr;  ///< Newest chunk first; writer-owned.
  size_t used_in_chunk_ = kNodesPerChunk;
  std::atomic<VersionNode*> free_list_{nullptr};
  std::atomic<size_t> chunk_count_{0};
  std::atomic<size_t> reused_{0};
};

/// Per-block chain metadata (first/last versioned row, seqlock counter,
/// newest version timestamp).
struct BlockInfo {
  uint32_t first_versioned;  ///< Row offset within block, kRowsPerBlock if none.
  uint32_t last_versioned;
  uint64_t seq;              ///< Seqlock counter; odd = write in progress.
  Timestamp max_ts;          ///< Newest version ts in the block (0 if none).
  bool has_versions;
};

/// Version chains for one column over one snapshot epoch. When the engine
/// takes a snapshot, the whole directory is *handed over* to the snapshot
/// (paper Section 2.2.1, Step 4): the column starts a fresh directory and
/// the sealed one stays reachable through `prev` for transactions that
/// started before the epoch. Dropping the snapshot drops the directory and
/// with it all its chains — the paper's implicit garbage collection.
///
/// Thread model: AddVersion has a single writer at a time (the engine's
/// commit section); EnsureBlock may run on any number of committers at
/// once, ahead of that section; any number of concurrent readers. Readers
/// must read the column slot *before* resolving the chain (see
/// ResolveVisible).
class ChainDirectory {
 public:
  ChainDirectory(size_t num_rows, std::shared_ptr<ChainDirectory> prev);
  ~ChainDirectory();
  ANKER_DISALLOW_COPY_AND_MOVE(ChainDirectory);

  /// Pushes `old_value` (overwritten at `commit_ts`) onto row's chain.
  /// Single-writer only.
  void AddVersion(size_t row, uint64_t old_value, Timestamp commit_ts);

  /// Creates `row`'s metadata block if it does not exist yet, so the
  /// AddVersion that follows skips the allocation. Safe from any number
  /// of threads at once: the block is published with a CAS.
  void EnsureBlock(size_t row) {
    ANKER_CHECK(row < num_rows_);
    GetOrCreateBlock(row / kRowsPerBlock);
  }

  /// Newest chain node of `row` in this segment, or nullptr.
  const VersionNode* Head(size_t row) const;

  BlockInfo GetBlockInfo(size_t block) const;
  size_t num_blocks() const { return blocks_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Total number of version nodes currently linked in this segment.
  size_t TotalVersions() const {
    return total_versions_.load(std::memory_order_relaxed);
  }

  /// Marks the directory immutable as of `seal_ts`: every node in this or
  /// any older segment has ts <= seal_ts. Atomic because latch-free
  /// readers (OLTP point reads) consult seal_ts while descending.
  void Seal(Timestamp seal_ts) {
    seal_ts_.store(seal_ts, std::memory_order_release);
  }
  Timestamp seal_ts() const {
    return seal_ts_.load(std::memory_order_acquire);
  }

  const std::shared_ptr<ChainDirectory>& prev() const { return prev_; }
  /// Raw previous-segment pointer for latch-free readers: `prev_` (the
  /// owning shared_ptr) may be reset by DropPrev under the column's
  /// exclusive latch while a reader descends, and shared_ptr loads are
  /// not atomic. The raw mirror is published with release/acquire;
  /// lifetime is covered by the DropPrev precondition (no in-flight
  /// reader is old enough to still need the dropped segment).
  const ChainDirectory* prev_raw() const {
    return prev_raw_.load(std::memory_order_acquire);
  }
  /// Seal timestamp of the previous segment, cached here at construction
  /// (segments are sealed before the successor is created). Readers use
  /// this to decide whether to descend *without touching prev at all* —
  /// the previous segment may already be dropped and freed, and even a
  /// read of its seal_ts field would be a use-after-free. 0 when the
  /// directory has no predecessor, which reads as "nothing older can be
  /// relevant".
  Timestamp prev_seal_ts() const { return prev_seal_ts_; }
  /// Drops the link to the previous segment (when the previous epoch's
  /// snapshot is retired and no reader can need it anymore). Returns the
  /// dropped link so the caller can free the segment outside its latch.
  std::shared_ptr<ChainDirectory> DropPrev() {
    prev_raw_.store(nullptr, std::memory_order_release);
    return std::move(prev_);
  }

  /// Homogeneous-mode GC: unlinks every node with ts <= `min_active` from
  /// every chain. Unlinked suffixes are handed to `retired`; they stay
  /// valid, readable memory (the arena owns them) until RecycleChain hands
  /// them back once concurrent readers drain. Returns the number of
  /// unlinked nodes.
  size_t TruncateOlderThan(Timestamp min_active,
                           std::vector<VersionNode*>* retired);

  /// Returns a drained retire-list chain to this segment's arena for
  /// reuse. Caller must guarantee no reader still traverses it. Returns
  /// the number of nodes recycled.
  size_t RecycleChain(VersionNode* head);

  const VersionArena& arena() const { return arena_; }

 private:
  struct Block {
    std::vector<std::atomic<VersionNode*>> heads;
    std::atomic<uint32_t> first_versioned{UINT32_MAX};
    std::atomic<uint32_t> last_versioned{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<Timestamp> max_ts{0};
    std::atomic<bool> has_versions{false};
    Block() : heads(kRowsPerBlock) {
      for (auto& h : heads) h.store(nullptr, std::memory_order_relaxed);
    }
  };

  Block* GetOrCreateBlock(size_t block);

  size_t num_rows_;
  std::vector<std::atomic<Block*>> blocks_;
  std::shared_ptr<ChainDirectory> prev_;
  std::atomic<ChainDirectory*> prev_raw_{nullptr};
  Timestamp prev_seal_ts_ = kLoadTimestamp;  ///< Immutable after ctor.
  std::atomic<Timestamp> seal_ts_{kInfiniteTimestamp};
  std::atomic<size_t> total_versions_{0};
  VersionArena arena_;  ///< Owns every VersionNode linked in this segment.
};

/// A chain suffix unlinked by GC, still owned by `owner`'s arena. The
/// shared_ptr keeps the arena (and with it the nodes) alive even if the
/// segment is sealed and dropped while the suffix sits on a retire list.
struct RetiredChain {
  VersionNode* head;
  std::shared_ptr<ChainDirectory> owner;
};

/// Per-column façade over the chain of epoch segments. All methods must be
/// called while holding the column's latch (shared for reads/updates,
/// exclusive for SealEpoch) — the engine enforces this.
class VersionStore {
 public:
  explicit VersionStore(size_t num_rows);
  ANKER_DISALLOW_COPY_AND_MOVE(VersionStore);

  /// Records that `row`'s previous value `old_value` was overwritten at
  /// `commit_ts` (called from the commit critical section).
  void AddVersion(size_t row, uint64_t old_value, Timestamp commit_ts);

  /// Resolves the value of `row` visible at `start_ts`, given the in-place
  /// slot value `slot_value` that the caller read *before* calling (read
  /// slot, then chain: the publication order in the committer guarantees a
  /// reader that saw a too-new slot value also sees the chain node carrying
  /// the old one).
  uint64_t ResolveVisible(size_t row, Timestamp start_ts,
                          uint64_t slot_value) const;

  /// Commit timestamp of the most recent overwrite of `row`, or
  /// kLoadTimestamp if the row was never overwritten. `since` bounds the
  /// search: segments entirely older than `since` are skipped (used for
  /// first-committer-wins conflict checks against a transaction's
  /// start_ts).
  Timestamp LastWriteTs(size_t row, Timestamp since) const;

  /// True iff some chain (any segment with nodes newer than start_ts)
  /// may hold a version of `row` relevant to `start_ts`.
  bool HasRelevantVersion(size_t row, Timestamp start_ts) const;

  /// True iff any segment (current or a sealed predecessor still linked
  /// through prev) holds a version node for a row in [row_begin, row_end).
  /// Conservative per-block check via has_versions + first/last versioned
  /// offsets; used by the cold tier, which only spills version-free
  /// segments. Caller holds the column latch (exclusive for spill).
  bool HasVersionsInRange(size_t row_begin, size_t row_end) const;

  /// Seals the current segment at `seal_ts` and installs a fresh one whose
  /// prev is the sealed segment. Returns the sealed segment (the snapshot
  /// takes ownership of this reference). Caller holds the column latch
  /// exclusively.
  std::shared_ptr<ChainDirectory> SealEpoch(Timestamp seal_ts);

  /// Current (unsealed) segment, e.g. for scan block metadata. Writer-side
  /// accessor: callers hold the column latch (commit path, GC,
  /// materialization), which excludes the SealEpoch swap.
  const std::shared_ptr<ChainDirectory>& current() const { return current_; }

  /// Latch-free sibling of current() for readers (OLTP point reads, live
  /// ColumnReaders): published with release by SealEpoch only after the
  /// fresh directory is fully constructed, so an acquire load never
  /// observes a half-built segment. The swapped-out segment stays
  /// reachable (and alive) through the fresh one's prev chain.
  const ChainDirectory* current_raw() const {
    return current_raw_.load(std::memory_order_acquire);
  }

  size_t num_rows() const { return num_rows_; }

  /// Homogeneous-mode GC entry point; see ChainDirectory::TruncateOlderThan.
  /// Retired chains carry a reference to their owning segment so the
  /// backing arena outlives the retire list.
  size_t TruncateOlderThan(Timestamp min_active,
                           std::vector<RetiredChain>* retired) {
    std::vector<VersionNode*> heads;
    const size_t unlinked = current_->TruncateOlderThan(min_active, &heads);
    for (VersionNode* head : heads) {
      retired->push_back(RetiredChain{head, current_});
    }
    return unlinked;
  }

 private:
  size_t num_rows_;
  std::shared_ptr<ChainDirectory> current_;
  std::atomic<ChainDirectory*> current_raw_{nullptr};
};

}  // namespace anker::mvcc

#endif  // ANKER_MVCC_VERSION_STORE_H_
