#ifndef ANKER_ENGINE_EXECUTOR_H_
#define ANKER_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "engine/snapshot_manager.h"
#include "mvcc/version_store.h"
#include "storage/column.h"

namespace anker::engine {

/// Raw slot read of tight/hinted scan blocks. Normally a plain load:
/// intentionally racy against in-place committers and validated after the
/// fact by the per-block seqlock (a block that raced a commit is
/// discarded and redone from safe staging) — the paper's tight-loop
/// contract. Under ThreadSanitizer the same read becomes a relaxed atomic
/// load: identical bytes and codegen cost in the sanitized build only,
/// and TSan stops flagging the one race the engine is designed to
/// tolerate, so anything it still reports is a real ordering bug.
inline uint64_t RawSlotLoad(const uint64_t* slot) {
#ifdef ANKER_TSAN
  return __atomic_load_n(slot, __ATOMIC_RELAXED);
#else
  return *slot;
#endif
}

/// Read-path handle on one column: a raw slot array plus (optionally) the
/// version chains and read timestamp needed to resolve versioned rows.
/// Two flavors exist:
///  - snapshot readers: `base` points into a SnapshotView; `dir` is the
///    handed-over chain segment (nullptr when the snapshot is clean);
///    `read_ts` is the epoch timestamp;
///  - live readers: `base` is the column's up-to-date buffer; `dir` is the
///    current chain segment; `read_ts` the transaction's start timestamp.
class ColumnReader {
 public:
  ColumnReader() = default;

  /// Reader over a materialized snapshot (heterogeneous OLAP path).
  static ColumnReader ForSnapshot(const storage::ColumnSnapshot& snap,
                                  size_t num_rows);

  /// Reader over the live column (homogeneous OLAP / OLTP-side scans).
  static ColumnReader ForLive(const storage::Column* column,
                              mvcc::Timestamp read_ts);

  /// Value of `row` visible at the reader's timestamp. Always safe against
  /// concurrent committers (slot is loaded before the chain head; the
  /// committer publishes the chain node before overwriting the slot).
  inline uint64_t Get(size_t row) const {
    const uint64_t slot = __atomic_load_n(
        reinterpret_cast<const uint64_t*>(base_) + row, __ATOMIC_ACQUIRE);
    if (dir_ == nullptr) return slot;
    return ResolveChain(row, slot);
  }

  /// Raw slot array for tight scan blocks (see ScanDriver): valid
  /// only for rows the caller proved version-free.
  const uint64_t* raw_base() const {
    return reinterpret_cast<const uint64_t*>(base_);
  }

  const mvcc::ChainDirectory* dir() const { return dir_; }
  mvcc::Timestamp read_ts() const { return read_ts_; }
  size_t num_rows() const { return num_rows_; }
  bool versioned() const { return dir_ != nullptr; }

  /// Whether a whole block may be proven version-free by comparing the
  /// block's newest version timestamp against read_ts. True for snapshot
  /// readers: the paper's snapshots are older than the transactions that
  /// run on them, which is exactly why OLAP "can simply scan the column in
  /// a tight loop without considering the version chains" (Fig. 1 step 5).
  /// False for live readers: the homogeneous baseline the paper evaluates
  /// checks timestamps per record inside versioned ranges (Section 5.5) —
  /// that per-row cost is the effect Figures 7 and 9 measure.
  bool allows_ts_skip() const { return allows_ts_skip_; }

 private:
  ColumnReader(const uint8_t* base, const mvcc::ChainDirectory* dir,
               mvcc::Timestamp read_ts, size_t num_rows, bool allows_ts_skip)
      : base_(base),
        dir_(dir),
        read_ts_(read_ts),
        num_rows_(num_rows),
        allows_ts_skip_(allows_ts_skip) {}

  uint64_t ResolveChain(size_t row, uint64_t slot) const;

  const uint8_t* base_ = nullptr;
  const mvcc::ChainDirectory* dir_ = nullptr;
  mvcc::Timestamp read_ts_ = 0;
  size_t num_rows_ = 0;
  bool allows_ts_skip_ = false;
};

/// Scan statistics: how much of a scan ran in tight loops vs. resolving
/// version chains (benches report these to explain Figure 7/9 shapes).
struct ScanStats {
  size_t tight_rows = 0;
  size_t hinted_rows = 0;    ///< Versioned block, raw read outside range.
  size_t resolved_rows = 0;  ///< Full per-row chain resolution.
  size_t seqlock_retries = 0;

  void Merge(const ScanStats& other) {
    tight_rows += other.tight_rows;
    hinted_rows += other.hinted_rows;
    resolved_rows += other.resolved_rows;
    seqlock_retries += other.seqlock_retries;
  }
};

/// One block handed to ScanDriver::FoldBlockwise: contiguous per-column
/// value spans for rows [begin, begin + rows). cols[i] points either
/// directly into reader i's raw slot array (version-free blocks) or into
/// per-participant scratch holding fully resolved values (versioned
/// blocks) — the callback indexes cols[i][0 .. rows) and never sees
/// version logic. Because versioned blocks are materialized up front, a
/// blockwise consumer runs the *same* arithmetic over every block kind,
/// which keeps results bit-identical across processing modes.
struct ScanBlock {
  const uint64_t* const* cols;
  size_t begin = 0;
  size_t rows = 0;
};

/// Per-scan execution knobs. Default-constructed options run the scan
/// serially on the calling thread.
struct ScanOptions {
  /// Worker pool morsels fan out into; nullptr = serial scan.
  ThreadPool* pool = nullptr;
  /// Max participants (calling thread + pool helpers) for this scan.
  size_t max_threads = 1;
  /// Morsel size in 1024-row blocks: 32 blocks x 8 bytes = 256 KiB per
  /// column per morsel — large enough to amortize claim overhead, small
  /// enough to load-balance and stay cache-resident.
  size_t morsel_blocks = 32;
  /// Test-only hook, called after a block was classified and before its
  /// rows are folded: lets tests inject a commit between ClassifyBlock and
  /// BlockStable to deterministically exercise the seqlock retry path.
  std::function<void(size_t block)> on_block_classified;
};

/// Multi-column scan driver implementing the paper's tight-loop strategy
/// (Section 5.5, adopted from HyPer) with per-block specialization: per
/// 1024-row block it consults the first/last-versioned-row metadata of
/// every involved column and classifies the block as
///  - *tight*: no reader has relevant versions in the block — the
///    callback reads the raw slot arrays directly (auto-vectorizable);
///  - *hinted*: versioned rows exist — each reader's span is staged as a
///    raw prefix, a chain-resolved range (its [first, last] hint) and a
///    raw suffix, so only the middle consults chains;
///  - *safe*: a write is in progress right now (or the reader predates the
///    current chain segment) — every row is resolved per row.
/// A per-block seqlock validates tight/hinted results after the fact;
/// blocks that raced a commit are redone from safe staging.
///
/// FoldBlockwise runs serially by default; given ScanOptions with a pool
/// it becomes a morsel-driven parallel scan (Leis et al.): participants
/// claim contiguous block ranges from a shared counter, fold into
/// per-worker accumulators, and merge into the total under a lock at the
/// end. The accumulator type Acc must be default-constructible; `merge`
/// must be associative over accumulators. Per-block partial results are
/// folded into a participant's accumulator only after the seqlock
/// verified the block was stable, which makes retries side-effect free.
class ScanDriver {
 public:
  /// All readers must cover the same row count.
  explicit ScanDriver(std::vector<const ColumnReader*> readers);

  size_t num_rows() const { return num_rows_; }

  /// Runs `block_fn(Acc&, const ScanBlock&)` once per 1024-row block over
  /// plain value arrays and merges block-local (and, under a parallel
  /// scan, per-worker) accumulators into `total` with `merge(Acc&, Acc&&)`.
  /// Versioned blocks are resolved into per-participant scratch before the
  /// callback runs, so the callback never sees version logic and can use
  /// tight (vectorizable) column-at-a-time or row loops unconditionally.
  /// A block that raced a commit is redone from fully resolved data and
  /// the callback's partial Acc is discarded, so block_fn must be
  /// side-effect free apart from its Acc. Thread-safe: concurrent folds on
  /// one driver share no mutable state.
  template <typename Acc, typename BlockFn, typename MergeFn>
  void FoldBlockwise(Acc* total, BlockFn&& block_fn, MergeFn&& merge,
                     ScanStats* stats = nullptr,
                     const ScanOptions& options = ScanOptions()) const {
    const size_t num_blocks =
        (num_rows_ + mvcc::kRowsPerBlock - 1) / mvcc::kRowsPerBlock;
    const size_t morsel_blocks = std::max<size_t>(1, options.morsel_blocks);
    const size_t num_morsels =
        (num_blocks + morsel_blocks - 1) / morsel_blocks;
    size_t parallelism =
        options.pool != nullptr ? std::max<size_t>(1, options.max_threads) : 1;
    // No more participants than morsels: excess helpers would only pay
    // enqueue/wakeup overhead to find the claim counter exhausted.
    parallelism = std::min(parallelism, num_morsels);

    if (parallelism <= 1) {
      BlockScratch scratch(readers_.size());
      FoldBlocksStaged(0, num_blocks, total, block_fn, merge, stats,
                       &scratch, options);
      return;
    }

    std::atomic<size_t> next_morsel{0};
    std::mutex merge_mutex;
    options.pool->ParallelRun(parallelism, [&](size_t /*slot*/) {
      Acc local{};
      ScanStats local_stats;
      BlockScratch scratch(readers_.size());
      bool worked = false;
      for (;;) {
        const size_t morsel =
            next_morsel.fetch_add(1, std::memory_order_relaxed);
        const size_t block_begin = morsel * morsel_blocks;
        if (block_begin >= num_blocks) break;
        FoldBlocksStaged(block_begin,
                         std::min(block_begin + morsel_blocks, num_blocks),
                         &local, block_fn, merge, &local_stats, &scratch,
                         options);
        worked = true;
      }
      if (!worked) return;
      std::lock_guard<std::mutex> guard(merge_mutex);
      merge(*total, std::move(local));
      if (stats != nullptr) stats->Merge(local_stats);
    });
  }

 private:
  enum class BlockMode { kTight, kHinted, kSafe };

  /// Per-participant classification scratch: seqlock counters and hint
  /// ranges for the block being scanned (absolute row ids). Stack-local to
  /// each scan participant, so concurrent scans never share state. The
  /// stage buffer holds resolved values of versioned blocks, one
  /// kRowsPerBlock span per reader, and is allocated lazily — scans that
  /// only meet version-free blocks never touch it.
  struct BlockScratch {
    explicit BlockScratch(size_t num_readers)
        : seqs(num_readers),
          hint_first(num_readers),
          hint_last(num_readers) {}
    std::vector<uint64_t> seqs;
    std::vector<size_t> hint_first;
    std::vector<size_t> hint_last;
    std::vector<uint64_t> stage;
    std::vector<const uint64_t*> block_cols;
  };

  /// Reads every reader's block metadata; picks kTight when no reader has
  /// relevant versions in the block, kHinted when hints apply, kSafe when
  /// a write is in progress right now. Records seqlock counters and hint
  /// ranges in `scratch`.
  BlockMode ClassifyBlock(size_t block, BlockScratch* scratch) const;

  /// True iff no reader's block seqlock moved since ClassifyBlock.
  bool BlockStable(size_t block, const std::vector<uint64_t>& seqs) const;

  /// Resolves reader `i`'s rows [begin, end) into stage memory for a
  /// hinted block: raw copies outside the reader's versioned range, chain
  /// resolution inside. Returns the span the ScanBlock should expose.
  const uint64_t* StageHinted(size_t i, size_t begin, size_t end,
                              const BlockScratch& scratch,
                              uint64_t* stage) const;

  /// Resolves reader `i`'s rows [begin, end) into stage memory through the
  /// always-correct per-row path (safe blocks).
  const uint64_t* StageSafe(size_t i, size_t begin, size_t end,
                            uint64_t* stage) const;

  /// Folds a contiguous block range into `*acc`: classify, expose raw
  /// spans for version-free blocks and staged (resolved) spans otherwise,
  /// validate via seqlock, redo from safe staging on instability.
  template <typename Acc, typename BlockFn, typename MergeFn>
  void FoldBlocksStaged(size_t block_begin, size_t block_end, Acc* acc,
                        BlockFn& block_fn, MergeFn& merge, ScanStats* stats,
                        BlockScratch* scratch,
                        const ScanOptions& options) const {
    const size_t num_readers = readers_.size();
    scratch->block_cols.resize(num_readers);
    for (size_t block = block_begin; block < block_end; ++block) {
      const size_t begin = block * mvcc::kRowsPerBlock;
      const size_t end = std::min(begin + mvcc::kRowsPerBlock, num_rows_);
      const BlockMode mode = ClassifyBlock(block, scratch);
      if (options.on_block_classified) options.on_block_classified(block);

      if (mode != BlockMode::kSafe) {
        if (mode == BlockMode::kTight) {
#ifdef ANKER_TSAN
          // Downstream block kernels read the exposed spans with plain
          // loads; under TSan, stage them through relaxed atomic copies
          // instead of pointing into the live slot arrays.
          EnsureStage(scratch);
          for (size_t i = 0; i < num_readers; ++i) {
            uint64_t* stage =
                scratch->stage.data() + i * mvcc::kRowsPerBlock;
            for (size_t r = begin; r < end; ++r) {
              stage[r - begin] = RawSlotLoad(raw_bases_[i] + r);
            }
            scratch->block_cols[i] = stage;
          }
#else
          for (size_t i = 0; i < num_readers; ++i) {
            scratch->block_cols[i] = raw_bases_[i] + begin;
          }
#endif
        } else {
          EnsureStage(scratch);
          for (size_t i = 0; i < num_readers; ++i) {
            scratch->block_cols[i] = StageHinted(
                i, begin, end, *scratch,
                scratch->stage.data() + i * mvcc::kRowsPerBlock);
          }
        }
        Acc local{};
        block_fn(local,
                 ScanBlock{scratch->block_cols.data(), begin, end - begin});
        if (BlockStable(block, scratch->seqs)) {
          merge(*acc, std::move(local));
          if (stats != nullptr) {
            if (mode == BlockMode::kTight) {
              stats->tight_rows += end - begin;
            } else {
              stats->hinted_rows += end - begin;
            }
          }
          continue;
        }
        if (stats != nullptr) ++stats->seqlock_retries;
        // Discard `local`, redo the block from fully resolved staging.
      }

      EnsureStage(scratch);
      for (size_t i = 0; i < num_readers; ++i) {
        scratch->block_cols[i] = StageSafe(
            i, begin, end, scratch->stage.data() + i * mvcc::kRowsPerBlock);
      }
      Acc local{};
      block_fn(local,
               ScanBlock{scratch->block_cols.data(), begin, end - begin});
      merge(*acc, std::move(local));
      if (stats != nullptr) stats->resolved_rows += end - begin;
    }
  }

  void EnsureStage(BlockScratch* scratch) const {
    if (scratch->stage.empty()) {
      scratch->stage.resize(readers_.size() * mvcc::kRowsPerBlock);
    }
  }

  std::vector<const ColumnReader*> readers_;
  size_t num_rows_ = 0;
  /// Cached raw slot arrays, one per reader (tight/hinted blocks).
  std::vector<const uint64_t*> raw_bases_;
  /// Per-reader: may need chain segments older than reader.dir().
  std::vector<bool> needs_prev_;
};

/// Convenience: sum of a single column (typed as double when `as_double`),
/// used by the full-table-scan transactions and Figure 9.
double ScanColumnSum(const ColumnReader& reader, bool as_double,
                     ScanStats* stats = nullptr,
                     const ScanOptions& options = ScanOptions());

}  // namespace anker::engine

#endif  // ANKER_ENGINE_EXECUTOR_H_
