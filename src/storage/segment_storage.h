#ifndef ANKER_STORAGE_SEGMENT_STORAGE_H_
#define ANKER_STORAGE_SEGMENT_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/latch.h"
#include "common/macros.h"
#include "common/status.h"
#include "mvcc/version_store.h"
#include "snapshot/snapshotable_buffer.h"
#include "storage/extent.h"
#include "storage/value.h"

namespace anker::storage {

/// One extent reference as recorded by an incremental checkpoint ("these
/// rows of this column are exactly the bytes of extent N"). `file_bytes`
/// and `reused` are in-memory accounting only; the serialized ACL2 record
/// carries id, row range and crc.
struct SegmentExtentRef {
  uint64_t extent_id = 0;
  uint64_t row_begin = 0;
  uint64_t row_count = 0;
  uint32_t crc = 0;       ///< Whole-file CRC32C of the extent.
  uint64_t file_bytes = 0;
  bool reused = false;  ///< True when the checkpoint re-referenced an
                        ///< already-published extent instead of writing.
};

/// Residency layer under Column: the column's rows are split into
/// fixed-size segments that are each either *resident* (their slots in the
/// column's SnapshotableBuffer are live) or *cold* (the slots were
/// released and the bytes live in a published extent file). The query
/// layer never sees the difference — reads fault cold segments back in,
/// and scans run over buffers whose residency is pinned for the scan's
/// lifetime. A column without ColumnSegments is "untiered": every fast
/// path keeps today's all-RAM behavior.
///
/// Concurrency design, in one place:
///
///  - Every slot mutation goes through BeginWrite, which holds the
///    segment mutex across the store. Commits additionally hold the
///    column latch shared (and the engine's commit mutex).
///  - The resident fast path is a seqlock: readers check `gen` is even
///    and the state resident, load the slot, and re-check `gen`.
///    Eviction bumps `gen` odd before releasing pages and even after, so
///    a read that overlapped a release is discarded and retried slowly.
///    Eviction never changes logical content — only reads of released
///    (zeroed) pages must be excluded.
///  - Fault-in restores bytes with WriteSpan, whose stores must be
///    serialized with every committer's (the buffer's write contract);
///    reader-side fault-ins therefore take the column latch exclusively
///    (draining committers) first. Write-side fault-ins run inside the
///    commit mutex, where stores are serialized already.
///  - Lock order is always: column latch, then the engine's commit
///    mutex (commits only), then segment mutex. Disk IO (extent
///    publication) happens outside all of them; captured bytes are
///    tagged with the segment's dirty generation and the publication is
///    discarded if a write intervened.
class ColumnSegments {
 public:
  /// `segment_rows` must be a power of two (>= 1024 keeps segments
  /// page-aligned and whole version-metadata blocks). The last segment
  /// may be shorter. `desc` names the column in fatal messages.
  ColumnSegments(snapshot::SnapshotableBuffer* buffer,
                 mvcc::VersionStore* versions, Latch* latch, size_t num_rows,
                 size_t segment_rows, ValueType type, ExtentStore* store,
                 std::string desc);
  ANKER_DISALLOW_COPY_AND_MOVE(ColumnSegments);

  /// Point read of the newest committed raw value, faulting the segment
  /// in from its extent when cold. Lock-free while the segment is
  /// resident. A fault-in that cannot read its extent back is fatal
  /// (ANKER_CHECK): the read path has no way to surface a status.
  uint64_t Read(size_t row);

  /// Prepares `row`'s segment for a slot mutation: faults it in when
  /// cold and advances its dirty generation (invalidating any published
  /// extent). The returned lock is held by the caller across the slot
  /// store, so extent captures never see a torn write. Caller context
  /// must serialize buffer stores — the commit path (column latches
  /// shared, then the commit mutex) and quiesced loads both qualify.
  std::unique_lock<std::mutex> BeginWrite(size_t row);

  /// Faults every segment in and pins the column resident; the returned
  /// lease unpins on destruction. Eviction skips pinned columns, so raw
  /// scan pointers stay valid for the lease's lifetime. Caller holds the
  /// column latch EXCLUSIVE (or the engine is quiesced).
  Result<std::shared_ptr<void>> PinResidentLocked();

  struct SpillCandidate {
    size_t segment = 0;
    uint64_t last_access = 0;
    uint64_t bytes = 0;  ///< Raw slot bytes the eviction would release.
  };
  /// Appends every currently-resident segment (coldest-first ordering is
  /// the caller's job — it merges candidates across columns).
  void CollectSpillCandidates(std::vector<SpillCandidate>* out) const;

  /// Attempts to evict one segment: publish its extent if none is
  /// current, then release the buffer range. Returns false (not an
  /// error) when the segment is unspillable right now — pinned, already
  /// cold, carrying versions, or racing a writer. Takes the column latch
  /// exclusively for the release step; callers hold no locks.
  Result<bool> TrySpill(size_t segment);

  /// Samples every segment's dirty generation. Called under the column's
  /// exclusive latch at snapshot seal time: the returned vector identifies
  /// the exact content version each segment had in that snapshot image.
  void SampleDirtyGens(std::vector<uint64_t>* out) const;

  /// One extent ref per segment for an incremental checkpoint, captured
  /// from `image` — a consistent snapshot of the whole column whose
  /// per-segment content versions are `image_gens` (from SampleDirtyGens
  /// at seal time). A segment whose published extent already carries its
  /// image generation is re-referenced without touching bytes; the rest
  /// are encoded from the image and published now. Never reads the live
  /// buffer, so concurrent commits cannot tear a transaction across the
  /// checkpoint.
  Result<std::vector<SegmentExtentRef>> CollectCheckpointRefs(
      const uint64_t* image, const std::vector<uint64_t>& image_gens);

  /// Recovery: the checkpoint restored this ref's rows from its extent,
  /// so the segment's published extent is current again (until WAL replay
  /// dirties it). Refs that no longer line up with a segment boundary
  /// (the segment size changed across restarts) are silently ignored —
  /// the data is already loaded; the next checkpoint just re-publishes.
  void NoteRecoveredExtent(const SegmentExtentRef& ref);

  /// Adds every extent id any segment still references to `keep` (the
  /// checkpoint prune keep-set).
  void AppendLiveExtents(std::unordered_set<uint64_t>* keep) const;

  uint64_t resident_bytes() const;
  uint64_t cold_bytes() const;

 private:
  enum State : uint8_t { kResident = 0, kCold = 1 };

  struct Segment {
    /// Serializes slot writes, captures, fault-ins and state flips for
    /// this segment. Never held across disk IO.
    mutable std::mutex mu;
    /// Seqlock word for the lock-free resident read path; odd while an
    /// eviction is releasing pages.
    std::atomic<uint64_t> gen{0};
    std::atomic<uint8_t> state{kResident};
    /// Advances on every BeginWrite; the published extent is current iff
    /// published_gen matches. Starts at 1 with published_gen 0: a fresh
    /// segment has no current extent.
    std::atomic<uint64_t> dirty_gen{1};
    std::atomic<uint64_t> last_access{0};

    // Published-extent identity; guarded by mu.
    uint64_t published_gen = 0;
    uint64_t extent_id = 0;
    uint32_t extent_crc = 0;
    uint64_t extent_bytes = 0;

    size_t row_begin = 0;  ///< Immutable after construction.
    size_t row_count = 0;
  };

  Segment& SegmentFor(size_t row) {
    return *segments_[row >> segment_shift_];
  }
  /// Lock-free seqlock read; false when the segment is cold or an
  /// eviction overlapped.
  bool TryReadFast(const Segment& seg, size_t row, uint64_t* out) const;
  /// Restores a cold segment's bytes from its extent. Caller holds
  /// seg.mu and a context where WriteSpan's stores are serialized (see
  /// class comment).
  Status FaultInLocked(Segment& seg);
  void Touch(Segment& seg) {
    const uint64_t now = store_->clock_now();
    if (seg.last_access.load(std::memory_order_relaxed) != now) {
      seg.last_access.store(now, std::memory_order_relaxed);
    }
  }

  snapshot::SnapshotableBuffer* buffer_;
  mvcc::VersionStore* versions_;
  Latch* latch_;
  size_t num_rows_;
  unsigned segment_shift_;
  ValueType type_;
  ExtentStore* store_;
  std::string desc_;
  std::vector<std::unique_ptr<Segment>> segments_;
  /// Active residency leases over the whole column; eviction refuses
  /// while > 0.
  std::atomic<uint64_t> pins_{0};
};

}  // namespace anker::storage

#endif  // ANKER_STORAGE_SEGMENT_STORAGE_H_
