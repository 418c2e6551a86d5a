#ifndef ANKER_STORAGE_COLUMN_H_
#define ANKER_STORAGE_COLUMN_H_

#include <memory>
#include <string>

#include "common/latch.h"
#include "common/macros.h"
#include "common/status.h"
#include "mvcc/version_store.h"
#include "snapshot/snapshotable_buffer.h"
#include "storage/segment_storage.h"
#include "storage/value.h"

namespace anker::storage {

/// Point-in-time snapshot of one column: the virtually snapshotted data
/// plus the handed-over version chains (paper contribution IV — snapshots
/// are taken *of versioned columns*, so a reader at the epoch timestamp can
/// still resolve versions written between the epoch trigger and the lazy
/// materialization).
struct ColumnSnapshot {
  /// Keeps the column's segments resident while the snapshot lives (null
  /// when the column is untiered). Declared first so it is destroyed
  /// last: the view must never outlive the residency it scans over.
  std::shared_ptr<void> residency_lease;
  std::unique_ptr<snapshot::SnapshotView> view;
  std::shared_ptr<mvcc::ChainDirectory> chains;  ///< nullptr when clean.
  /// Tiered columns only: each segment's dirty generation at seal time —
  /// the content version the view holds per segment. Incremental
  /// checkpoints use it to decide which published extents still match
  /// this image (see ColumnSegments::CollectCheckpointRefs).
  std::vector<uint64_t> segment_gens;
  mvcc::Timestamp epoch_ts = 0;  ///< Logical snapshot time (trigger).
  mvcc::Timestamp seal_ts = 0;   ///< Materialization time.
};

/// A fixed-width (8-byte slot) versioned column: the up-to-date data lives
/// in a SnapshotableBuffer, superseded values in a VersionStore. The latch
/// implements the paper's snapshot-consistency protocol (Section 2.2.3):
/// updaters hold it shared, snapshot materialization exclusive.
///
/// With tiering enabled (EnableTiering), a ColumnSegments layer under the
/// buffer lets fixed-size row segments go cold: their slots are released
/// after being published to an on-disk extent, and reads/writes fault them
/// back in transparently. An untiered column (`segments_ == nullptr`)
/// takes none of these paths — byte-for-byte today's behavior.
class Column {
 public:
  Column(std::string name, ValueType type,
         std::unique_ptr<snapshot::SnapshotableBuffer> buffer,
         size_t num_rows);
  ANKER_DISALLOW_COPY_AND_MOVE(Column);

  const std::string& name() const { return name_; }
  ValueType type() const { return type_; }
  size_t num_rows() const { return num_rows_; }

  /// Stable (table, column) ordinal the engine assigns when it registers
  /// the column for WAL addressing (table = creation order, column =
  /// schema position); immutable afterwards. Read lock-free on the commit
  /// path: registration happens-before any commit that can reference the
  /// column, because callers only learn about the column through the
  /// fully registered table.
  void SetStableId(uint32_t table_id, uint32_t column_id) {
    stable_table_id_ = table_id;
    stable_column_id_ = column_id;
  }
  uint32_t stable_table_id() const { return stable_table_id_; }
  uint32_t stable_column_id() const { return stable_column_id_; }

  /// Attaches the cold tier: rows are split into `segment_rows`-sized
  /// spillable segments backed by `store`. Must be called before the
  /// column is visible to any other thread (the engine does it while
  /// publishing the table).
  void EnableTiering(ExtentStore* store, size_t segment_rows);

  /// Residency layer, or nullptr when untiered.
  ColumnSegments* segments() const { return segments_.get(); }

  /// Unversioned store used during the initial data load (timestamp 0).
  void LoadValue(size_t row, uint64_t raw);

  /// Newest committed raw value (faults the row's segment in when cold).
  uint64_t ReadLatestRaw(size_t row) const {
    if (segments_ != nullptr) return segments_->Read(row);
    return buffer_->LoadU64(row * sizeof(uint64_t));
  }

  /// Raw value visible at `start_ts` (slot read first, then chain — see
  /// VersionStore::ResolveVisible for why the order matters).
  uint64_t ReadVisibleRaw(size_t row, mvcc::Timestamp start_ts) const {
    const uint64_t slot = ReadLatestRaw(row);
    return versions_->ResolveVisible(row, start_ts, slot);
  }

  /// Pays a write's first-touch costs ahead of the commit critical
  /// section: the page copy into every live snapshot view (the buffer's
  /// MarkDirty) and the row's block in the current version-chain segment.
  /// The caller holds the column latch shared from here through
  /// ApplyCommittedWrite, so no snapshot can start a new epoch in between
  /// and the in-section calls take their fast paths. Any number of
  /// committers may prepare at once. A cold segment is faulted in later,
  /// by ApplyCommittedWrite: its pages cannot be shared with a live view
  /// (snapshots pin their column resident).
  void PrepareWrite(size_t row) {
    buffer_->MarkDirty(row * sizeof(uint64_t), sizeof(uint64_t));
    versions_->current()->EnsureBlock(row);
  }

  /// Materializes a committed write: pushes the current value into the
  /// version chain, then overwrites the slot in place (newest-to-oldest
  /// order, paper Section 2.1). Must be called from the commit critical
  /// section while holding the column latch shared. Returns the value the
  /// slot held before the write — committers must take the old value from
  /// here rather than a separate ReadLatestRaw: the read path's cold-
  /// segment fault-in acquires the exclusive latch, which self-deadlocks
  /// under the shared hold, while this path faults in under the segment
  /// lock alone.
  uint64_t ApplyCommittedWrite(size_t row, uint64_t new_raw,
                               mvcc::Timestamp commit_ts);

  /// Commit timestamp of the last write to `row` (kLoadTimestamp if none
  /// newer than `since` exists) — first-committer-wins conflict checks.
  mvcc::Timestamp LastWriteTs(size_t row, mvcc::Timestamp since) const {
    return versions_->LastWriteTs(row, since);
  }

  /// Takes a virtual snapshot of the column and hands over the current
  /// version chains (paper Fig. 1, steps 4 and 7). `epoch_ts` is the
  /// logical snapshot timestamp logged at trigger time; `min_active_ts`
  /// (minimum start_ts of in-flight transactions) lets the column cut
  /// links to chain segments no reader can need.
  Result<ColumnSnapshot> MaterializeSnapshot(mvcc::Timestamp epoch_ts,
                                             mvcc::Timestamp seal_ts,
                                             mvcc::Timestamp min_active_ts);

  /// Faults every cold segment in and pins the column resident until the
  /// returned lease is dropped — live (non-snapshot) scans hold one so
  /// their raw pointers stay valid. Returns a null lease when untiered.
  Result<std::shared_ptr<void>> PinResident();

  /// Direct access for executors and the transaction manager.
  snapshot::SnapshotableBuffer* buffer() const { return buffer_.get(); }
  mvcc::VersionStore* versions() const { return versions_.get(); }
  Latch& latch() const { return latch_; }

  /// Raw base pointer of the up-to-date representation (live scans).
  /// With tiering on, callers must hold a residency lease.
  const uint8_t* raw_data() const { return buffer_->data(); }

 private:
  std::string name_;
  ValueType type_;
  std::unique_ptr<snapshot::SnapshotableBuffer> buffer_;
  std::unique_ptr<mvcc::VersionStore> versions_;
  std::unique_ptr<ColumnSegments> segments_;  ///< nullptr = untiered.
  size_t num_rows_;
  uint32_t stable_table_id_ = 0;
  uint32_t stable_column_id_ = 0;
  mutable Latch latch_;
};

}  // namespace anker::storage

#endif  // ANKER_STORAGE_COLUMN_H_
