#ifndef ANKER_ENGINE_SNAPSHOT_MANAGER_H_
#define ANKER_ENGINE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/active_txn_registry.h"
#include "mvcc/timestamp_oracle.h"
#include "storage/column.h"

namespace anker::engine {

class SnapshotManager;

/// One snapshot epoch: the logical snapshot timestamp logged at trigger
/// time plus the lazily materialized per-column snapshots (paper
/// Section 2.2.2: columns that are never touched are never materialized).
class SnapshotEpoch {
 public:
  explicit SnapshotEpoch(mvcc::Timestamp epoch_ts) : epoch_ts_(epoch_ts) {}
  ANKER_DISALLOW_COPY_AND_MOVE(SnapshotEpoch);

  mvcc::Timestamp epoch_ts() const { return epoch_ts_; }

  /// Materialized snapshot of `column`, or nullptr if not yet taken.
  const storage::ColumnSnapshot* Find(const storage::Column* column) const;

  size_t materialized_count() const {
    std::lock_guard<std::mutex> guard(columns_mutex_);
    return columns_.size();
  }

 private:
  friend class SnapshotManager;

  mvcc::Timestamp epoch_ts_;
  /// Handle holders look columns up while a later Acquire materializes
  /// more columns into the same epoch. Entries are never erased while the
  /// epoch lives, so a found snapshot stays valid after the lookup.
  mutable std::mutex columns_mutex_;
  std::map<const storage::Column*, storage::ColumnSnapshot> columns_;
  int refcount_ = 0;
};

/// RAII reference to a snapshot epoch held by one OLAP transaction. While
/// alive, the epoch's column snapshots (and their version chains) stay
/// valid. Releasing the last reference to an obsolete epoch drops it — and
/// with it all its version chains, the paper's implicit garbage
/// collection (Fig. 1, step 8).
class SnapshotHandle {
 public:
  ~SnapshotHandle();
  ANKER_DISALLOW_COPY_AND_MOVE(SnapshotHandle);

  mvcc::Timestamp epoch_ts() const { return epoch_->epoch_ts(); }

  /// Snapshot of `column`; CHECK-fails if the column was not part of the
  /// Acquire call. This is the internal-invariant path: engine code that
  /// *inferred* the column set (Database::Run) calls it. Callers handing
  /// in user-provided column sets should use Find and surface a Status
  /// (see OlapContext::TryReader).
  const storage::ColumnSnapshot& GetColumn(
      const storage::Column* column) const;

  /// Snapshot of `column`, or nullptr when the column was not part of the
  /// Acquire call — the recoverable sibling of GetColumn.
  const storage::ColumnSnapshot* Find(const storage::Column* column) const {
    return epoch_->Find(column);
  }

 private:
  friend class SnapshotManager;
  SnapshotHandle(SnapshotManager* manager, SnapshotEpoch* epoch)
      : manager_(manager), epoch_(epoch) {}

  SnapshotManager* manager_;
  SnapshotEpoch* epoch_;
};

/// Coordinates snapshot epochs for the heterogeneous processing model:
///  - the transaction manager's commit hook calls TriggerEpoch every n
///    commits, which only *logs* a snapshot timestamp (lazy approach);
///  - an arriving OLAP transaction calls Acquire with the set of columns
///    it touches; missing column snapshots are materialized on the spot
///    using the column's virtual-snapshot buffer;
///  - epochs are retired as soon as they are unreferenced and a newer
///    epoch exists.
class SnapshotManager {
 public:
  SnapshotManager(mvcc::TimestampOracle* oracle,
                  mvcc::ActiveTxnRegistry* registry);
  ~SnapshotManager();
  ANKER_DISALLOW_COPY_AND_MOVE(SnapshotManager);

  /// Logs a new snapshot timestamp (no materialization happens here).
  /// Lock-free: the commit hook calls it inside the commit mutex, behind
  /// which committers wait holding column latches, while Acquire holds
  /// mutex_ waiting for one of those latches exclusively.
  void TriggerEpoch();

  /// Returns a handle on the newest epoch with all `columns` materialized.
  /// Creates the first epoch on demand if none was ever triggered.
  Result<std::unique_ptr<SnapshotHandle>> Acquire(
      const std::vector<storage::Column*>& columns);

  /// Number of live (non-retired) epochs (for tests/benches).
  size_t LiveEpochCount() const;

  /// Total column snapshots materialized over the manager's lifetime.
  size_t total_materializations() const { return total_materializations_; }

 private:
  friend class SnapshotHandle;

  void Release(SnapshotEpoch* epoch);
  void RetireUnreferencedLocked();

  mvcc::TimestampOracle* oracle_;
  mvcc::ActiveTxnRegistry* registry_;

  mutable std::mutex mutex_;
  /// Newest logged trigger, 0 = none. Only ever grows.
  std::atomic<mvcc::Timestamp> pending_epoch_ts_{0};
  std::deque<std::unique_ptr<SnapshotEpoch>> epochs_;  ///< Oldest first.
  size_t total_materializations_ = 0;
};

}  // namespace anker::engine

#endif  // ANKER_ENGINE_SNAPSHOT_MANAGER_H_
