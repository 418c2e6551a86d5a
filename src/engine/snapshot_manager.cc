#include "engine/snapshot_manager.h"

namespace anker::engine {

const storage::ColumnSnapshot* SnapshotEpoch::Find(
    const storage::Column* column) const {
  std::lock_guard<std::mutex> guard(columns_mutex_);
  auto it = columns_.find(column);
  return it == columns_.end() ? nullptr : &it->second;
}

SnapshotHandle::~SnapshotHandle() { manager_->Release(epoch_); }

const storage::ColumnSnapshot& SnapshotHandle::GetColumn(
    const storage::Column* column) const {
  const storage::ColumnSnapshot* snap = epoch_->Find(column);
  ANKER_CHECK_MSG(snap != nullptr,
                  "column not materialized in acquired epoch");
  return *snap;
}

SnapshotManager::SnapshotManager(mvcc::TimestampOracle* oracle,
                                 mvcc::ActiveTxnRegistry* registry)
    : oracle_(oracle), registry_(registry) {}

SnapshotManager::~SnapshotManager() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (const auto& epoch : epochs_) {
    ANKER_CHECK_MSG(epoch->refcount_ == 0,
                    "SnapshotManager destroyed with live handles");
  }
}

void SnapshotManager::TriggerEpoch() {
  const mvcc::Timestamp ts = oracle_->Next();
  // Triggers race (commit hook, checkpoint): keep the newest.
  mvcc::Timestamp seen = pending_epoch_ts_.load(std::memory_order_relaxed);
  while (seen < ts && !pending_epoch_ts_.compare_exchange_weak(
                          seen, ts, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

Result<std::unique_ptr<SnapshotHandle>> SnapshotManager::Acquire(
    const std::vector<storage::Column*>& columns) {
  std::lock_guard<std::mutex> guard(mutex_);

  // Advance to the pending epoch if a newer one was triggered; create the
  // very first epoch on demand. Advancing makes older unreferenced epochs
  // obsolete — drop them immediately (paper Fig. 1 step 8) so their views
  // stop costing copy-on-write work on every later flush.
  const mvcc::Timestamp pending =
      pending_epoch_ts_.load(std::memory_order_acquire);
  if (epochs_.empty() ||
      (pending != 0 && epochs_.back()->epoch_ts() < pending)) {
    const mvcc::Timestamp ts = pending != 0 ? pending : oracle_->Next();
    epochs_.push_back(std::make_unique<SnapshotEpoch>(ts));
    RetireUnreferencedLocked();
  }
  SnapshotEpoch* epoch = epochs_.back().get();

  // Lazily materialize whatever the transaction needs and is missing.
  for (storage::Column* column : columns) {
    if (epoch->Find(column) != nullptr) continue;
    const mvcc::Timestamp seal_ts = oracle_->Next();
    const mvcc::Timestamp min_active =
        registry_->MinStartTs(/*fallback=*/seal_ts);
    auto snap =
        column->MaterializeSnapshot(epoch->epoch_ts(), seal_ts, min_active);
    if (!snap.ok()) return snap.status();
    std::lock_guard<std::mutex> columns_guard(epoch->columns_mutex_);
    epoch->columns_.emplace(column, snap.TakeValue());
    ++total_materializations_;
  }

  ++epoch->refcount_;
  return std::unique_ptr<SnapshotHandle>(new SnapshotHandle(this, epoch));
}

void SnapshotManager::Release(SnapshotEpoch* epoch) {
  std::lock_guard<std::mutex> guard(mutex_);
  ANKER_CHECK(epoch->refcount_ > 0);
  --epoch->refcount_;
  RetireUnreferencedLocked();
}

void SnapshotManager::RetireUnreferencedLocked() {
  // Drop unreferenced epochs from the front as long as a newer epoch
  // exists (the newest is kept warm for the next OLAP arrival). Dropping
  // the ColumnSnapshots releases the snapshot views and, through the
  // shared_ptr, the handed-over version chains.
  while (epochs_.size() > 1 && epochs_.front()->refcount_ == 0) {
    epochs_.pop_front();
  }
}

size_t SnapshotManager::LiveEpochCount() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return epochs_.size();
}

}  // namespace anker::engine
