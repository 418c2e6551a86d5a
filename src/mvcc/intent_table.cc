#include "mvcc/intent_table.h"

namespace anker::mvcc {

Status IntentTable::Place(PreparedTxn txn) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto decided = outcomes_.find(txn.gtid);
  if (decided != outcomes_.end()) {
    // The transaction was already resolved — a zombie prepare (its router
    // died, a reader resolved it as aborted, and a stale retry arrives
    // late) must not re-lock the rows.
    if (decided->second.outcome == TxnOutcome::kAborted) {
      return Status::Aborted("transaction was already resolved as aborted");
    }
    return Status::InvalidArgument(
        "transaction was already resolved as committed");
  }
  if (pending_.count(txn.gtid) != 0) {
    return Status::OK();  // Duplicate prepare: already staged, idempotent.
  }
  for (const SlotWrite& write : txn.writes) {
    auto slot = slots_.find(SlotKey{write.column, write.row});
    if (slot != slots_.end() && slot->second != txn.gtid) {
      return Status::ResourceBusy(
          "write intent pending on a slot in the write set");
    }
  }
  for (const SlotWrite& write : txn.writes) {
    slots_[SlotKey{write.column, write.row}] = txn.gtid;
  }
  intent_count_.fetch_add(txn.writes.size(), std::memory_order_release);
  pending_.emplace(txn.gtid, std::move(txn));
  return Status::OK();
}

bool IntentTable::Lookup(const storage::Column* column, uint64_t row,
                         IntentInfo* info) const {
  if (intent_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> guard(mutex_);
  auto slot = slots_.find(SlotKey{column, row});
  if (slot == slots_.end()) return false;
  auto pending = pending_.find(slot->second);
  if (pending == pending_.end()) return false;  // Unreachable by invariant.
  info->gtid = pending->second.gtid;
  info->primary_shard = pending->second.primary_shard;
  info->prepare_ts = pending->second.prepare_ts;
  return true;
}

bool IntentTable::Get(uint64_t gtid, PreparedTxn* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = pending_.find(gtid);
  if (it == pending_.end()) return false;
  *out = it->second;
  return true;
}

bool IntentTable::Remove(uint64_t gtid, PreparedTxn* out) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = pending_.find(gtid);
  if (it == pending_.end()) return false;
  for (const SlotWrite& write : it->second.writes) {
    slots_.erase(SlotKey{write.column, write.row});
  }
  intent_count_.fetch_sub(it->second.writes.size(),
                          std::memory_order_release);
  *out = std::move(it->second);
  pending_.erase(it);
  return true;
}

void IntentTable::RecordOutcomeLocked(uint64_t gtid, TxnOutcome outcome,
                                      Timestamp commit_ts) {
  if (outcomes_.count(gtid) != 0) return;  // First decision wins.
  outcomes_.emplace(gtid, Outcome{outcome, commit_ts});
  outcome_fifo_.push_back(gtid);
  while (outcome_fifo_.size() > kMaxOutcomes) {
    outcomes_.erase(outcome_fifo_.front());
    outcome_fifo_.pop_front();
  }
}

void IntentTable::RecordOutcome(uint64_t gtid, TxnOutcome outcome,
                                Timestamp commit_ts) {
  std::lock_guard<std::mutex> guard(mutex_);
  RecordOutcomeLocked(gtid, outcome, commit_ts);
}

TxnOutcome IntentTable::OutcomeOf(uint64_t gtid, Timestamp* commit_ts) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = outcomes_.find(gtid);
  if (it == outcomes_.end()) return TxnOutcome::kPending;
  if (commit_ts != nullptr) *commit_ts = it->second.commit_ts;
  return it->second.outcome;
}

size_t IntentTable::PendingCount() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return pending_.size();
}

std::vector<PreparedTxn> IntentTable::SnapshotPending() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<PreparedTxn> out;
  out.reserve(pending_.size());
  for (const auto& [gtid, txn] : pending_) out.push_back(txn);
  return out;
}

std::vector<IntentTable::OutcomeEntry> IntentTable::SnapshotOutcomes() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<OutcomeEntry> out;
  out.reserve(outcome_fifo_.size());
  // FIFO order so a restore rebuilds the same eviction sequence.
  for (uint64_t gtid : outcome_fifo_) {
    auto it = outcomes_.find(gtid);
    if (it != outcomes_.end()) {
      out.push_back(OutcomeEntry{gtid, it->second.outcome,
                                 it->second.commit_ts});
    }
  }
  return out;
}

}  // namespace anker::mvcc
