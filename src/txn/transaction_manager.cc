#include "txn/transaction_manager.h"

#include <algorithm>

namespace anker::txn {

const char* ProcessingModeName(ProcessingMode mode) {
  switch (mode) {
    case ProcessingMode::kHomogeneousSerializable:
      return "homogeneous-serializable";
    case ProcessingMode::kHomogeneousSnapshotIsolation:
      return "homogeneous-snapshot-isolation";
    case ProcessingMode::kHeterogeneousSerializable:
      return "heterogeneous-serializable";
  }
  return "unknown";
}

/// Shared latches over the columns of one write set, plus each write's
/// first-touch work (Column::PrepareWrite). Taken before the commit mutex:
/// the lock order is column latches (address order), then commit_mutex_,
/// everywhere. Snapshot materialization holds one exclusive latch at a
/// time and no commit-side lock, so no cycle can form, and the shared
/// hold keeps the epoch fixed between prepare and apply.
class TransactionManager::WriteSetLatches {
 public:
  explicit WriteSetLatches(const std::vector<mvcc::SlotWrite>& writes) {
    columns_.reserve(writes.size());
    for (const mvcc::SlotWrite& w : writes) columns_.push_back(w.column);
    std::sort(columns_.begin(), columns_.end());
    columns_.erase(std::unique(columns_.begin(), columns_.end()),
                   columns_.end());
    for (storage::Column* column : columns_) column->latch().LockShared();
    for (const mvcc::SlotWrite& w : writes) w.column->PrepareWrite(w.row);
  }
  ~WriteSetLatches() { Release(); }
  ANKER_DISALLOW_COPY_AND_MOVE(WriteSetLatches);

  /// Drops the latches early, once the writes are applied.
  void Release() {
    for (auto it = columns_.rbegin(); it != columns_.rend(); ++it) {
      (*it)->latch().UnlockShared();
    }
    columns_.clear();
  }

 private:
  std::vector<storage::Column*> columns_;
};

TransactionManager::TransactionManager(ProcessingMode mode) : mode_(mode) {}

std::unique_ptr<Transaction> TransactionManager::Begin(TxnType type) {
  // Start at the newest *fully applied* commit, not at a fresh oracle
  // tick: a fresh tick can exceed the timestamp of a commit whose writes
  // are still being materialized row by row, and a reader timestamped in
  // that window would see half of the commit (a torn transfer). The
  // watermark is bumped only after a commit's last write landed, so
  // everything at or below start_ts is complete.
  const mvcc::Timestamp start_ts =
      visible_ts_.load(std::memory_order_acquire);
  const uint64_t serial = registry_.Begin(start_ts);
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed), start_ts, serial,
      type);
}

void TransactionManager::Abort(Transaction* txn) {
  // Discarding the local write set is all an abort takes.
  registry_.End(txn->registry_serial());
  user_aborts_.fetch_add(1, std::memory_order_relaxed);
}

Status TransactionManager::Commit(Transaction* txn) {
  // Read-only transactions see a consistent MVCC snapshot as of start_ts
  // and are serializable without validation (serialize them at their start
  // point).
  if (txn->read_only()) {
    registry_.End(txn->registry_serial());
    commit_count_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // The WAL caps one record's size; reject before the critical section
  // rather than CHECK-aborting the process inside it.
  if (durability_sink_ && txn->writes().size() > max_durable_writes_) {
    registry_.End(txn->registry_serial());
    user_aborts_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        "write set exceeds the WAL record size limit (" +
        std::to_string(txn->writes().size()) + " > " +
        std::to_string(max_durable_writes_) + " writes)");
  }

  uint64_t durable_lsn = 0;
  {
    // Shared latches on every touched column make the commit atomic with
    // respect to snapshot materialization (which drains updaters with the
    // exclusive latch). The snapshot's page copies and the chain blocks
    // are paid here, before the commit mutex, so committers overlap them.
    WriteSetLatches latches(txn->writes());
    std::lock_guard<std::mutex> commit_guard(commit_mutex_);

    // 1. First-committer-wins: a newer committed write to any slot in our
    //    write set means our update was based on a stale version. A slot
    //    locked by a prepared distributed transaction is busy — its
    //    outcome is undecided, so neither conflict-abort nor proceed is
    //    sound; the caller retries once the intent resolves.
    for (const mvcc::SlotWrite& write : txn->writes()) {
      mvcc::IntentInfo intent;
      if (intents_.Lookup(write.column, write.row, &intent)) {
        registry_.End(txn->registry_serial());
        aborts_ww_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceBusy(
            "slot is locked by a prepared cross-shard transaction");
      }
      if (write.column->LastWriteTs(write.row, txn->start_ts()) >
          txn->start_ts()) {
        registry_.End(txn->registry_serial());
        aborts_ww_.fetch_add(1, std::memory_order_relaxed);
        return Status::Aborted("write-write conflict");
      }
    }

    // 2. Read-set validation via precision locking (serializable only).
    const bool validating = isolation() == IsolationLevel::kSerializable;
    if (validating) {
      const Status validation = recent_.Validate(
          txn->start_ts(), txn->point_reads(), txn->predicates());
      if (!validation.ok()) {
        registry_.End(txn->registry_serial());
        aborts_validation_.fetch_add(1, std::memory_order_relaxed);
        return validation;
      }
    }

    // 3. Materialize under the latches taken above and make the commit
    //    visible to new readers.
    const mvcc::Timestamp commit_ts = oracle_.Next();
    std::vector<WriteRecord> records;
    ApplyAndPublish(txn->writes(), commit_ts, &latches,
                    validating ? &records : nullptr);

    // 4. Emit the redo record. Still inside the critical section, so the
    //    log receives records in commit-timestamp order; the (possibly
    //    blocking) wait for the fsync happens after the lock is dropped.
    if (durability_sink_) {
      durable_lsn = durability_sink_(commit_ts, txn->writes());
      txn->set_durable_lsn(durable_lsn);
    }

    // 5. Publish the write set for later validators, then trim what no
    //    active transaction can need anymore.
    if (validating) {
      recent_.Record(commit_ts, std::move(records));
      recent_.TrimOlderThan(registry_.MinStartTs(commit_ts));
    }

    registry_.End(txn->registry_serial());
    FinishCommit();
  }

  // 6. Group commit: acknowledge only once the record is on disk. Other
  //    committers proceed through the critical section meanwhile and share
  //    the next fsync.
  if (durable_lsn != 0 && durability_wait_) {
    ANKER_RETURN_IF_ERROR(durability_wait_(durable_lsn));
  }
  return Status::OK();
}

void TransactionManager::ApplyAndPublish(
    const std::vector<mvcc::SlotWrite>& writes, mvcc::Timestamp commit_ts,
    WriteSetLatches* latches, std::vector<WriteRecord>* records) {
  if (records != nullptr) records->reserve(writes.size());
  for (const mvcc::SlotWrite& write : writes) {
    // ApplyCommittedWrite hands back the pre-image: reading it via
    // ReadLatestRaw here would fault cold segments in through the
    // exclusive latch and deadlock against our own shared hold.
    const uint64_t old_raw = write.column->ApplyCommittedWrite(
        write.row, write.new_raw, commit_ts);
    if (records != nullptr) {
      records->push_back(
          WriteRecord{write.column, write.row, old_raw, write.new_raw});
    }
  }
  latches->Release();
  // Every write of this commit is materialized: make it visible to new
  // readers (commits serialize under commit_mutex_, so the watermark is
  // monotonic).
  visible_ts_.store(commit_ts, std::memory_order_release);
}

void TransactionManager::FinishCommit() {
  const uint64_t commits =
      commit_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (commit_hook_) commit_hook_(commits);
}

void TransactionManager::ReplayCommitted(
    const std::vector<mvcc::SlotWrite>& writes, mvcc::Timestamp commit_ts) {
  WriteSetLatches latches(writes);
  std::lock_guard<std::mutex> commit_guard(commit_mutex_);
  // Keep the logged timestamp: version chains and visibility must come
  // out exactly as they were when the record was written.
  oracle_.AdvanceTo(commit_ts);
  ApplyAndPublish(writes, commit_ts, &latches, nullptr);
  FinishCommit();
}

Status TransactionManager::PrepareDistributed(
    uint64_t gtid, uint32_t primary_shard,
    const std::vector<mvcc::SlotWrite>& writes, mvcc::Timestamp* prepare_ts,
    uint64_t* durable_lsn) {
  *durable_lsn = 0;
  if (writes.empty()) {
    return Status::InvalidArgument("empty distributed write set");
  }
  if (prepare_sink_ && writes.size() > max_durable_writes_) {
    return Status::InvalidArgument(
        "write set exceeds the WAL record size limit");
  }
  {
    std::lock_guard<std::mutex> commit_guard(commit_mutex_);
    mvcc::PreparedTxn txn;
    txn.gtid = gtid;
    txn.primary_shard = primary_shard;
    // The router's EXEC_TXN writes are blind (no reads travel with the
    // prepare), so the snapshot stamp is the current watermark and the
    // first-committer-wins check against it is vacuous by construction:
    // nothing can have committed after a timestamp drawn under the same
    // mutex that serializes commits.
    txn.start_ts = visible_ts_.load(std::memory_order_acquire);
    txn.writes = writes;
    txn.prepare_ts = oracle_.Next();
    *prepare_ts = txn.prepare_ts;
    const mvcc::PreparedTxn logged = txn;  // Place() consumes the struct.
    ANKER_RETURN_IF_ERROR(intents_.Place(std::move(txn)));
    if (prepare_sink_) *durable_lsn = prepare_sink_(logged);
  }
  // The prepare acknowledgement is a durability promise — the router
  // commits on the strength of it — so it waits for the fsync like a
  // commit acknowledgement does.
  if (*durable_lsn != 0 && durability_wait_) {
    ANKER_RETURN_IF_ERROR(durability_wait_(*durable_lsn));
  }
  return Status::OK();
}

Status TransactionManager::CommitPrepared(uint64_t gtid,
                                          mvcc::Timestamp commit_ts,
                                          uint64_t* durable_lsn) {
  *durable_lsn = 0;
  if (commit_ts == 0) {
    return Status::InvalidArgument("commit timestamp must be positive");
  }
  for (;;) {
    // The intent write set is fixed at prepare, so its columns are latched
    // (and its rows prepared) before the commit mutex, like a commit's.
    mvcc::PreparedTxn staged;
    const bool was_staged = intents_.Get(gtid, &staged);
    WriteSetLatches latches(staged.writes);
    std::lock_guard<std::mutex> commit_guard(commit_mutex_);
    mvcc::Timestamp decided_ts = 0;
    switch (intents_.OutcomeOf(gtid, &decided_ts)) {
      case mvcc::TxnOutcome::kCommitted:
        return Status::OK();  // Duplicate COMMIT_PREPARED: already done.
      case mvcc::TxnOutcome::kAborted:
        return Status::Aborted("prepared transaction was aborted");
      case mvcc::TxnOutcome::kPending:
        break;
    }
    // A prepare that landed after the lookup above: go again with its
    // columns latched.
    if (!was_staged && intents_.Get(gtid, &staged)) continue;
    mvcc::PreparedTxn txn;
    if (!intents_.Remove(gtid, &txn)) {
      return Status::NotFound("unknown prepared transaction");
    }

    // Materialize at a locally drawn apply_ts >= the router's commit_ts,
    // NOT at commit_ts itself: the local oracle may already be past it,
    // and checkpoint/replay consistency ("skip iff apply_ts <= ckpt_ts")
    // only holds for timestamps issued by this shard's own monotonic
    // sequence. The global commit_ts travels as metadata in the WAL
    // record; atomicity across shards is the intents' job, not the
    // clocks'.
    oracle_.AdvanceTo(commit_ts - 1);
    const mvcc::Timestamp apply_ts = oracle_.Next();
    const bool validating = isolation() == IsolationLevel::kSerializable;
    std::vector<WriteRecord> records;
    ApplyAndPublish(txn.writes, apply_ts, &latches,
                    validating ? &records : nullptr);

    if (commit_prepared_sink_) {
      *durable_lsn =
          commit_prepared_sink_(gtid, commit_ts, apply_ts, txn.writes);
    }
    if (validating) {
      recent_.Record(apply_ts, std::move(records));
      recent_.TrimOlderThan(registry_.MinStartTs(apply_ts));
    }
    intents_.RecordOutcome(gtid, mvcc::TxnOutcome::kCommitted, commit_ts);
    FinishCommit();
    break;
  }
  if (*durable_lsn != 0 && durability_wait_) {
    ANKER_RETURN_IF_ERROR(durability_wait_(*durable_lsn));
  }
  return Status::OK();
}

uint64_t TransactionManager::AbortPreparedLocked(uint64_t gtid) {
  mvcc::PreparedTxn txn;
  intents_.Remove(gtid, &txn);  // May be absent (unknown gtid): fine.
  const mvcc::Timestamp abort_ts = oracle_.Next();
  uint64_t lsn = 0;
  if (abort_prepared_sink_) lsn = abort_prepared_sink_(gtid, abort_ts);
  intents_.RecordOutcome(gtid, mvcc::TxnOutcome::kAborted, 0);
  return lsn;
}

Status TransactionManager::AbortPrepared(uint64_t gtid,
                                         uint64_t* durable_lsn) {
  *durable_lsn = 0;
  {
    std::lock_guard<std::mutex> commit_guard(commit_mutex_);
    switch (intents_.OutcomeOf(gtid, nullptr)) {
      case mvcc::TxnOutcome::kCommitted:
        // Never undo applied data: a commit decision is final.
        return Status::InvalidArgument(
            "prepared transaction already committed");
      case mvcc::TxnOutcome::kAborted:
        return Status::OK();  // Duplicate abort.
      case mvcc::TxnOutcome::kPending:
        break;
    }
    // Unknown gtids get a durable aborted tombstone too: the router died
    // before this shard's prepare landed, and the tombstone fences any
    // zombie PREPARE_TXN still in flight.
    *durable_lsn = AbortPreparedLocked(gtid);
  }
  if (*durable_lsn != 0 && durability_wait_) {
    ANKER_RETURN_IF_ERROR(durability_wait_(*durable_lsn));
  }
  return Status::OK();
}

Status TransactionManager::ResolveOutcome(uint64_t gtid, bool abort_pending,
                                          mvcc::TxnOutcome* outcome,
                                          mvcc::Timestamp* commit_ts) {
  uint64_t abort_lsn = 0;
  {
    std::lock_guard<std::mutex> commit_guard(commit_mutex_);
    *commit_ts = 0;
    const mvcc::TxnOutcome decided = intents_.OutcomeOf(gtid, commit_ts);
    if (decided != mvcc::TxnOutcome::kPending) {
      *outcome = decided;
      return Status::OK();
    }
    mvcc::PreparedTxn txn;
    if (intents_.Get(gtid, &txn)) {
      if (!abort_pending) {
        *outcome = mvcc::TxnOutcome::kPending;  // Coordinator may be alive.
        return Status::OK();
      }
      // Escalation: the caller waited long enough to declare the
      // coordinator dead. Abort durably — the commit point is this
      // shard's ledger, so once the tombstone lands no COMMIT_PREPARED
      // can succeed.
      abort_lsn = AbortPreparedLocked(gtid);
      *outcome = mvcc::TxnOutcome::kAborted;
    } else {
      // Never prepared here (or the ledger already evicted a decided
      // entry — kMaxOutcomes is sized so no live resolution hits that).
      // The prepare cannot commit anymore once the tombstone is durable.
      abort_lsn = AbortPreparedLocked(gtid);
      *outcome = mvcc::TxnOutcome::kAborted;
    }
  }
  if (abort_lsn != 0 && durability_wait_) {
    ANKER_RETURN_IF_ERROR(durability_wait_(abort_lsn));
  }
  return Status::OK();
}

void TransactionManager::ReplayPrepare(mvcc::PreparedTxn txn) {
  std::lock_guard<std::mutex> commit_guard(commit_mutex_);
  oracle_.AdvanceTo(txn.prepare_ts);
  if (intents_.OutcomeOf(txn.gtid, nullptr) != mvcc::TxnOutcome::kPending) {
    return;  // Decided later in the log (or in the manifest ledger).
  }
  const Status placed = intents_.Place(std::move(txn));
  (void)placed;  // Idempotent re-stage; conflicts cannot arise on replay.
}

void TransactionManager::ReplayCommitPrepared(
    uint64_t gtid, mvcc::Timestamp commit_ts, mvcc::Timestamp apply_ts,
    const std::vector<mvcc::SlotWrite>& writes) {
  WriteSetLatches latches(writes);
  std::lock_guard<std::mutex> commit_guard(commit_mutex_);
  mvcc::PreparedTxn txn;
  intents_.Remove(gtid, &txn);  // Clear the staged twin if present.
  intents_.RecordOutcome(gtid, mvcc::TxnOutcome::kCommitted, commit_ts);
  if (writes.empty()) return;

  oracle_.AdvanceTo(apply_ts);
  ApplyAndPublish(writes, apply_ts, &latches, nullptr);
  FinishCommit();
}

void TransactionManager::ReplayAbortPrepared(uint64_t gtid,
                                             mvcc::Timestamp abort_ts) {
  std::lock_guard<std::mutex> commit_guard(commit_mutex_);
  oracle_.AdvanceTo(abort_ts);
  mvcc::PreparedTxn txn;
  intents_.Remove(gtid, &txn);
  intents_.RecordOutcome(gtid, mvcc::TxnOutcome::kAborted, 0);
}

void TransactionManager::RestoreDurableState(uint64_t commit_count,
                                             uint64_t next_txn_id) {
  commit_count_.store(commit_count, std::memory_order_relaxed);
  uint64_t cur = next_txn_id_.load(std::memory_order_relaxed);
  if (cur < next_txn_id) {
    next_txn_id_.store(next_txn_id, std::memory_order_relaxed);
  }
  // The watermark tracks the newest fully applied commit; after a replay
  // that is wherever the oracle got advanced to.
  const mvcc::Timestamp current = oracle_.Current();
  mvcc::Timestamp seen = visible_ts_.load(std::memory_order_relaxed);
  if (seen < current) {
    visible_ts_.store(current, std::memory_order_release);
  }
}

TxnStats TransactionManager::stats() const {
  TxnStats s;
  s.commits = commit_count_.load(std::memory_order_relaxed);
  s.aborts_ww = aborts_ww_.load(std::memory_order_relaxed);
  s.aborts_validation = aborts_validation_.load(std::memory_order_relaxed);
  s.user_aborts = user_aborts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace anker::txn
