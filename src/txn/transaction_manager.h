#ifndef ANKER_TXN_TRANSACTION_MANAGER_H_
#define ANKER_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/active_txn_registry.h"
#include "mvcc/intent_table.h"
#include "mvcc/timestamp_oracle.h"
#include "txn/recent_committers.h"
#include "txn/transaction.h"

namespace anker::txn {

/// Processing model of the engine (paper Section 5.1's three
/// configurations).
enum class ProcessingMode {
  /// Single component, OLAP scans the live versioned data, commit-time
  /// read-set validation, background GC.
  kHomogeneousSerializable,
  /// Same, but without validation (write-write conflicts only).
  kHomogeneousSnapshotIsolation,
  /// OLTP on the up-to-date representation, OLAP on virtual snapshots,
  /// full serializability.
  kHeterogeneousSerializable,
};

const char* ProcessingModeName(ProcessingMode mode);

/// Counters exposed to benches and tests.
struct TxnStats {
  uint64_t commits = 0;
  uint64_t aborts_ww = 0;          ///< First-committer-wins conflicts.
  uint64_t aborts_validation = 0;  ///< Precision-locking read-set failures.
  uint64_t user_aborts = 0;
};

/// MVCC transaction coordinator. Begin hands out start timestamps; Commit
/// runs the (partially sequential, mutex-protected) commit protocol:
///   0. before the mutex, latch the written columns shared and pay each
///      write's first-touch work (Column::PrepareWrite: the page copy into
///      live snapshot views, the version-chain block),
///   1. first-committer-wins write-write check,
///   2. precision-locking read-set validation (serializable modes),
///   3. draw commit_ts, materialize writes in place + push old values
///      into version chains,
///   4. append the redo record and the write set to the recent-committers
///      list.
/// Every path that applies writes takes the same lock order: column
/// latches, then commit_mutex_. Aborts are cheap: local writes are simply
/// discarded.
class TransactionManager {
 public:
  explicit TransactionManager(ProcessingMode mode);
  ANKER_DISALLOW_COPY_AND_MOVE(TransactionManager);

  ProcessingMode mode() const { return mode_; }
  IsolationLevel isolation() const {
    return mode_ == ProcessingMode::kHomogeneousSnapshotIsolation
               ? IsolationLevel::kSnapshotIsolation
               : IsolationLevel::kSerializable;
  }

  /// Starts a transaction of the given type.
  std::unique_ptr<Transaction> Begin(TxnType type);

  /// Commits: returns OK, or kAborted (local writes discarded, transaction
  /// finished either way — the caller may retry with a fresh Begin).
  Status Commit(Transaction* txn);

  /// Explicit abort (paper Fig. 1 step 3: discard local changes, no
  /// rollback).
  void Abort(Transaction* txn);

  /// Hook invoked (inside the commit section) with the running commit
  /// count by every path that materializes a commit, replayed ones
  /// included; the engine uses it to trigger snapshot epochs every n
  /// commits.
  /// It must not block on anything that can wait for a column latch: the
  /// committers queued behind it hold theirs.
  void SetCommitHook(std::function<void(uint64_t commits)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Durability integration (engine-installed when a WAL is configured).
  /// `sink` runs inside the commit critical section after the write set
  /// materialized: it serializes the redo record and returns its log
  /// sequence number — appends therefore happen in commit-timestamp
  /// order, which recovery replay depends on. `wait` runs after the
  /// critical section (so one commit's fsync never blocks the next
  /// committer) and returns only when the record is durable; under
  /// group_commit the commit acknowledgement is deferred on it, under
  /// lazy it is a no-op. A failed wait turns the commit Status into the
  /// IO error — the write set is already applied in memory, but the
  /// caller must not treat the transaction as durably committed.
  using DurabilitySink = std::function<uint64_t(
      mvcc::Timestamp commit_ts, const std::vector<mvcc::SlotWrite>& writes)>;
  using DurabilityWait = std::function<Status(uint64_t lsn)>;
  /// `max_writes` bounds one transaction's loggable write set (the WAL
  /// caps record sizes); an oversized transaction is rejected with a
  /// Status before the commit protocol starts, instead of aborting the
  /// process inside the critical section.
  void SetDurabilityHooks(DurabilitySink sink, DurabilityWait wait,
                          size_t max_writes = SIZE_MAX) {
    durability_sink_ = std::move(sink);
    durability_wait_ = std::move(wait);
    max_durable_writes_ = max_writes;
  }

  /// Recovery and replica path: re-applies one logged commit through the
  /// apply step every commit shares (latches, version-chain pushes,
  /// visibility watermark, commit count and hook) with its *original*
  /// commit timestamp. No validation, no re-logging — the record already
  /// survived a crash once.
  void ReplayCommitted(const std::vector<mvcc::SlotWrite>& writes,
                       mvcc::Timestamp commit_ts);

  // --- Cross-shard two-phase commit (docs/SERVER.md "2PC surface") ------
  //
  // The router coordinates: PREPARE_TXN stages a write set as intents,
  // COMMIT_PREPARED materializes it, ABORT_PREPARED discards it, and
  // RESOLVE_INTENT asks the primary shard what happened. Writes are
  // applied at a LOCALLY drawn apply_ts >= the router's global commit_ts
  // (HLC metadata): every checkpoint/replay/GC invariant is then
  // identical to a normal commit's, and cross-shard atomicity comes from
  // the intents gating readers, not from equal timestamps.

  /// Durability sinks for the three 2PC record types, engine-installed
  /// alongside the commit sink (same in-critical-section contract).
  using PrepareSink = std::function<uint64_t(const mvcc::PreparedTxn& txn)>;
  using CommitPreparedSink = std::function<uint64_t(
      uint64_t gtid, mvcc::Timestamp commit_ts, mvcc::Timestamp apply_ts,
      const std::vector<mvcc::SlotWrite>& writes)>;
  using AbortPreparedSink =
      std::function<uint64_t(uint64_t gtid, mvcc::Timestamp abort_ts)>;
  void SetDistributedHooks(PrepareSink prepare, CommitPreparedSink commit,
                           AbortPreparedSink abort) {
    prepare_sink_ = std::move(prepare);
    commit_prepared_sink_ = std::move(commit);
    abort_prepared_sink_ = std::move(abort);
  }

  /// Phase one: stages `writes` as intents under this shard's commit
  /// mutex, draws a local prepare timestamp, and logs a kPrepare record.
  /// kResourceBusy on an intent conflict, kAborted if the gtid was
  /// already resolved as aborted (zombie fencing). On OK the staged rows
  /// are locked until the outcome arrives.
  Status PrepareDistributed(uint64_t gtid, uint32_t primary_shard,
                            const std::vector<mvcc::SlotWrite>& writes,
                            mvcc::Timestamp* prepare_ts,
                            uint64_t* durable_lsn);

  /// Phase two, commit: materializes the staged writes at a fresh local
  /// apply_ts >= commit_ts and records the outcome. Idempotent — a
  /// duplicate returns OK with *durable_lsn = 0. kAborted if the
  /// transaction was resolved as aborted, kNotFound for an unknown gtid.
  Status CommitPrepared(uint64_t gtid, mvcc::Timestamp commit_ts,
                        uint64_t* durable_lsn);

  /// Phase two, abort: discards the staged writes. Aborting an unknown
  /// gtid records a durable aborted tombstone (fences zombie prepares);
  /// aborting a committed gtid is kInvalidArgument; duplicates are OK.
  Status AbortPrepared(uint64_t gtid, uint64_t* durable_lsn);

  /// Outcome query serving RESOLVE_INTENT at the primary. For a pending
  /// transaction, `abort_pending` escalates: the caller (a reader whose
  /// router died) aborts it durably rather than waiting forever. An
  /// unknown gtid resolves as aborted (and leaves a durable tombstone) —
  /// its prepare never reached this shard, so it cannot have committed.
  Status ResolveOutcome(uint64_t gtid, bool abort_pending,
                        mvcc::TxnOutcome* outcome,
                        mvcc::Timestamp* commit_ts);

  /// Recovery twins (no logging, idempotent, ledger-aware). An empty
  /// `writes` in ReplayCommitPrepared records the outcome only: the
  /// checkpoint image already holds the writes.
  void ReplayPrepare(mvcc::PreparedTxn txn);
  void ReplayCommitPrepared(uint64_t gtid, mvcc::Timestamp commit_ts,
                            mvcc::Timestamp apply_ts,
                            const std::vector<mvcc::SlotWrite>& writes);
  void ReplayAbortPrepared(uint64_t gtid, mvcc::Timestamp abort_ts);

  /// Intent table (reader-side lookups, checkpoint snapshot/restore).
  mvcc::IntentTable& intents() { return intents_; }
  const mvcc::IntentTable& intents() const { return intents_; }

  /// Restores the counters a checkpoint manifest carries, so a recovered
  /// engine continues the pre-crash numbering (snapshot-epoch cadence,
  /// txn ids) instead of restarting from zero.
  void RestoreDurableState(uint64_t commit_count, uint64_t next_txn_id);

  mvcc::TimestampOracle& oracle() { return oracle_; }
  mvcc::ActiveTxnRegistry& registry() { return registry_; }

  TxnStats stats() const;
  uint64_t committed_count() const {
    return commit_count_.load(std::memory_order_relaxed);
  }
  uint64_t next_txn_id() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }

 private:
  class WriteSetLatches;

  /// The apply step of every commit path. The caller holds `latches` over
  /// `writes` and commit_mutex_. Materializes each write at commit_ts
  /// (appending its WriteRecord to `records` unless null), drops the
  /// latches and publishes commit_ts to new readers.
  void ApplyAndPublish(const std::vector<mvcc::SlotWrite>& writes,
                       mvcc::Timestamp commit_ts, WriteSetLatches* latches,
                       std::vector<WriteRecord>* records);

  /// Counts one materialized commit and runs the commit hook; the caller
  /// holds commit_mutex_.
  void FinishCommit();

  ProcessingMode mode_;
  mvcc::TimestampOracle oracle_;
  mvcc::ActiveTxnRegistry registry_;

  /// Read-visibility watermark: the newest commit timestamp whose writes
  /// are all materialized. Begin() stamps transactions here (see the
  /// comment there); bumped at the end of the commit critical section.
  std::atomic<mvcc::Timestamp> visible_ts_{0};

  /// The paper's "list of recently committed transactions, that must be
  /// mutex protected ... to organize validation" — the commit mutex.
  std::mutex commit_mutex_;
  RecentCommitters recent_;

  std::function<void(uint64_t)> commit_hook_;
  DurabilitySink durability_sink_;
  DurabilityWait durability_wait_;
  size_t max_durable_writes_ = SIZE_MAX;

  mvcc::IntentTable intents_;
  PrepareSink prepare_sink_;
  CommitPreparedSink commit_prepared_sink_;
  AbortPreparedSink abort_prepared_sink_;

  /// Shared by AbortPrepared / ResolveOutcome / zombie fencing: discards
  /// pending intents (if any), logs kAbortPrepared, records the aborted
  /// outcome. Caller holds commit_mutex_.
  uint64_t AbortPreparedLocked(uint64_t gtid);

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> commit_count_{0};
  std::atomic<uint64_t> aborts_ww_{0};
  std::atomic<uint64_t> aborts_validation_{0};
  std::atomic<uint64_t> user_aborts_{0};
};

}  // namespace anker::txn

#endif  // ANKER_TXN_TRANSACTION_MANAGER_H_
