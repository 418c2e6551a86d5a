#ifndef ANKER_MVCC_INTENT_TABLE_H_
#define ANKER_MVCC_INTENT_TABLE_H_

// Write intents for cross-shard two-phase commit (ROADMAP item 2, the
// Percolator-style lock/intent/committed split). A prepared distributed
// transaction stages its write set here — locked and INVISIBLE — instead
// of in the version chains: chains keep holding committed data only, so
// every scan/GC/checkpoint invariant of the single-node engine survives
// unchanged. An intent pins its slots until the transaction's outcome
// (decided at the primary shard) commits or aborts it; readers that hit a
// foreign intent are bounced to the primary for resolution instead of
// guessing (docs/SERVER.md, "2PC surface").
//
// A bounded outcome ledger remembers decided gtids so that (a) a
// duplicate COMMIT_PREPARED / ABORT_PREPARED is idempotent and (b) a
// zombie PREPARE_TXN arriving after its transaction was resolved-as-
// aborted is fenced off instead of re-locking rows forever.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/slot_write.h"
#include "mvcc/timestamp_oracle.h"

namespace anker::mvcc {

/// Outcome of a distributed transaction as this shard knows it.
enum class TxnOutcome : uint8_t {
  kPending = 0,
  kCommitted = 1,
  kAborted = 2,
};

/// What a reader learns when it hits an intent: whose it is and where the
/// outcome will be decided.
struct IntentInfo {
  uint64_t gtid = 0;
  uint32_t primary_shard = 0;
  Timestamp prepare_ts = 0;
};

/// A prepared (phase-one complete, outcome unknown) transaction.
struct PreparedTxn {
  uint64_t gtid = 0;
  uint32_t primary_shard = 0;
  Timestamp start_ts = 0;
  Timestamp prepare_ts = 0;
  std::vector<SlotWrite> writes;
};

class IntentTable {
 public:
  IntentTable() = default;
  ANKER_DISALLOW_COPY_AND_MOVE(IntentTable);

  /// Stages `txn`'s writes as intents. kResourceBusy if any slot already
  /// carries an intent of a DIFFERENT transaction; kAborted if the gtid
  /// was already resolved as aborted (zombie prepare after a reader-
  /// driven abort); kInvalidArgument if already committed. Re-preparing a
  /// still-pending gtid is idempotent (returns OK without re-staging).
  Status Place(PreparedTxn txn);

  /// Intent covering (column, row), if any. Lock-free when no distributed
  /// transaction is in flight — the common case for every point read.
  bool Lookup(const storage::Column* column, uint64_t row,
              IntentInfo* info) const;

  /// Pending transaction by gtid (copies the staged write set).
  bool Get(uint64_t gtid, PreparedTxn* out) const;

  /// Unstages a pending transaction, handing back its write set. False if
  /// the gtid has no pending entry.
  bool Remove(uint64_t gtid, PreparedTxn* out);

  /// Records a decided outcome (idempotent; first decision wins). The
  /// ledger is FIFO-bounded — old entries eventually fall out, by which
  /// time no zombie of that transaction can still be wandering.
  void RecordOutcome(uint64_t gtid, TxnOutcome outcome, Timestamp commit_ts);

  /// Ledger lookup: kPending when the gtid is unknown or still staged.
  TxnOutcome OutcomeOf(uint64_t gtid, Timestamp* commit_ts) const;

  /// Number of prepared-but-undecided transactions.
  size_t PendingCount() const;

  /// Checkpoint support: consistent copies of both maps.
  std::vector<PreparedTxn> SnapshotPending() const;
  struct OutcomeEntry {
    uint64_t gtid;
    TxnOutcome outcome;
    Timestamp commit_ts;
  };
  std::vector<OutcomeEntry> SnapshotOutcomes() const;

  /// Ledger capacity before FIFO eviction (large enough that a decided
  /// gtid outlives any plausible zombie or duplicate of itself).
  static constexpr size_t kMaxOutcomes = 65536;

 private:
  struct Outcome {
    TxnOutcome outcome;
    Timestamp commit_ts;
  };

  void RecordOutcomeLocked(uint64_t gtid, TxnOutcome outcome,
                           Timestamp commit_ts);

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, PreparedTxn> pending_;
  std::unordered_map<SlotKey, uint64_t, SlotKeyHash> slots_;  ///< slot->gtid
  std::unordered_map<uint64_t, Outcome> outcomes_;
  std::deque<uint64_t> outcome_fifo_;

  /// Fast path for readers: staged slot count. Zero (the steady state of
  /// a shard with no 2PC in flight) lets Lookup return without touching
  /// the mutex.
  std::atomic<size_t> intent_count_{0};
};

}  // namespace anker::mvcc

#endif  // ANKER_MVCC_INTENT_TABLE_H_
