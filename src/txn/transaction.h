#ifndef ANKER_TXN_TRANSACTION_H_
#define ANKER_TXN_TRANSACTION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "mvcc/slot_write.h"
#include "mvcc/timestamp_oracle.h"
#include "txn/predicate.h"

namespace anker::txn {

/// Isolation level of a configuration (paper Section 5.1).
enum class IsolationLevel {
  kSnapshotIsolation,
  kSerializable,
};

/// Transaction classification in the heterogeneous model.
enum class TxnType {
  kOltp,  ///< Short, modifying; runs on the up-to-date representation.
  kOlap,  ///< Long, read-only; runs on a snapshot (heterogeneous mode).
};

/// A transaction's private state: local (uncommitted) writes, read set and
/// predicate set for validation. Writes stay local until commit — aborts
/// simply discard them, no rollback needed (paper Fig. 1, step 3).
class Transaction {
 public:
  Transaction(uint64_t id, mvcc::Timestamp start_ts, uint64_t registry_serial,
              TxnType type)
      : id_(id),
        start_ts_(start_ts),
        registry_serial_(registry_serial),
        type_(type) {}
  ANKER_DISALLOW_COPY_AND_MOVE(Transaction);

  uint64_t id() const { return id_; }
  mvcc::Timestamp start_ts() const { return start_ts_; }
  uint64_t registry_serial() const { return registry_serial_; }
  TxnType type() const { return type_; }

  /// Read of `row` in `column` as of start_ts, seeing the transaction's
  /// own uncommitted writes first. Records the row in the read set.
  uint64_t Read(const storage::Column* column, uint64_t row);

  /// Buffers a write locally (invisible to others until commit). A second
  /// write to the same slot overwrites the first.
  void Write(storage::Column* column, uint64_t row, uint64_t new_raw);

  /// Records a predicate range the transaction filtered on (scans).
  void AddPredicate(const storage::Column* column, uint64_t lo, uint64_t hi);

  bool read_only() const { return writes_.empty(); }

  // Accessors for the transaction manager's commit protocol.
  const std::vector<mvcc::SlotWrite>& writes() const { return writes_; }
  const std::vector<PointRead>& point_reads() const { return point_reads_; }
  const std::vector<PredicateRange>& predicates() const { return predicates_; }

  /// WAL LSN of this transaction's commit record, set by the commit
  /// protocol once the record is appended (0 for read-only transactions
  /// or when durability is off). Clients use it as a read-your-writes
  /// token against replica applied watermarks.
  uint64_t durable_lsn() const { return durable_lsn_; }
  void set_durable_lsn(uint64_t lsn) { durable_lsn_ = lsn; }

 private:
  uint64_t id_;
  mvcc::Timestamp start_ts_;
  uint64_t registry_serial_;
  TxnType type_;
  uint64_t durable_lsn_ = 0;

  std::vector<mvcc::SlotWrite> writes_;
  std::unordered_map<mvcc::SlotKey, size_t, mvcc::SlotKeyHash> write_lookup_;
  std::vector<PointRead> point_reads_;
  std::vector<PredicateRange> predicates_;
};

}  // namespace anker::txn

#endif  // ANKER_TXN_TRANSACTION_H_
