#include "txn/transaction.h"

namespace anker::txn {

uint64_t Transaction::Read(const storage::Column* column, uint64_t row) {
  // Read-your-own-writes: the local write set wins over the database.
  auto it = write_lookup_.find(mvcc::SlotKey{column, row});
  if (it != write_lookup_.end()) return writes_[it->second].new_raw;
  point_reads_.push_back(PointRead{column, row});
  return column->ReadVisibleRaw(row, start_ts_);
}

void Transaction::Write(storage::Column* column, uint64_t row,
                        uint64_t new_raw) {
  const mvcc::SlotKey key{column, row};
  auto it = write_lookup_.find(key);
  if (it != write_lookup_.end()) {
    writes_[it->second].new_raw = new_raw;
    return;
  }
  write_lookup_.emplace(key, writes_.size());
  writes_.push_back(mvcc::SlotWrite{column, row, new_raw});
}

void Transaction::AddPredicate(const storage::Column* column, uint64_t lo,
                               uint64_t hi) {
  predicates_.push_back(PredicateRange{column, lo, hi});
}

}  // namespace anker::txn
