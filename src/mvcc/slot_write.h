#ifndef ANKER_MVCC_SLOT_WRITE_H_
#define ANKER_MVCC_SLOT_WRITE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace anker::storage {
class Column;
}  // namespace anker::storage

namespace anker::mvcc {

/// One write to a column slot: a transaction's buffered write, a prepared
/// transaction's staged intent and a replayed redo write alike. Every path
/// that materializes a commit applies a vector of these.
struct SlotWrite {
  storage::Column* column = nullptr;
  uint64_t row = 0;
  uint64_t new_raw = 0;
};

/// Hash-map key of one (column, row) slot.
struct SlotKey {
  const void* column;
  uint64_t row;
  bool operator==(const SlotKey& other) const {
    return column == other.column && row == other.row;
  }
};

struct SlotKeyHash {
  size_t operator()(const SlotKey& key) const {
    return std::hash<const void*>()(key.column) ^
           std::hash<uint64_t>()(key.row * 0x9E3779B97F4A7C15ULL);
  }
};

}  // namespace anker::mvcc

#endif  // ANKER_MVCC_SLOT_WRITE_H_
