#ifndef ANKER_SNAPSHOT_SNAPSHOTABLE_BUFFER_H_
#define ANKER_SNAPSHOT_SNAPSHOTABLE_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"

namespace anker::snapshot {

/// A read-only, point-in-time view of a SnapshotableBuffer. The view stays
/// valid and immutable while the source buffer keeps being written; OLAP
/// scans run over data() in a tight loop. Destroying the view releases the
/// snapshot (its private pages / mappings).
class SnapshotView {
 public:
  virtual ~SnapshotView() = default;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Convenience typed read at a byte offset.
  uint64_t ReadU64(size_t offset) const {
    uint64_t v;
    __builtin_memcpy(&v, data_ + offset, sizeof(v));
    return v;
  }

 protected:
  SnapshotView(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_;
  size_t size_;
};

/// Statistics about a buffer's snapshotting behaviour, reported by benches.
struct BufferStats {
  size_t snapshots_taken = 0;
  size_t cow_faults = 0;        ///< Manual COW events (rewired backend).
  /// Pages first written between two snapshots (vm_snapshot).
  size_t dirty_pages_flushed = 0;
  /// Page copies forced into live views by a first write (vm_snapshot):
  /// one per live view per first-written page.
  size_t forced_cow_pages = 0;
  size_t pool_pages = 0;        ///< Pool pages allocated (rewired backend).
  /// Total time writing dirty data back at snapshot time. Stays 0: no
  /// backend writes back (vm_snapshot's OLTP view maps its file shared).
  int64_t flush_nanos = 0;
  /// Total time creating snapshot mappings (vm_snapshot: the mmap, the
  /// populate and the OLTP-view zap).
  int64_t map_nanos = 0;
};

/// Abstract column-memory buffer with point-in-time snapshot support. The
/// concrete backend decides how snapshots are made:
///   PlainBuffer      - no snapshots (homogeneous configurations)
///   PhysicalBuffer   - eager memcpy                      [paper baseline]
///   RewiredBuffer    - memfd rewiring + SIGSEGV manual COW [paper baseline]
///   VmSnapshotBuffer - emulated vm_snapshot system call  [paper's system]
///
/// Write contract: all mutation must go through StoreU64/WriteSpan (or be
/// preceded by MarkDirty) so backends that track dirtiness see every
/// write. MarkDirty may run on several threads at once and returns only
/// once the range is safe to store into; the engine calls it ahead of the
/// commit mutex (Column::PrepareWrite) so a snapshot's page copies are
/// paid outside the critical section. Stores must be serialized by the
/// caller (the engine stores under its commit mutex), and no MarkDirty or
/// store may overlap TakeSnapshot (the engine holds the column latch
/// shared across both, and exclusive to snapshot). Concurrent readers of
/// the current view are allowed.
class SnapshotableBuffer {
 public:
  virtual ~SnapshotableBuffer() = default;
  ANKER_DISALLOW_COPY_AND_MOVE(SnapshotableBuffer);

  /// Up-to-date, writable representation (the "OLTP view").
  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Atomic 8-byte read of the current representation. Safe against a
  /// concurrent StoreU64 to the same slot.
  uint64_t LoadU64(size_t offset) const {
    return __atomic_load_n(reinterpret_cast<uint64_t*>(data_ + offset),
                           __ATOMIC_ACQUIRE);
  }

  /// Atomic 8-byte write with dirty tracking.
  void StoreU64(size_t offset, uint64_t value) {
    MarkDirty(offset, sizeof(value));
    __atomic_store_n(reinterpret_cast<uint64_t*>(data_ + offset), value,
                     __ATOMIC_RELEASE);
  }

  /// Bulk write with dirty tracking (used by loaders).
  void WriteSpan(size_t offset, const void* src, size_t len) {
    MarkDirty(offset, len);
    __builtin_memcpy(data_ + offset, src, len);
  }

  /// Records that [offset, offset+len) was (or is about to be) modified.
  /// Backends that track dirtiness override this; the default is a no-op.
  virtual void MarkDirty(size_t /*offset*/, size_t /*len*/) {}

  /// Releases the physical memory behind [offset, offset+len) — the cold
  /// tier evicts a segment's slots after publishing them to an extent.
  /// After a successful release the range's contents are unspecified
  /// (typically zeros) and must be rewritten via WriteSpan before being
  /// read again; the caller's residency state machine enforces that.
  /// `offset` must be page aligned; `len` is rounded up to whole pages
  /// internally, and the caller guarantees no live data shares the
  /// rounded tail page. The default keeps the pages mapped and returns
  /// OK — always correct (the range merely stays physically resident),
  /// used by backends whose pages may be aliased by live snapshots.
  virtual Status ReleaseRange(size_t /*offset*/, size_t /*len*/) {
    return Status::OK();
  }

  /// Creates a point-in-time snapshot of the current contents.
  virtual Result<std::unique_ptr<SnapshotView>> TakeSnapshot() = 0;

  /// Backend name for bench output, e.g. "vm_snapshot".
  virtual const char* name() const = 0;

  virtual BufferStats stats() const { return BufferStats{}; }

 protected:
  SnapshotableBuffer() = default;

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Backend selector used by engine configuration and benches.
enum class BufferBackend {
  kPlain,
  kPhysical,
  kRewired,
  kVmSnapshot,
};

/// Factory: creates and initializes a zeroed buffer of `size` bytes
/// (rounded up to whole pages) using the requested backend.
Result<std::unique_ptr<SnapshotableBuffer>> CreateBuffer(BufferBackend backend,
                                                         size_t size);

/// Parses a backend name ("plain", "physical", "rewired", "vm_snapshot").
Result<BufferBackend> ParseBufferBackend(const std::string& name);

/// Human-readable backend name.
const char* BufferBackendName(BufferBackend backend);

}  // namespace anker::snapshot

#endif  // ANKER_SNAPSHOT_SNAPSHOTABLE_BUFFER_H_
