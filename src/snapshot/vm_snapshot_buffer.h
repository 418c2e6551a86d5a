#ifndef ANKER_SNAPSHOT_VM_SNAPSHOT_BUFFER_H_
#define ANKER_SNAPSHOT_VM_SNAPSHOT_BUFFER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/bitmap.h"
#include "snapshot/snapshotable_buffer.h"
#include "vm/map_region.h"
#include "vm/memfd.h"

namespace anker::snapshot {

class VmSnapshotView;

/// User-space emulation of the paper's custom `vm_snapshot` system call
/// (Section 4). The real call duplicates VMAs and PTEs inside the kernel so
/// that source and snapshot share physical pages with OS-handled COW.
///
/// Emulation scheme (see docs/ARCHITECTURE.md §2):
///  - The column's current content lives in a memfd. The writable (OLTP)
///    view is ONE MAP_SHARED mapping of it, so the file is always current
///    and a snapshot has nothing to write back.
///  - TakeSnapshot() maps ONE read-write MAP_PRIVATE view of the file and
///    prefaults its PTEs with MADV_POPULATE_READ (the state the real call
///    leaves behind after copying the PTEs). No data is copied.
///  - MarkDirty runs before every store and is the copy-on-write hook: on
///    the first write to a page since the last snapshot it stores one word
///    of that page onto itself in every live view, so the OS copies the
///    page into each view before the shared file page changes. Concurrent
///    callers are allowed (committers pre-touch their rows outside the
///    engine's commit mutex): the page's dirty bit is published only after
///    every copy, and a caller that sees it set skips straight to its
///    store. Stores themselves stay serialized by the caller.
///  - Each snapshot also drops the OLTP view's PTEs over the pages not
///    written since the previous snapshot (MADV_DONTNEED on a shared
///    mapping frees no data), so a column OLTP only reads is not mapped
///    by the OLTP view and by every snapshot view at once.
///    Cost: one mmap, one populate and the zap — independent of the
///    buffer's write history, which keeps Figure 5a flat for vm_snapshot
///    while rewiring degrades with VMA count.
///
/// Like the real system call, the snapshot can also be materialized into a
/// previously returned view's virtual memory area ("recycling",
/// Section 4.1.3) via TakeSnapshotInto.
class VmSnapshotBuffer : public SnapshotableBuffer {
 public:
  static Result<std::unique_ptr<VmSnapshotBuffer>> Create(size_t size);
  ~VmSnapshotBuffer() override;

  void MarkDirty(size_t offset, size_t len) override;

  /// Punches the range out of the backing memfd (the content becomes
  /// zeros). Refuses (returns OK without releasing) while snapshot views
  /// are live: their uncopied pages alias the file's. Caller holds the
  /// column latch exclusively, which also excludes TakeSnapshot and all
  /// writers.
  Status ReleaseRange(size_t offset, size_t len) override;

  Result<std::unique_ptr<SnapshotView>> TakeSnapshot() override;

  /// Re-materializes the snapshot into `recycled`'s existing virtual memory
  /// area instead of allocating a new one (vm_snapshot's dst_addr form).
  Status TakeSnapshotInto(VmSnapshotView* recycled);

  const char* name() const override { return "vm_snapshot"; }

  BufferStats stats() const override;

  /// Pages first written since the last snapshot (already copied into
  /// every live view).
  size_t DirtyPageCount() const;

  /// Number of live snapshot views (for tests).
  size_t LiveViewCount() const;

 private:
  friend class VmSnapshotView;

  VmSnapshotBuffer() = default;
  Status Init(size_t size);

  /// Drops the OLTP view's PTEs over the pages not written since the
  /// previous snapshot.
  Status ZapCleanPages();

  /// Registers `new_view` (nullptr when recycling a registered one),
  /// starts a new dirty epoch and accounts the snapshot.
  void StartEpoch(VmSnapshotView* new_view, int64_t map_nanos);

  void UnregisterView(VmSnapshotView* view);

  vm::Memfd file_;
  vm::MapRegion oltp_view_;
  size_t num_pages_ = 0;
  /// Pages first written since the last snapshot (already copied into
  /// every live view). Set under views_mutex_, tested lock-free by
  /// MarkDirty's fast path, reset at TakeSnapshot with writers drained.
  Bitmap dirty_;

  /// Guards the view list, the dirty bitmap's setters and the counters
  /// below (stats() reads them from other threads).
  mutable std::mutex views_mutex_;
  std::vector<VmSnapshotView*> live_views_;

  size_t snapshots_taken_ = 0;
  size_t dirty_pages_flushed_ = 0;
  size_t forced_cow_pages_ = 0;
  int64_t map_nanos_ = 0;
};

/// Snapshot view produced by VmSnapshotBuffer. Unregisters itself from the
/// buffer on destruction; the buffer must outlive its views.
class VmSnapshotView : public SnapshotView {
 public:
  ~VmSnapshotView() override;

 private:
  friend class VmSnapshotBuffer;

  VmSnapshotView(VmSnapshotBuffer* buffer, vm::MapRegion region)
      : SnapshotView(region.data(), region.size()),
        buffer_(buffer),
        region_(std::move(region)) {}

  /// Makes the OS copy `page` into this view (a no-op once the view holds
  /// a private copy), so the view keeps its content when the shared file
  /// page is overwritten.
  void CopyPage(size_t page);

  VmSnapshotBuffer* buffer_;
  vm::MapRegion region_;
};

}  // namespace anker::snapshot

#endif  // ANKER_SNAPSHOT_VM_SNAPSHOT_BUFFER_H_
