#include "snapshot/vm_snapshot_buffer.h"

#include <sys/mman.h>

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"
#include "vm/page.h"

namespace anker::snapshot {

using vm::kPageSize;

Result<std::unique_ptr<VmSnapshotBuffer>> VmSnapshotBuffer::Create(
    size_t size) {
  std::unique_ptr<VmSnapshotBuffer> buffer(new VmSnapshotBuffer());
  ANKER_RETURN_IF_ERROR(buffer->Init(vm::RoundUpToPage(size)));
  return buffer;
}

Status VmSnapshotBuffer::Init(size_t size) {
  auto file = vm::Memfd::Create("anker-vm-snapshot", size);
  if (!file.ok()) return file.status();
  file_ = file.TakeValue();
  num_pages_ = vm::PageCount(size);
  dirty_.Resize(num_pages_);
  auto view = vm::MapRegion::MapSharedFile(file_.fd(), size, /*offset=*/0,
                                           PROT_READ | PROT_WRITE);
  if (!view.ok()) return view.status();
  oltp_view_ = view.TakeValue();
  data_ = oltp_view_.data();
  size_ = oltp_view_.size();
  return Status::OK();
}

VmSnapshotBuffer::~VmSnapshotBuffer() {
  std::lock_guard<std::mutex> guard(views_mutex_);
  ANKER_CHECK_MSG(live_views_.empty(),
                  "VmSnapshotBuffer destroyed before its snapshot views");
}

void VmSnapshotBuffer::MarkDirty(size_t offset, size_t len) {
  if (len == 0) return;
  ANKER_CHECK(offset + len <= size_);
  size_t page = vm::PageIndex(offset);
  const size_t last = vm::PageIndex(offset + len - 1);
  // Fast path: every page was already copied into the live views by an
  // earlier write of this epoch. The acquire test pairs with the release
  // set below, so a caller that sees the bit stores only after the
  // copies it stands for have landed.
  while (page <= last && dirty_.TestAcquire(page)) ++page;
  if (page > last) return;
  std::lock_guard<std::mutex> guard(views_mutex_);
  for (; page <= last; ++page) {
    if (dirty_.Test(page)) continue;
    for (VmSnapshotView* view : live_views_) view->CopyPage(page);
    forced_cow_pages_ += live_views_.size();
    // Published only after every live view holds its copy: a concurrent
    // caller that saw the bit any earlier could store into the shared
    // page before the copy and corrupt the snapshot.
    dirty_.SetRelease(page);
  }
}

Status VmSnapshotBuffer::ReleaseRange(size_t offset, size_t len) {
  if (len == 0) return Status::OK();
  ANKER_CHECK(vm::IsPageAligned(offset));
  const size_t rlen = vm::RoundUpToPage(len);
  ANKER_CHECK(offset + rlen <= size_);
  {
    std::lock_guard<std::mutex> guard(views_mutex_);
    // Live snapshot views alias the file's pages; punching them would
    // change data under a snapshot. Stay resident — still correct, the
    // release simply frees nothing this round.
    if (!live_views_.empty()) return Status::OK();
  }
  // The punch also unmaps the range from the shared OLTP view.
  return file_.PunchHole(static_cast<off_t>(offset), rlen);
}

Status VmSnapshotBuffer::ZapCleanPages() {
  for (size_t page = 0; page < num_pages_;) {
    if (dirty_.Test(page)) {
      ++page;
      continue;
    }
    size_t end = page + 1;
    while (end < num_pages_ && !dirty_.Test(end)) ++end;
    ANKER_RETURN_IF_ERROR(
        oltp_view_.DontNeed(page * kPageSize, (end - page) * kPageSize));
    page = end;
  }
  return Status::OK();
}

void VmSnapshotBuffer::StartEpoch(VmSnapshotView* new_view,
                                  int64_t map_nanos) {
  std::lock_guard<std::mutex> guard(views_mutex_);
  if (new_view != nullptr) live_views_.push_back(new_view);
  ++snapshots_taken_;
  dirty_pages_flushed_ += dirty_.count();
  dirty_.Reset();
  map_nanos_ += map_nanos;
}

Result<std::unique_ptr<SnapshotView>> VmSnapshotBuffer::TakeSnapshot() {
  // The emulated system call: one mmap creates the COW-isolated duplicate
  // of the whole area, and the populate fills its PTEs with the file's
  // (current) pages. Nothing is copied until the next first write.
  Timer map_timer;
  auto region = vm::MapRegion::MapPrivateFile(file_.fd(), size_, /*offset=*/0,
                                              PROT_READ | PROT_WRITE);
  if (!region.ok()) return region.status();
  ANKER_RETURN_IF_ERROR(region.value().PopulateRead());
  ANKER_RETURN_IF_ERROR(ZapCleanPages());
  auto* view = new VmSnapshotView(this, region.TakeValue());
  StartEpoch(view, map_timer.ElapsedNanos());
  return std::unique_ptr<SnapshotView>(view);
}

Status VmSnapshotBuffer::TakeSnapshotInto(VmSnapshotView* recycled) {
  ANKER_CHECK(recycled != nullptr && recycled->buffer_ == this);
  // Recycle the existing virtual memory area (vm_snapshot's dst_addr form):
  // a MAP_FIXED private mapping replaces the old snapshot in place.
  Timer map_timer;
  ANKER_RETURN_IF_ERROR(vm::MapRegion::MapFixedPrivate(
      recycled->region_.data(), file_.fd(), size_, /*offset=*/0,
      PROT_READ | PROT_WRITE));
  ANKER_RETURN_IF_ERROR(recycled->region_.PopulateRead());
  ANKER_RETURN_IF_ERROR(ZapCleanPages());
  StartEpoch(/*new_view=*/nullptr, map_timer.ElapsedNanos());
  return Status::OK();
}

void VmSnapshotBuffer::UnregisterView(VmSnapshotView* view) {
  std::lock_guard<std::mutex> guard(views_mutex_);
  auto it = std::find(live_views_.begin(), live_views_.end(), view);
  ANKER_CHECK(it != live_views_.end());
  live_views_.erase(it);
}

size_t VmSnapshotBuffer::DirtyPageCount() const {
  std::lock_guard<std::mutex> guard(views_mutex_);
  return dirty_.count();
}

size_t VmSnapshotBuffer::LiveViewCount() const {
  std::lock_guard<std::mutex> guard(views_mutex_);
  return live_views_.size();
}

BufferStats VmSnapshotBuffer::stats() const {
  std::lock_guard<std::mutex> guard(views_mutex_);
  BufferStats s;
  s.snapshots_taken = snapshots_taken_;
  s.dirty_pages_flushed = dirty_pages_flushed_;
  s.forced_cow_pages = forced_cow_pages_;
  s.map_nanos = map_nanos_;
  return s;
}

VmSnapshotView::~VmSnapshotView() { buffer_->UnregisterView(this); }

void VmSnapshotView::CopyPage(size_t page) {
  // Store the page's first word onto itself: the write fault makes the OS
  // copy the page. Scans on this view may race the store by design (same
  // intentional-race class as RawSlotLoad) and the value never changes,
  // hence relaxed atomics; volatile keeps the store from being elided.
  volatile uint64_t* word =
      reinterpret_cast<uint64_t*>(region_.data() + page * kPageSize);
  __atomic_store_n(word, __atomic_load_n(word, __ATOMIC_RELAXED),
                   __ATOMIC_RELAXED);
}

}  // namespace anker::snapshot
