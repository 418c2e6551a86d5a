#include "vm/page_pool.h"

#include "vm/page.h"

namespace anker::vm {

Status PagePool::Init(const std::string& name, size_t initial_bytes) {
  auto file = Memfd::Create(name, RoundUpToPage(initial_bytes));
  if (!file.ok()) return file.status();
  file_ = file.TakeValue();
  file_bytes_.store(file_.size(), std::memory_order_release);
  return Status::OK();
}

Result<off_t> PagePool::AllocatePage() { return AllocatePages(1); }

Result<off_t> PagePool::AllocatePages(size_t n) {
  ANKER_CHECK(file_.valid());
  const size_t first = next_page_.fetch_add(n, std::memory_order_relaxed);
  const size_t end_byte = (first + n) * kPageSize;
  if (end_byte > file_bytes_.load(std::memory_order_acquire)) {
    SpinLockGuard guard(grow_lock_);
    if (end_byte > file_.size()) {
      // Grow geometrically to amortize ftruncate calls.
      size_t target = file_.size() == 0 ? kPageSize : file_.size();
      while (target < end_byte) target *= 2;
      ANKER_RETURN_IF_ERROR(file_.Grow(target));
      file_bytes_.store(file_.size(), std::memory_order_release);
    }
  }
  return static_cast<off_t>(first * kPageSize);
}

}  // namespace anker::vm
