#ifndef ANKER_VM_PAGE_POOL_H_
#define ANKER_VM_PAGE_POOL_H_

#include <atomic>
#include <cstddef>

#include "common/latch.h"
#include "common/macros.h"
#include "common/status.h"
#include "vm/memfd.h"

namespace anker::vm {

/// Page allocator over a memfd ("the pool for free pages", Section 3.2.3).
/// Rewired buffers claim unused pool pages during manual copy-on-write.
/// Allocation is a bump pointer with automatic file growth; the pool never
/// reuses pages while a buffer is alive (snapshots may still reference any
/// previously allocated offset).
class PagePool {
 public:
  PagePool() = default;
  ANKER_DISALLOW_COPY_AND_MOVE(PagePool);

  /// Initializes the pool with an initial capacity in bytes.
  Status Init(const std::string& name, size_t initial_bytes);

  /// Allocates one page and returns its file offset. Grows the file when
  /// exhausted. Async-signal-safe apart from growth (growth only performs
  /// ftruncate, a plain syscall), so it is callable from the SIGSEGV-based
  /// COW handler.
  Result<off_t> AllocatePage();

  /// Allocates `n` consecutive pages, returning the offset of the first.
  Result<off_t> AllocatePages(size_t n);

  const Memfd& file() const { return file_; }
  int fd() const { return file_.fd(); }

  /// Number of pages handed out so far.
  size_t allocated_pages() const {
    return next_page_.load(std::memory_order_relaxed);
  }

 private:
  Memfd file_;
  std::atomic<size_t> next_page_{0};
  /// file_.size() as published after each growth: the lock-free fast path
  /// reads this, never the Memfd field a concurrent Grow writes.
  std::atomic<size_t> file_bytes_{0};
  SpinLock grow_lock_;
};

}  // namespace anker::vm

#endif  // ANKER_VM_PAGE_POOL_H_
