#ifndef ANKER_VM_MAP_REGION_H_
#define ANKER_VM_MAP_REGION_H_

#include <cstddef>
#include <cstdint>

#include "common/macros.h"
#include "common/status.h"

namespace anker::vm {

/// RAII wrapper around a single mmap()ed virtual memory area. This is the
/// user-space handle to one VMA (Section 3.2.1 of the paper): creation is
/// one mmap call, destruction one munmap.
class MapRegion {
 public:
  MapRegion() = default;
  ~MapRegion();

  MapRegion(MapRegion&& other) noexcept;
  MapRegion& operator=(MapRegion&& other) noexcept;
  ANKER_DISALLOW_COPY(MapRegion);

  /// Maps `size` bytes of private anonymous memory (read-write).
  static Result<MapRegion> MapAnonymous(size_t size);

  /// Maps `size` bytes of file `fd` at file offset `offset` with MAP_SHARED
  /// semantics: stores go to the file pages.
  static Result<MapRegion> MapSharedFile(int fd, size_t size, off_t offset,
                                         int prot);

  /// Maps `size` bytes of file `fd` at file offset `offset` with MAP_PRIVATE
  /// semantics: stores trigger OS copy-on-write into anonymous pages; the
  /// file is never modified through this mapping. This is the sharing
  /// primitive behind the emulated vm_snapshot.
  static Result<MapRegion> MapPrivateFile(int fd, size_t size, off_t offset,
                                          int prot);

  /// Remaps `size` bytes of `fd` at `offset` over [addr, addr+size) using
  /// MAP_FIXED (replacing whatever was there). Used by rewiring to redirect
  /// single pages and to recycle snapshot areas (Section 4.1.3).
  static Status MapFixedShared(void* addr, int fd, size_t size, off_t offset,
                               int prot);
  static Status MapFixedPrivate(void* addr, int fd, size_t size, off_t offset,
                                int prot);

  /// Changes protection of [data(), data()+size()).
  Status Protect(int prot);

  /// Changes protection of a sub-range; offset/len page aligned.
  Status ProtectRange(size_t offset, size_t len, int prot);

  /// madvise(MADV_DONTNEED) on a sub-range: drops private anonymous COW
  /// copies so subsequent reads fault back in from the backing file. On a
  /// shared mapping it drops page-table entries only; no data is freed.
  Status DontNeed(size_t offset, size_t len);

  /// Fills every page-table entry of the area for reading
  /// (MADV_POPULATE_READ) — the state the real vm_snapshot call leaves
  /// behind after copying the PTEs, so snapshot scans pay no per-page soft
  /// faults. Unlike MAP_POPULATE on a writable private mapping, it maps the
  /// file pages shared instead of copying each one.
  Status PopulateRead();

  uint8_t* data() const { return static_cast<uint8_t*>(addr_); }
  size_t size() const { return size_; }
  bool valid() const { return addr_ != nullptr; }

 private:
  MapRegion(void* addr, size_t size) : addr_(addr), size_(size) {}

  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace anker::vm

#endif  // ANKER_VM_MAP_REGION_H_
