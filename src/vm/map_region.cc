#include "vm/map_region.h"

#include <sys/mman.h>

#include <cerrno>

#include "vm/page.h"

#ifndef MADV_POPULATE_READ
#define MADV_POPULATE_READ 22  // Linux 5.14+; older C libraries lack it.
#endif

namespace anker::vm {

MapRegion::~MapRegion() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

MapRegion::MapRegion(MapRegion&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MapRegion& MapRegion::operator=(MapRegion&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MapRegion> MapRegion::MapAnonymous(size_t size) {
  const size_t rounded = RoundUpToPage(size);
  void* addr = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (addr == MAP_FAILED) return Status::IoErrorFromErrno("mmap(anonymous)");
  return MapRegion(addr, rounded);
}

Result<MapRegion> MapRegion::MapSharedFile(int fd, size_t size, off_t offset,
                                           int prot) {
  const size_t rounded = RoundUpToPage(size);
  void* addr = ::mmap(nullptr, rounded, prot, MAP_SHARED, fd, offset);
  if (addr == MAP_FAILED) return Status::IoErrorFromErrno("mmap(shared file)");
  return MapRegion(addr, rounded);
}

Result<MapRegion> MapRegion::MapPrivateFile(int fd, size_t size, off_t offset,
                                            int prot) {
  const size_t rounded = RoundUpToPage(size);
  void* addr = ::mmap(nullptr, rounded, prot, MAP_PRIVATE, fd, offset);
  if (addr == MAP_FAILED) return Status::IoErrorFromErrno("mmap(private file)");
  return MapRegion(addr, rounded);
}

Status MapRegion::MapFixedShared(void* addr, int fd, size_t size, off_t offset,
                                 int prot) {
  void* got = ::mmap(addr, size, prot, MAP_SHARED | MAP_FIXED, fd, offset);
  if (got == MAP_FAILED) return Status::IoErrorFromErrno("mmap(fixed shared)");
  ANKER_CHECK(got == addr);
  return Status::OK();
}

Status MapRegion::MapFixedPrivate(void* addr, int fd, size_t size,
                                  off_t offset, int prot) {
  void* got = ::mmap(addr, size, prot, MAP_PRIVATE | MAP_FIXED, fd, offset);
  if (got == MAP_FAILED) return Status::IoErrorFromErrno("mmap(fixed private)");
  ANKER_CHECK(got == addr);
  return Status::OK();
}

Status MapRegion::Protect(int prot) { return ProtectRange(0, size_, prot); }

Status MapRegion::ProtectRange(size_t offset, size_t len, int prot) {
  ANKER_CHECK(IsPageAligned(offset) && IsPageAligned(len));
  ANKER_CHECK(offset + len <= size_);
  if (::mprotect(data() + offset, len, prot) != 0) {
    return Status::IoErrorFromErrno("mprotect");
  }
  return Status::OK();
}

Status MapRegion::DontNeed(size_t offset, size_t len) {
  ANKER_CHECK(IsPageAligned(offset) && IsPageAligned(len));
  ANKER_CHECK(offset + len <= size_);
  if (::madvise(data() + offset, len, MADV_DONTNEED) != 0) {
    return Status::IoErrorFromErrno("madvise(DONTNEED)");
  }
  return Status::OK();
}

Status MapRegion::PopulateRead() {
  if (::madvise(addr_, size_, MADV_POPULATE_READ) == 0) return Status::OK();
  if (errno != EINVAL) {
    return Status::IoErrorFromErrno("madvise(POPULATE_READ)");
  }
  // Kernels before 5.14 lack the advice: read-fault every page instead.
  for (size_t offset = 0; offset < size_; offset += kPageSize) {
    (void)*static_cast<volatile const uint8_t*>(data() + offset);
  }
  return Status::OK();
}

}  // namespace anker::vm
