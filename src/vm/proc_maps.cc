#include "vm/proc_maps.h"

#include <cstdio>
#include <cstdlib>

namespace anker::vm {

std::vector<VmaInfo> ReadProcMaps() {
  std::vector<VmaInfo> vmas;
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return vmas;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long start = 0;
    unsigned long long end = 0;
    if (std::sscanf(line, "%llx-%llx", &start, &end) == 2) {
      vmas.push_back(VmaInfo{static_cast<uintptr_t>(start),
                             static_cast<uintptr_t>(end)});
    }
  }
  std::fclose(f);
  return vmas;
}

size_t CountVmasInRange(const void* addr, size_t len) {
  const uintptr_t lo = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t hi = lo + len;
  size_t count = 0;
  for (const VmaInfo& vma : ReadProcMaps()) {
    if (vma.start < hi && vma.end > lo) ++count;
  }
  return count;
}

}  // namespace anker::vm
