#ifndef ANKER_VM_PROC_MAPS_H_
#define ANKER_VM_PROC_MAPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anker::vm {

/// One parsed line of /proc/self/maps.
struct VmaInfo {
  uintptr_t start;
  uintptr_t end;
};

/// Reads the process's VMA list. Used by benchmarks to report how many VMAs
/// back a column (the quantity that dominates rewired-snapshot cost in
/// Table 1 / Figure 5a of the paper).
std::vector<VmaInfo> ReadProcMaps();

/// Counts VMAs overlapping [addr, addr+len).
size_t CountVmasInRange(const void* addr, size_t len);

}  // namespace anker::vm

#endif  // ANKER_VM_PROC_MAPS_H_
