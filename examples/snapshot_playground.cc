// Snapshot playground: the snapshotting subsystem in isolation. Walks
// through the same column with each backend — physical copy, rewired
// memfd mapping with manual COW, and the emulated vm_snapshot — and shows
// creation cost, write cost and VMA fragmentation side by side.
//
//   build/examples/snapshot_playground [column_mb]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "snapshot/snapshotable_buffer.h"
#include "vm/page.h"
#include "vm/proc_maps.h"

using namespace anker;
using snapshot::BufferBackend;
using snapshot::SnapshotView;
using vm::kPageSize;

namespace {

void Demo(BufferBackend backend, size_t column_bytes) {
  std::printf("\n=== backend: %s ===\n",
              snapshot::BufferBackendName(backend));
  auto created = snapshot::CreateBuffer(backend, column_bytes);
  ANKER_CHECK(created.ok());
  auto buffer = created.TakeValue();
  const size_t pages = buffer->size() / kPageSize;

  // Fill the column.
  for (size_t page = 0; page < pages; ++page) {
    buffer->StoreU64(page * kPageSize, page);
  }

  // Snapshot 1: clean column.
  Timer t1;
  auto snap1 = buffer->TakeSnapshot();
  ANKER_CHECK(snap1.ok());
  std::printf("snapshot of clean column:          %8.3f ms\n",
              t1.ElapsedMillis());

  // Dirty 10% of the pages, measuring the write cost (first write to a
  // snapshot-shared page pays the COW).
  Timer t2;
  for (size_t page = 0; page < pages; page += 10) {
    buffer->StoreU64(page * kPageSize, page + 1);
  }
  std::printf("first-write cost per dirtied page: %8.3f us\n",
              t2.ElapsedMicros() / (pages / 10.0));

  // Snapshot 2: after the writes.
  Timer t3;
  auto snap2 = buffer->TakeSnapshot();
  ANKER_CHECK(snap2.ok());
  std::printf("snapshot after 10%% dirty pages:    %8.3f ms\n",
              t3.ElapsedMillis());

  // Isolation check.
  ANKER_CHECK(snap1.value()->ReadU64(0) == 0);
  ANKER_CHECK(snap2.value()->ReadU64(0) == 1);
  buffer->StoreU64(0, 12345);
  ANKER_CHECK(snap2.value()->ReadU64(0) == 1);
  std::printf("isolation verified: snapshots unaffected by later writes\n");

  std::printf("VMAs backing the source column:    %8zu\n",
              vm::CountVmasInRange(buffer->data(), buffer->size()));
  const snapshot::BufferStats stats = buffer->stats();
  std::printf("stats: %zu snapshots, %zu manual COW faults, %zu pages "
              "first written between snapshots, %zu forced view copies\n",
              stats.snapshots_taken, stats.cow_faults,
              stats.dirty_pages_flushed, stats.forced_cow_pages);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t column_mb = argc > 1 ? std::atoll(argv[1]) : 8;
  const size_t column_bytes = column_mb << 20;
  std::printf("column size: %zu MB (%zu pages)\n", column_mb,
              column_bytes / kPageSize);
  Demo(BufferBackend::kPhysical, column_bytes);
  Demo(BufferBackend::kRewired, column_bytes);
  Demo(BufferBackend::kVmSnapshot, column_bytes);
  return 0;
}
