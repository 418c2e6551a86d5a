#include "snapshot/vm_snapshot_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vm/page.h"
#include "vm/proc_maps.h"

namespace anker::snapshot {
namespace {

using vm::kPageSize;

/// Resident bytes of the VMA containing `addr`, from /proc/self/smaps.
size_t VmaRssBytes(const void* addr) {
  const auto target = reinterpret_cast<uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_vma = false;
  while (std::getline(smaps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &start, &end) == 2) {
      in_vma = start <= target && target < end;
      continue;
    }
    size_t kb = 0;
    if (in_vma && std::sscanf(line.c_str(), "Rss: %zu kB", &kb) == 1) {
      return kb * 1024;
    }
  }
  ADD_FAILURE() << "no VMA contains " << addr;
  return 0;
}

TEST(VmSnapshotBufferTest, SnapshotIsolatesSubsequentWrites) {
  auto buffer = VmSnapshotBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  b->StoreU64(0, 5);
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  b->StoreU64(0, 6);
  EXPECT_EQ(snap.value()->ReadU64(0), 5u);
  EXPECT_EQ(b->LoadU64(0), 6u);
}

TEST(VmSnapshotBufferTest, DirtyTrackingCountsPages) {
  auto buffer = VmSnapshotBuffer::Create(8 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  EXPECT_EQ(b->DirtyPageCount(), 0u);
  b->StoreU64(0, 1);
  b->StoreU64(8, 2);  // same page
  EXPECT_EQ(b->DirtyPageCount(), 1u);
  b->StoreU64(3 * kPageSize, 3);
  EXPECT_EQ(b->DirtyPageCount(), 2u);
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(b->DirtyPageCount(), 0u);  // a new epoch begins
  EXPECT_EQ(b->stats().dirty_pages_flushed, 2u);
}

TEST(VmSnapshotBufferTest, MarkDirtySpanningPages) {
  auto buffer = VmSnapshotBuffer::Create(8 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  b->MarkDirty(kPageSize - 4, 8);  // straddles two pages
  EXPECT_EQ(b->DirtyPageCount(), 2u);
}

TEST(VmSnapshotBufferTest, OlderSnapshotsKeepTheirContent) {
  auto buffer = VmSnapshotBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  std::vector<std::unique_ptr<SnapshotView>> snaps;
  for (uint64_t round = 1; round <= 6; ++round) {
    b->StoreU64(0, round);
    b->StoreU64(2 * kPageSize, round * 10);
    auto snap = b->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    snaps.push_back(snap.TakeValue());
  }
  // Every snapshot must still see the state at its creation, even though
  // the file pages were rewritten by every later flush.
  for (uint64_t round = 1; round <= 6; ++round) {
    EXPECT_EQ(snaps[round - 1]->ReadU64(0), round);
    EXPECT_EQ(snaps[round - 1]->ReadU64(2 * kPageSize), round * 10);
  }
  EXPECT_EQ(b->LiveViewCount(), 6u);
  snaps.clear();
  EXPECT_EQ(b->LiveViewCount(), 0u);
}

TEST(VmSnapshotBufferTest, SourceStaysOneVma) {
  // The whole point versus rewiring: writes never fragment the source
  // mapping, so snapshot cost stays flat.
  auto buffer = VmSnapshotBuffer::Create(64 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  for (int round = 0; round < 4; ++round) {
    for (size_t page = 0; page < 64; page += 3) {
      b->StoreU64(page * kPageSize, page + round);
    }
    auto snap = b->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
  }
  EXPECT_EQ(vm::CountVmasInRange(b->data(), b->size()), 1u);
}

TEST(VmSnapshotBufferTest, SnapshotWithNoDirtyPagesIsCheap) {
  auto buffer = VmSnapshotBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  auto s1 = b->TakeSnapshot();
  ASSERT_TRUE(s1.ok());
  auto s2 = b->TakeSnapshot();  // nothing dirty in between
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(b->stats().dirty_pages_flushed, 0u);
  EXPECT_EQ(s2.value()->ReadU64(0), 0u);
}

TEST(VmSnapshotBufferTest, RecycleExistingView) {
  auto buffer = VmSnapshotBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  b->StoreU64(0, 1);
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  auto* view = static_cast<VmSnapshotView*>(snap.value().get());
  const uint8_t* addr_before = snap.value()->data();
  EXPECT_EQ(snap.value()->ReadU64(0), 1u);

  b->StoreU64(0, 2);
  // vm_snapshot's dst_addr form: refresh the snapshot in place.
  ASSERT_TRUE(b->TakeSnapshotInto(view).ok());
  EXPECT_EQ(snap.value()->data(), addr_before);
  EXPECT_EQ(snap.value()->ReadU64(0), 2u);
}

TEST(VmSnapshotBufferTest, FirstWriteCopiesThePageIntoEveryLiveView) {
  auto buffer = VmSnapshotBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  std::vector<std::unique_ptr<SnapshotView>> views;
  for (int i = 0; i < 3; ++i) {
    auto snap = b->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    views.push_back(snap.TakeValue());
  }
  const size_t before = b->stats().forced_cow_pages;
  b->StoreU64(kPageSize, 7);  // first write to page 1: one copy per view
  EXPECT_EQ(b->stats().forced_cow_pages, before + 3);
  b->StoreU64(kPageSize + 8, 8);  // page 1 again, same epoch: no copy
  EXPECT_EQ(b->stats().forced_cow_pages, before + 3);
  views.pop_back();
  b->StoreU64(2 * kPageSize, 9);  // first write to page 2, two live views
  EXPECT_EQ(b->stats().forced_cow_pages, before + 5);
  for (const auto& view : views) {
    EXPECT_EQ(view->ReadU64(kPageSize), 0u);
    EXPECT_EQ(view->ReadU64(2 * kPageSize), 0u);
  }
  EXPECT_EQ(b->stats().flush_nanos, 0) << "vm_snapshot never writes back";
  EXPECT_EQ(b->stats().dirty_pages_flushed, 0u);
  auto next = b->TakeSnapshot();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(b->stats().dirty_pages_flushed, 2u);
  EXPECT_EQ(b->stats().flush_nanos, 0);
}

TEST(VmSnapshotBufferTest, SnapshotUnmapsCleanPagesFromTheOltpView) {
  constexpr size_t kPages = 8;
  auto buffer = VmSnapshotBuffer::Create(kPages * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  // Map every page of the OLTP view, then write two of them.
  for (size_t page = 0; page < kPages; ++page) {
    EXPECT_EQ(b->LoadU64(page * kPageSize), 0u);
  }
  EXPECT_EQ(VmaRssBytes(b->data()), kPages * kPageSize);
  auto first = b->TakeSnapshot();
  ASSERT_TRUE(first.ok());
  b->StoreU64(1 * kPageSize, 1);
  b->StoreU64(5 * kPageSize, 5);
  for (size_t page = 0; page < kPages; ++page) {
    (void)b->LoadU64(page * kPageSize);
  }
  auto second = b->TakeSnapshot();
  ASSERT_TRUE(second.ok());
  // Only the two pages written since the previous snapshot stay mapped.
  EXPECT_EQ(VmaRssBytes(b->data()), 2 * kPageSize);
  EXPECT_EQ(b->LoadU64(5 * kPageSize), 5u);
  EXPECT_EQ(second.value()->ReadU64(1 * kPageSize), 1u);
  EXPECT_EQ(first.value()->ReadU64(1 * kPageSize), 0u);
}

TEST(VmSnapshotBufferTest, InterleavedWritesAndSnapshotsOnSamePage) {
  // Regression shape: the same page dirtied across several epochs while
  // multiple snapshots stay alive.
  auto buffer = VmSnapshotBuffer::Create(kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();
  b->StoreU64(0, 1);
  auto s1 = b->TakeSnapshot();
  ASSERT_TRUE(s1.ok());
  b->StoreU64(0, 2);
  auto s2 = b->TakeSnapshot();
  ASSERT_TRUE(s2.ok());
  b->StoreU64(0, 3);
  auto s3 = b->TakeSnapshot();
  ASSERT_TRUE(s3.ok());
  b->StoreU64(0, 4);
  EXPECT_EQ(s1.value()->ReadU64(0), 1u);
  EXPECT_EQ(s2.value()->ReadU64(0), 2u);
  EXPECT_EQ(s3.value()->ReadU64(0), 3u);
  EXPECT_EQ(b->LoadU64(0), 4u);
}

}  // namespace
}  // namespace anker::snapshot
