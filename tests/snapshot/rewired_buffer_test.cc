#include "snapshot/rewired_buffer.h"

#include <gtest/gtest.h>

#include "vm/fault_router.h"
#include "vm/page.h"
#include "vm/proc_maps.h"

namespace anker::snapshot {
namespace {

using vm::kPageSize;

TEST(RewiredBufferTest, ReadsBackWritesBeforeAnySnapshot) {
  auto buffer = RewiredBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  SnapshotableBuffer* b = buffer.value().get();
  for (size_t i = 0; i < 4; ++i) b->StoreU64(i * kPageSize, i + 1);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(b->LoadU64(i * kPageSize), i + 1);
}

TEST(RewiredBufferTest, SnapshotSharesUntilWrite) {
  auto buffer = RewiredBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  SnapshotableBuffer* b = buffer.value().get();
  b->StoreU64(0, 10);
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value()->ReadU64(0), 10u);
  // The write triggers the SIGSEGV-based manual COW.
  b->StoreU64(0, 20);
  EXPECT_EQ(b->LoadU64(0), 20u);
  EXPECT_EQ(snap.value()->ReadU64(0), 10u);
  EXPECT_GE(b->stats().cow_faults, 1u);
}

TEST(RewiredBufferTest, CowFragmentsMappingRuns) {
  auto buffer = RewiredBuffer::Create(16 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  RewiredBuffer* b = buffer.value().get();
  EXPECT_EQ(b->CountMappingRuns(), 1u);
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  // Touch every second page: each COW splits the mapping.
  for (size_t page = 0; page < 16; page += 2) {
    b->StoreU64(page * kPageSize, page);
  }
  EXPECT_GE(b->CountMappingRuns(), 8u);
  // The VMA count in /proc/self/maps reflects the fragmentation too.
  EXPECT_GE(vm::CountVmasInRange(b->data(), b->size()), 8u);
}

TEST(RewiredBufferTest, RepeatedSnapshotsStayConsistent) {
  auto buffer = RewiredBuffer::Create(8 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  RewiredBuffer* b = buffer.value().get();
  std::vector<std::unique_ptr<SnapshotView>> snaps;
  for (uint64_t round = 0; round < 5; ++round) {
    b->StoreU64(0, round);
    auto snap = b->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    snaps.push_back(snap.TakeValue());
  }
  for (uint64_t round = 0; round < 5; ++round) {
    EXPECT_EQ(snaps[round]->ReadU64(0), round);
  }
}

TEST(RewiredBufferTest, WritesToDifferentPagesAfterSnapshot) {
  auto buffer = RewiredBuffer::Create(8 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  RewiredBuffer* b = buffer.value().get();
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  for (size_t page = 0; page < 8; ++page) {
    b->StoreU64(page * kPageSize + 8, page * 100);
  }
  for (size_t page = 0; page < 8; ++page) {
    EXPECT_EQ(b->LoadU64(page * kPageSize + 8), page * 100);
    EXPECT_EQ(snap.value()->ReadU64(page * kPageSize + 8), 0u);
  }
  EXPECT_EQ(b->stats().cow_faults, 8u);
}

TEST(RewiredBufferTest, PoolGrowsWithCows) {
  auto buffer = RewiredBuffer::Create(4 * kPageSize);
  ASSERT_TRUE(buffer.ok());
  RewiredBuffer* b = buffer.value().get();
  const size_t before = b->stats().pool_pages;
  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  b->StoreU64(0, 1);
  b->StoreU64(kPageSize, 1);
  EXPECT_EQ(b->stats().pool_pages, before + 2);
}

TEST(RewiredBufferTest, DestructionUnregistersItsFaultRange) {
  // The fault router's range table has a fixed number of slots, so a
  // buffer that left its registration behind would eventually exhaust it.
  vm::FaultRouter& router = vm::FaultRouter::Instance();
  const size_t before = router.NumRanges();
  {
    auto buffer = RewiredBuffer::Create(4 * kPageSize);
    ASSERT_TRUE(buffer.ok());
    EXPECT_EQ(router.NumRanges(), before + 1);
    auto snap = buffer.value()->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    buffer.value()->StoreU64(0, 1);  // One copy-on-write fault.
  }
  EXPECT_EQ(router.NumRanges(), before);
}

}  // namespace
}  // namespace anker::snapshot
