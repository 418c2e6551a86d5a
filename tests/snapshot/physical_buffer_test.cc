#include "snapshot/physical_buffer.h"

#include <gtest/gtest.h>

#include "snapshot/plain_buffer.h"
#include "vm/page.h"

namespace anker::snapshot {
namespace {

TEST(PlainBufferTest, NoSnapshotSupport) {
  auto buffer = PlainBuffer::Create(vm::kPageSize);
  ASSERT_TRUE(buffer.ok());
  EXPECT_FALSE(buffer.value()->TakeSnapshot().ok());
  EXPECT_STREQ(buffer.value()->name(), "plain");
}

TEST(PlainBufferTest, StoresAndLoads) {
  auto buffer = PlainBuffer::Create(vm::kPageSize);
  ASSERT_TRUE(buffer.ok());
  buffer.value()->StoreU64(16, 0xDEADBEEF);
  EXPECT_EQ(buffer.value()->LoadU64(16), 0xDEADBEEFu);
}

TEST(PhysicalBufferTest, SnapshotIsDeepCopy) {
  auto buffer = PhysicalBuffer::Create(2 * vm::kPageSize);
  ASSERT_TRUE(buffer.ok());
  SnapshotableBuffer* b = buffer.value().get();
  b->StoreU64(0, 111);
  b->StoreU64(vm::kPageSize, 222);

  auto snap = b->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value()->ReadU64(0), 111u);
  EXPECT_EQ(snap.value()->ReadU64(vm::kPageSize), 222u);

  // Writes after the snapshot do not leak into it.
  b->StoreU64(0, 999);
  EXPECT_EQ(snap.value()->ReadU64(0), 111u);
  EXPECT_EQ(b->LoadU64(0), 999u);
}

TEST(PhysicalBufferTest, MultipleIndependentSnapshots) {
  auto buffer = PhysicalBuffer::Create(vm::kPageSize);
  ASSERT_TRUE(buffer.ok());
  SnapshotableBuffer* b = buffer.value().get();
  b->StoreU64(8, 1);
  auto s1 = b->TakeSnapshot();
  ASSERT_TRUE(s1.ok());
  b->StoreU64(8, 2);
  auto s2 = b->TakeSnapshot();
  ASSERT_TRUE(s2.ok());
  b->StoreU64(8, 3);
  EXPECT_EQ(s1.value()->ReadU64(8), 1u);
  EXPECT_EQ(s2.value()->ReadU64(8), 2u);
  EXPECT_EQ(b->LoadU64(8), 3u);
  EXPECT_EQ(b->stats().snapshots_taken, 2u);
}

TEST(PhysicalBufferTest, SnapshotOutlivesNothingItNeeds) {
  auto buffer = PhysicalBuffer::Create(vm::kPageSize);
  ASSERT_TRUE(buffer.ok());
  buffer.value()->StoreU64(0, 77);
  auto snap = buffer.value()->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  buffer = Result<std::unique_ptr<PhysicalBuffer>>(
      Status::Internal("dropped"));  // destroy the source buffer
  EXPECT_EQ(snap.value()->ReadU64(0), 77u);  // deep copy survives
}

}  // namespace
}  // namespace anker::snapshot
