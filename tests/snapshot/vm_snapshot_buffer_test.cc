#include "snapshot/vm_snapshot_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
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

/// Hash over every word of `view`. Relaxed atomic loads: a first write
/// elsewhere may store a word of this view onto itself (the copy-on-write
/// trigger) while the hash runs.
uint64_t ViewChecksum(const SnapshotView& view) {
  const auto* words = reinterpret_cast<const uint64_t*>(view.data());
  uint64_t hash = 0;
  for (size_t i = 0; i < view.size() / sizeof(uint64_t); ++i) {
    hash = hash * 31 + __atomic_load_n(words + i, __ATOMIC_RELAXED);
  }
  return hash;
}

TEST(VmSnapshotBufferTest, ConcurrentFirstTouchesKeepEveryLiveViewIntact) {
  // The engine's commit path: a writer pre-touches its slot through
  // MarkDirty holding only the column latch shared, then stores under the
  // commit mutex. Snapshots are taken under the latch held exclusive and
  // dropped without it. Writers racing for a page's first touch must not
  // store before the page is copied into every live view.
  constexpr size_t kPages = 64;
  constexpr size_t kWords = kPages * kPageSize / sizeof(uint64_t);
  constexpr int kWriters = 3;
  constexpr int kRounds = 500;
  constexpr size_t kMaxLiveViews = 4;
  auto buffer = VmSnapshotBuffer::Create(kPages * kPageSize);
  ASSERT_TRUE(buffer.ok());
  VmSnapshotBuffer* b = buffer.value().get();

  std::shared_mutex latch;
  std::mutex commit_mutex;
  // Writers stand back while it is set, so the snapshot thread's
  // exclusive acquire is not starved by overlapping shared holds.
  std::atomic<bool> snapshot_waiting{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(w + 1);
      uint64_t value = static_cast<uint64_t>(w + 1) << 48;
      while (!stop.load(std::memory_order_relaxed)) {
        if (snapshot_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
          continue;
        }
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const size_t offset = ((rng >> 33) % kWords) * sizeof(uint64_t);
        std::shared_lock<std::shared_mutex> shared(latch);
        b->MarkDirty(offset, sizeof(uint64_t));
        std::lock_guard<std::mutex> guard(commit_mutex);
        b->StoreU64(offset, ++value);
      }
    });
  }

  struct LiveView {
    std::unique_ptr<SnapshotView> view;
    uint64_t checksum = 0;
  };
  std::deque<LiveView> live;
  size_t corrupted_checks = 0;
  for (int round = 0; round < kRounds && corrupted_checks == 0; ++round) {
    snapshot_waiting.store(true, std::memory_order_release);
    LiveView taken;
    Status status;
    {
      std::unique_lock<std::shared_mutex> exclusive(latch);
      auto snap = b->TakeSnapshot();
      status = snap.status();
      if (snap.ok()) {
        taken.view = snap.TakeValue();
        taken.checksum = ViewChecksum(*taken.view);
      }
    }
    snapshot_waiting.store(false, std::memory_order_release);
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
      break;
    }
    live.push_back(std::move(taken));
    // Retire the oldest view outside the latch, as epoch retirement does.
    if (live.size() > kMaxLiveViews) live.pop_front();
    // Let the writers first-touch every page of the epoch: the late first
    // touches race writers already storing to dirty pages.
    while (b->DirtyPageCount() < kPages) std::this_thread::yield();
    for (const LiveView& view : live) {
      if (ViewChecksum(*view.view) != view.checksum) ++corrupted_checks;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(corrupted_checks, 0u);
  EXPECT_GT(b->stats().forced_cow_pages, 0u);
}

}  // namespace
}  // namespace anker::snapshot
