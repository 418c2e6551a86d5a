// Property-based tests run identically against every snapshot-capable
// backend: the snapshotting mechanism differs (memcpy, rewiring with manual
// COW, emulated vm_snapshot), the observable semantics must not.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "snapshot/snapshotable_buffer.h"
#include "vm/page.h"

namespace anker::snapshot {
namespace {

using vm::kPageSize;

class BufferPropertyTest : public ::testing::TestWithParam<BufferBackend> {
 protected:
  std::unique_ptr<SnapshotableBuffer> MakeBuffer(size_t size) {
    auto buffer = CreateBuffer(GetParam(), size);
    EXPECT_TRUE(buffer.ok());
    return buffer.TakeValue();
  }
};

TEST_P(BufferPropertyTest, FreshBufferIsZeroed) {
  auto buffer = MakeBuffer(4 * kPageSize);
  for (size_t offset = 0; offset < buffer->size(); offset += 1024) {
    EXPECT_EQ(buffer->LoadU64(offset), 0u);
  }
}

TEST_P(BufferPropertyTest, RandomWritesReadBack) {
  auto buffer = MakeBuffer(16 * kPageSize);
  Rng rng(101);
  std::map<size_t, uint64_t> reference;
  for (int i = 0; i < 2000; ++i) {
    const size_t slot = rng.NextBounded(buffer->size() / 8);
    const uint64_t value = rng.Next();
    buffer->StoreU64(slot * 8, value);
    reference[slot] = value;
  }
  for (const auto& [slot, value] : reference) {
    EXPECT_EQ(buffer->LoadU64(slot * 8), value);
  }
}

TEST_P(BufferPropertyTest, SnapshotMatchesReferenceModel) {
  auto buffer = MakeBuffer(16 * kPageSize);
  const size_t num_slots = buffer->size() / 8;
  Rng rng(202 + static_cast<uint64_t>(GetParam()));
  std::vector<uint64_t> model(num_slots, 0);

  struct Checkpoint {
    std::unique_ptr<SnapshotView> view;
    std::vector<uint64_t> model_at_snapshot;
  };
  std::vector<Checkpoint> checkpoints;

  for (int round = 0; round < 8; ++round) {
    // Random batch of writes.
    for (int i = 0; i < 300; ++i) {
      const size_t slot = rng.NextBounded(num_slots);
      const uint64_t value = rng.Next();
      buffer->StoreU64(slot * 8, value);
      model[slot] = value;
    }
    auto snap = buffer->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    checkpoints.push_back(Checkpoint{snap.TakeValue(), model});
  }

  // Every snapshot must exactly equal the model at its creation point, and
  // the live buffer the final model.
  for (const Checkpoint& cp : checkpoints) {
    for (size_t slot = 0; slot < num_slots; slot += 7) {
      ASSERT_EQ(cp.view->ReadU64(slot * 8), cp.model_at_snapshot[slot]);
    }
  }
  for (size_t slot = 0; slot < num_slots; slot += 7) {
    ASSERT_EQ(buffer->LoadU64(slot * 8), model[slot]);
  }
}

TEST_P(BufferPropertyTest, DroppingSnapshotsInAnyOrderIsSafe) {
  auto buffer = MakeBuffer(8 * kPageSize);
  Rng rng(303);
  std::vector<std::unique_ptr<SnapshotView>> snaps;
  std::vector<uint64_t> expected;
  for (uint64_t round = 0; round < 6; ++round) {
    buffer->StoreU64(0, round * 11);
    auto snap = buffer->TakeSnapshot();
    ASSERT_TRUE(snap.ok());
    snaps.push_back(snap.TakeValue());
    expected.push_back(round * 11);
  }
  // Drop snapshots in a scrambled order, verifying survivors each time.
  const std::vector<size_t> drop_order = {2, 0, 5, 1, 4, 3};
  for (size_t drop : drop_order) {
    snaps[drop].reset();
    for (size_t i = 0; i < snaps.size(); ++i) {
      if (snaps[i] != nullptr) {
        EXPECT_EQ(snaps[i]->ReadU64(0), expected[i]);
      }
    }
  }
}

TEST_P(BufferPropertyTest, WholeBufferContentEquality) {
  auto buffer = MakeBuffer(4 * kPageSize);
  Rng rng(404);
  for (size_t offset = 0; offset < buffer->size(); offset += 8) {
    buffer->StoreU64(offset, rng.Next());
  }
  auto snap = buffer->TakeSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(memcmp(snap.value()->data(), buffer->data(), buffer->size()), 0);
  // Overwrite everything; the snapshot must still hold the old image.
  std::vector<uint8_t> before(snap.value()->data(),
                              snap.value()->data() + snap.value()->size());
  for (size_t offset = 0; offset < buffer->size(); offset += 8) {
    buffer->StoreU64(offset, rng.Next());
  }
  EXPECT_EQ(memcmp(snap.value()->data(), before.data(), before.size()), 0);
}

/// Checksum of a view's content. Relaxed atomic loads: the view's backend
/// may rewrite words with their own value while the view is scanned.
uint64_t Checksum(const SnapshotView& view) {
  const auto* words = reinterpret_cast<const uint64_t*>(view.data());
  uint64_t sum = 0;
  for (size_t i = 0; i < view.size() / sizeof(uint64_t); ++i) {
    sum = sum * 31 + __atomic_load_n(words + i, __ATOMIC_RELAXED);
  }
  return sum;
}

TEST_P(BufferPropertyTest, LiveViewsStayFrozenUnderConcurrentWrites) {
  // One writer stores random slots and takes and drops snapshots; reader
  // threads keep re-checksumming every live view against the checksum
  // recorded when the view was created.
  auto buffer = MakeBuffer(16 * kPageSize);
  const size_t num_slots = buffer->size() / sizeof(uint64_t);
  struct Frozen {
    std::shared_ptr<const SnapshotView> view;
    uint64_t checksum;
  };
  std::mutex live_mutex;
  std::vector<Frozen> live;  // Guarded by live_mutex.
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> checks{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        std::vector<Frozen> views;
        {
          std::lock_guard<std::mutex> guard(live_mutex);
          views = live;
        }
        for (const Frozen& frozen : views) {
          if (Checksum(*frozen.view) != frozen.checksum) ++mismatches;
          ++checks;
        }
      }
    });
  }

  Rng rng(505 + static_cast<uint64_t>(GetParam()));
  // Keep writing until the readers have overlapped a good number of
  // checks: on a loaded machine they may start only after many rounds.
  for (int round = 0; round < 60 || checks.load() < 200; ++round) {
    for (int i = 0; i < 200; ++i) {
      buffer->StoreU64(rng.NextBounded(num_slots) * sizeof(uint64_t),
                       rng.Next());
    }
    auto snap = buffer->TakeSnapshot();
    if (!snap.ok()) {
      ADD_FAILURE() << snap.status().ToString();
      break;  // The readers must still be joined.
    }
    std::shared_ptr<const SnapshotView> view = snap.TakeValue();
    const uint64_t checksum = Checksum(*view);
    std::lock_guard<std::mutex> guard(live_mutex);
    live.push_back({std::move(view), checksum});
    if (live.size() > 4) {
      // Drop a random view; a reader may hold the last reference.
      live.erase(live.begin() +
                 static_cast<long>(rng.NextBounded(live.size())));
    }
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_P(BufferPropertyTest, SizeRoundsUpToWholePages) {
  auto buffer = CreateBuffer(GetParam(), kPageSize + 1);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(buffer.value()->size() % kPageSize, 0u);
  EXPECT_GE(buffer.value()->size(), kPageSize + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BufferPropertyTest,
    ::testing::Values(BufferBackend::kPhysical, BufferBackend::kRewired,
                      BufferBackend::kVmSnapshot),
    [](const ::testing::TestParamInfo<BufferBackend>& info) {
      return std::string(BufferBackendName(info.param)) == "vm_snapshot"
                 ? "vm_snapshot"
                 : BufferBackendName(info.param);
    });

TEST(BufferFactoryTest, ParseRoundTrips) {
  for (BufferBackend backend :
       {BufferBackend::kPlain, BufferBackend::kPhysical,
        BufferBackend::kRewired, BufferBackend::kVmSnapshot}) {
    auto parsed = ParseBufferBackend(BufferBackendName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), backend);
  }
  EXPECT_FALSE(ParseBufferBackend("bogus").ok());
}

}  // namespace
}  // namespace anker::snapshot
