// The cold tier end to end at engine level: spill + transparent read-back,
// the incremental checkpoint path (unchanged segments referenced by extent
// id, dirty segments republished), recovery resolving the manifest's
// extent section, budget enforcement under concurrent writers, and the
// config validation around the new knobs.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "engine/database.h"
#include "wal/checkpoint.h"
#include "wal/io_util.h"

namespace anker::engine {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kSegmentRows = 1024;

class ColdTierTest : public ::testing::TestWithParam<txn::ProcessingMode> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/anker_cold_tier_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { wal::RemoveDirRecursive(dir_); }

  DatabaseConfig ColdConfig(uint64_t budget = 1) {
    DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
    config.durability = wal::DurabilityMode::kGroupCommit;
    config.data_dir = dir_;
    config.cold_budget_bytes = budget;
    config.cold_segment_rows = kSegmentRows;
    return config;
  }

  static storage::Table* Load(Database* db) {
    auto created = db->CreateTable("ledger",
                                   {{"balance", storage::ValueType::kInt64},
                                    {"price", storage::ValueType::kDouble}},
                                   kRows);
    EXPECT_TRUE(created.ok());
    storage::Table* table = created.value();
    for (size_t row = 0; row < kRows; ++row) {
      table->GetColumn("balance")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row % 97)));
      table->GetColumn("price")->LoadValue(
          row, storage::EncodeDouble(0.25 * static_cast<double>(row)));
    }
    return table;
  }

  std::string dir_;
};

TEST_P(ColdTierTest, SpillAndReadBackIsLossless) {
  auto db = std::make_unique<Database>(ColdConfig());
  storage::Table* table = Load(db.get());
  db->Start();
  const uint64_t digest_before = db->ContentDigest();

  ASSERT_TRUE(db->SpillColdData().ok());
  ColdTierStats stats = db->cold_stats();
  EXPECT_GT(stats.cold_bytes, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u) << "a version-free, unpinned load "
                                         "must spill completely";

  // Point reads fault segments back in transparently.
  EXPECT_EQ(storage::DecodeInt64(
                table->GetColumn("balance")->ReadLatestRaw(5000)),
            5000 % 97);
  EXPECT_EQ(db->ContentDigest(), digest_before);
  EXPECT_GT(db->cold_stats().counters.segment_fault_ins, 0u);
  db->Stop();
}

TEST_P(ColdTierTest, CheckpointsAreIncrementalOverUnchangedSegments) {
  // The incremental path needs a clean heterogeneous snapshot; the
  // homogeneous modes read through live MVCC and always resolve in full.
  const bool hetero =
      GetParam() == txn::ProcessingMode::kHeterogeneousSerializable;
  auto db = std::make_unique<Database>(ColdConfig(1ull << 40));
  storage::Table* table = Load(db.get());
  db->Start();

  auto first = db->Checkpoint();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first.value().data_bytes_written, 0u)
      << "the first checkpoint has nothing to reuse";

  // No writes since: the second checkpoint must reference every column
  // extent by id and rewrite no column bytes at all.
  auto second = db->Checkpoint();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  if (hetero) {
    EXPECT_EQ(second.value().data_bytes_written, 0u);
    EXPECT_GT(second.value().extent_bytes_reused, 0u);
  } else {
    EXPECT_EQ(second.value().data_bytes_written,
              first.value().data_bytes_written);
    EXPECT_EQ(second.value().extent_bytes_reused, 0u);
  }
  if (!hetero) {
    db->Stop();
    return;
  }

  // Dirty one segment of one column (LoadValue: no version chain, so the
  // next snapshot stays clean): the third checkpoint republishes only
  // that segment and references everything else by id.
  table->GetColumn("balance")->LoadValue(42, storage::EncodeInt64(777));
  auto third = db->Checkpoint();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GT(third.value().data_bytes_written, 0u);
  EXPECT_LT(third.value().data_bytes_written,
            first.value().data_bytes_written / 2);
  EXPECT_GT(third.value().extent_bytes_reused, 0u);
  db->Stop();
}

TEST_P(ColdTierTest, RecoveryResolvesExtentBackedCheckpoints) {
  uint64_t digest = 0;
  {
    auto db = std::make_unique<Database>(ColdConfig());
    storage::Table* table = Load(db.get());
    db->Start();
    // Mixed residency at checkpoint time: spill all, then dirty a few
    // rows so some segments are hot again.
    ASSERT_TRUE(db->SpillColdData().ok());
    for (int i = 0; i < 5; ++i) {
      auto txn = db->BeginOltp();
      txn->Write(table->GetColumn("price"),
                 static_cast<uint64_t>(i * 1100),
                 storage::EncodeDouble(9000.0 + i));
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    ASSERT_TRUE(db->Checkpoint().status().ok());
    // Post-checkpoint WAL tail on top of the extent-backed image.
    auto txn = db->BeginOltp();
    txn->Write(table->GetColumn("balance"), 9,
               storage::EncodeInt64(-12345));
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    digest = db->ContentDigest();
    db->Stop();
  }
  auto reopened = Database::Open(ColdConfig());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database* db = reopened.value().get();
  db->Start();
  EXPECT_EQ(db->ContentDigest(), digest);

  if (GetParam() == txn::ProcessingMode::kHeterogeneousSerializable) {
    // The recovered segments must remember their extents. The first
    // post-recovery checkpoint seals the versions WAL replay created
    // (forcing the resolved path); the one after sees a clean snapshot
    // again and must reuse every extent replay left untouched.
    ASSERT_TRUE(db->Checkpoint().status().ok());
    auto again = db->Checkpoint();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_GT(again.value().extent_bytes_reused, 0u);
  }
  db->Stop();
}

TEST_P(ColdTierTest, FailedCheckpointLeavesThePreviousOneLive) {
  // Only the heterogeneous checkpoint publishes extents (from a clean
  // snapshot); the homogeneous one resolves every column in full.
  if (GetParam() != txn::ProcessingMode::kHeterogeneousSerializable) {
    GTEST_SKIP() << "no extent publication in this mode's checkpoint";
  }
  DatabaseConfig config = ColdConfig();
  config.snapshot_interval_commits = 1;
  uint64_t digest = 0;
  {
    auto db = std::make_unique<Database>(config);
    storage::Table* table = Load(db.get());
    db->Start();
    auto first = db->Checkpoint();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const auto commit = [&](int i) {
      auto txn = db->BeginOltp();
      txn->Write(table->GetColumn("balance"),
                 static_cast<uint64_t>(i * 1021 % kRows),
                 storage::EncodeInt64(-i));
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    };
    for (int i = 1; i <= 5; ++i) commit(i);
    // An OLAP transaction on the newest epoch seals the commits' versions
    // into its snapshot, so the next checkpoint's snapshot is clean and
    // republishes the segments the commits dirtied.
    auto olap = db->BeginOlap({table->GetColumn("balance")});
    ASSERT_TRUE(olap.ok()) << olap.status().ToString();
    ASSERT_TRUE(db->FinishOlap(olap.TakeValue()).ok());

    // Every extent publication now fails, so the checkpoint must too —
    // without flipping CURRENT or leaving its temp directory behind.
    FaultInjector::Instance().ArmForTest("extent.publish.pre:fail:1.0", 1);
    auto failed = db->Checkpoint();
    FaultInjector::Instance().ArmForTest("", 0);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
        << failed.status().ToString();
    std::string live;
    ASSERT_TRUE(wal::CheckpointReader::ReadManifest(dir_, &live).ok());
    EXPECT_EQ(live, first.value().directory);
    std::vector<std::string> names;
    ASSERT_TRUE(wal::ListDir(dir_, &names).ok());
    for (const std::string& name : names) {
      EXPECT_FALSE(name.rfind("ckpt-", 0) == 0 &&
                   name.size() > 4 &&
                   name.compare(name.size() - 4, 4, ".tmp") == 0)
          << "leftover " << name;
    }

    for (int i = 6; i <= 10; ++i) commit(i);
    digest = db->ContentDigest();
    db->Stop();
  }
  auto reopened = Database::Open(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  reopened.value()->Start();
  EXPECT_EQ(reopened.value()->ContentDigest(), digest);
  reopened.value()->Stop();
}

TEST_P(ColdTierTest, FinishOlapEnforcementReturnsUnderConcurrentWriters) {
  // FinishOlap enforces the budget with one spill pass. Repeating passes
  // while they make progress never ends under writers: their reads fault
  // spilled segments back in, so every pass finds something to spill
  // again, and their writes re-dirty segments, so every pass republishes
  // extents — long enough for the reads to fault more segments in.
  constexpr size_t kSegments = 64;
  constexpr size_t kWriters = 2;
  constexpr auto kWriterLifetime = std::chrono::seconds(30);
  DatabaseConfig config = ColdConfig();
  config.durability = wal::DurabilityMode::kLazy;  // No fsync per commit.
  auto db = std::make_unique<Database>(config);
  auto created = db->CreateTable("ledger",
                                 {{"balance", storage::ValueType::kInt64},
                                  {"amount", storage::ValueType::kInt64},
                                  {"price", storage::ValueType::kInt64},
                                  {"qty", storage::ValueType::kInt64}},
                                 kSegments * kSegmentRows);
  ASSERT_TRUE(created.ok());
  storage::Table* table = created.value();
  storage::Column* balance = table->GetColumn("balance");
  storage::Column* amount = table->GetColumn("amount");
  const storage::Column* read_columns[kWriters] = {table->GetColumn("price"),
                                                   table->GetColumn("qty")};
  db->Start();

  std::atomic<bool> stop{false};
  std::atomic<bool> writer_expired{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto deadline =
          std::chrono::steady_clock::now() + kWriterLifetime;
      for (int64_t i = 0; !stop.load(); ++i) {
        if (std::chrono::steady_clock::now() > deadline) {
          writer_expired.store(true);
          return;
        }
        auto txn = db->BeginOltp();
        for (size_t seg = 0; seg < kSegments; ++seg) {
          // Faults the segment back in when a spill pass evicted it.
          txn->Read(read_columns[w], seg * kSegmentRows);
          txn->Write(amount, seg * kSegmentRows + w, storage::EncodeInt64(i));
        }
        (void)db->Commit(txn.get());
      }
    });
  }

  // EXPECT, not ASSERT: the writers must be joined on every path.
  for (int round = 0; round < 3; ++round) {
    auto ctx = db->BeginOlap({balance});
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    if (ctx.ok()) {
      EXPECT_TRUE(db->FinishOlap(ctx.TakeValue()).ok());
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_FALSE(writer_expired.load())
      << "FinishOlap kept spilling for the writers' whole lifetime";
  EXPECT_GT(db->cold_stats().counters.segments_evicted, 0u);
  db->Stop();
}

TEST_P(ColdTierTest, ValidateRejectsBadColdKnobs) {
  DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
  config.cold_budget_bytes = 1;
  EXPECT_FALSE(config.Validate().ok()) << "budget without data_dir";
  config.data_dir = dir_;
  EXPECT_TRUE(config.Validate().ok());
  config.cold_segment_rows = 1000;  // Not a power of two.
  EXPECT_FALSE(config.Validate().ok());
  config.cold_segment_rows = 512;  // Below the floor.
  EXPECT_FALSE(config.Validate().ok());
  config.cold_segment_rows = 1 << 25;  // Above kMaxExtentRows.
  EXPECT_FALSE(config.Validate().ok());
  config.cold_segment_rows = 4096;
  EXPECT_TRUE(config.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ColdTierTest,
    ::testing::Values(txn::ProcessingMode::kHeterogeneousSerializable,
                      txn::ProcessingMode::kHomogeneousSnapshotIsolation),
    [](const ::testing::TestParamInfo<txn::ProcessingMode>& info) {
      return info.param == txn::ProcessingMode::kHeterogeneousSerializable
                 ? "heterogeneous"
                 : "homogeneous";
    });

}  // namespace
}  // namespace anker::engine
