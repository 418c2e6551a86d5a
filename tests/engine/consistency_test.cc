// Whole-stack consistency tests: concurrent balance transfers conserve a
// global total; every read-consistent view of the database (OLAP snapshot
// or live MVCC read) must therefore sum to exactly that total at any time.
// A single torn read, lost update, stale chain resolution or snapshot that
// mixes two epochs breaks the invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "engine/database.h"
#include "storage/value.h"

namespace anker::engine {
namespace {

constexpr size_t kAccounts = 8192;
constexpr int64_t kInitialBalance = 1000;

class ConsistencyTest : public ::testing::TestWithParam<txn::ProcessingMode> {
 protected:
  void SetUp() override {
    DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
    config.snapshot_interval_commits = 500;  // high-frequency epochs
    config.gc_interval_millis = 20;
    db_ = std::make_unique<Database>(config);
    db_->Start();
    auto table = db_->CreateTable(
        "accounts", {{"balance", storage::ValueType::kInt64}}, kAccounts);
    ASSERT_TRUE(table.ok());
    balance_ = table.value()->GetColumn("balance");
    for (size_t row = 0; row < kAccounts; ++row) {
      balance_->LoadValue(row, storage::EncodeInt64(kInitialBalance));
    }
  }

  /// One random transfer; returns true if committed.
  bool Transfer(Rng* rng) {
    auto txn = db_->BeginOltp();
    const uint64_t from = rng->NextBounded(kAccounts);
    uint64_t to = rng->NextBounded(kAccounts);
    if (to == from) to = (to + 1) % kAccounts;
    const int64_t amount = rng->NextInRange(1, 50);
    const int64_t from_balance =
        storage::DecodeInt64(txn->Read(balance_, from));
    const int64_t to_balance = storage::DecodeInt64(txn->Read(balance_, to));
    txn->Write(balance_, from, storage::EncodeInt64(from_balance - amount));
    txn->Write(balance_, to, storage::EncodeInt64(to_balance + amount));
    return db_->Commit(txn.get()).ok();
  }

  /// Sums all balances through a consistent OLAP view.
  int64_t OlapTotal() {
    auto ctx = db_->BeginOlap({balance_});
    EXPECT_TRUE(ctx.ok());
    const ColumnReader reader = ctx.value()->Reader(balance_);
    ScanDriver driver({&reader});
    int64_t total = 0;
    driver.FoldBlockwise<int64_t>(
        &total,
        [](int64_t& acc, const ScanBlock& block) {
          for (size_t r = 0; r < block.rows; ++r) {
            acc += storage::DecodeInt64(block.cols[0][r]);
          }
        },
        [](int64_t& into, int64_t&& from) { into += from; });
    EXPECT_TRUE(db_->FinishOlap(ctx.TakeValue()).ok());
    return total;
  }

  std::unique_ptr<Database> db_;
  storage::Column* balance_ = nullptr;
};

TEST_P(ConsistencyTest, SequentialTransfersConserveTotal) {
  Rng rng(1);
  int committed = 0;
  for (int i = 0; i < 2000; ++i) {
    if (Transfer(&rng)) ++committed;
  }
  EXPECT_GT(committed, 1500);
  EXPECT_EQ(OlapTotal(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
}

TEST_P(ConsistencyTest, ConcurrentTransfersConserveTotal) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> workers;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 100);
      for (int i = 0; i < kPerThread; ++i) {
        if (Transfer(&rng)) committed.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_GT(committed.load(), kThreads * kPerThread / 2);
  EXPECT_EQ(OlapTotal(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
}

TEST_P(ConsistencyTest, EverySnapshotDuringChurnSeesExactTotal) {
  // The strongest check: while transfers churn on background threads,
  // repeated OLAP reads must see the invariant total *every single time*.
  // Any snapshot mixing two commits' halves, or a scan leaking a
  // too-new/too-old version, shows up as an off-by-amount total.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)Transfer(&rng);
      }
    });
  }
  const int64_t expected =
      static_cast<int64_t>(kAccounts) * kInitialBalance;
  for (int round = 0; round < 30; ++round) {
    ASSERT_EQ(OlapTotal(), expected) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ConsistencyTest,
    ::testing::Values(txn::ProcessingMode::kHomogeneousSerializable,
                      txn::ProcessingMode::kHomogeneousSnapshotIsolation,
                      txn::ProcessingMode::kHeterogeneousSerializable),
    [](const ::testing::TestParamInfo<txn::ProcessingMode>& info) {
      switch (info.param) {
        case txn::ProcessingMode::kHomogeneousSerializable:
          return "HomogeneousSerializable";
        case txn::ProcessingMode::kHomogeneousSnapshotIsolation:
          return "HomogeneousSnapshotIsolation";
        case txn::ProcessingMode::kHeterogeneousSerializable:
          return "HeterogeneousSerializable";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace anker::engine
