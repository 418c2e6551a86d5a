#include "engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "storage/value.h"
#include "vm/page.h"

namespace anker::engine {
namespace {

std::unique_ptr<storage::Column> MakeColumn(size_t rows) {
  auto buffer = snapshot::CreateBuffer(
      snapshot::BufferBackend::kVmSnapshot,
      vm::RoundUpToPage(rows * sizeof(uint64_t)));
  EXPECT_TRUE(buffer.ok());
  auto column = std::make_unique<storage::Column>(
      "c", storage::ValueType::kInt64, buffer.TakeValue(), rows);
  for (size_t row = 0; row < rows; ++row) {
    column->LoadValue(row, storage::EncodeInt64(static_cast<int64_t>(row)));
  }
  return column;
}

TEST(ColumnReaderTest, LiveReaderResolvesVersions) {
  auto column = MakeColumn(100);
  column->ApplyCommittedWrite(5, 999, /*commit_ts=*/10);
  const ColumnReader old_reader = ColumnReader::ForLive(column.get(), 5);
  const ColumnReader new_reader = ColumnReader::ForLive(column.get(), 10);
  EXPECT_EQ(old_reader.Get(5), 5u);    // pre-commit value
  EXPECT_EQ(new_reader.Get(5), 999u);  // post-commit value
  EXPECT_EQ(old_reader.Get(6), 6u);    // untouched row
}

TEST(ColumnReaderTest, SnapshotReaderResolvesHandedOverChains) {
  auto column = MakeColumn(100);
  // Epoch triggered at ts 4; a commit at ts 6 lands before materialization.
  column->ApplyCommittedWrite(5, 999, /*commit_ts=*/6);
  auto snap = column->MaterializeSnapshot(/*epoch_ts=*/4, /*seal_ts=*/8,
                                          /*min_active_ts=*/100);
  ASSERT_TRUE(snap.ok());
  const ColumnReader reader =
      ColumnReader::ForSnapshot(snap.value(), column->num_rows());
  // Reading at the epoch ts must resolve past the ts-6 commit.
  EXPECT_EQ(reader.Get(5), 5u);
  EXPECT_EQ(reader.Get(6), 6u);
}

TEST(ScanDriverTest, SumOverUnversionedColumnIsTight) {
  auto column = MakeColumn(5000);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), 100);
  ScanStats stats;
  const double sum = ScanColumnSum(reader, /*as_double=*/false, &stats);
  EXPECT_DOUBLE_EQ(sum, 5000.0 * 4999.0 / 2.0);
  EXPECT_EQ(stats.resolved_rows, 0u);
  EXPECT_GT(stats.tight_rows, 0u);
}

TEST(ScanDriverTest, RelevantVersionsUseHintedPath) {
  auto column = MakeColumn(4 * mvcc::kRowsPerBlock);
  // Version a single row in block 1 at ts 50; a reader at ts 10 must
  // resolve it (versions newer than the reader are relevant).
  const size_t victim = mvcc::kRowsPerBlock + 10;
  column->ApplyCommittedWrite(victim, 0, /*commit_ts=*/50);

  const ColumnReader reader = ColumnReader::ForLive(column.get(), 10);
  ScanStats stats;
  const double sum = ScanColumnSum(reader, /*as_double=*/false, &stats);
  // The old reader resolves the victim's pre-commit value: sum unchanged.
  const double n = 4.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(sum, n * (n - 1.0) / 2.0);
  EXPECT_EQ(stats.tight_rows, 3 * mvcc::kRowsPerBlock);
  EXPECT_EQ(stats.hinted_rows, mvcc::kRowsPerBlock);
}

TEST(ScanDriverTest, LiveFreshReaderStillChecksChains) {
  // The homogeneous baseline checks timestamps per record inside versioned
  // ranges even when the reader is newer than every version — that is the
  // per-row cost Figures 7/9 measure.
  auto column = MakeColumn(4 * mvcc::kRowsPerBlock);
  const size_t victim = mvcc::kRowsPerBlock + 10;
  column->ApplyCommittedWrite(victim, 0, /*commit_ts=*/50);

  const ColumnReader reader = ColumnReader::ForLive(column.get(), 100);
  ScanStats stats;
  const double sum = ScanColumnSum(reader, /*as_double=*/false, &stats);
  const double expected =
      (4.0 * mvcc::kRowsPerBlock) * (4.0 * mvcc::kRowsPerBlock - 1.0) / 2.0 -
      static_cast<double>(victim);  // victim now reads 0
  EXPECT_DOUBLE_EQ(sum, expected);
  EXPECT_EQ(stats.tight_rows, 3 * mvcc::kRowsPerBlock);
  EXPECT_EQ(stats.hinted_rows, mvcc::kRowsPerBlock);
}

TEST(ScanDriverTest, SnapshotReaderSkipsIrrelevantChains) {
  // Snapshot readers prove blocks version-free from the block max_ts: the
  // handed-over chains predate the epoch, so the scan is fully tight —
  // "without considering the version chains at all" (paper, Fig. 1).
  auto column = MakeColumn(4 * mvcc::kRowsPerBlock);
  const size_t victim = mvcc::kRowsPerBlock + 10;
  column->ApplyCommittedWrite(victim, 0, /*commit_ts=*/50);
  auto snap = column->MaterializeSnapshot(/*epoch_ts=*/100, /*seal_ts=*/101,
                                          /*min_active_ts=*/1);
  ASSERT_TRUE(snap.ok());
  ASSERT_NE(snap.value().chains, nullptr);

  const ColumnReader reader =
      ColumnReader::ForSnapshot(snap.value(), column->num_rows());
  ScanStats stats;
  const double sum = ScanColumnSum(reader, /*as_double=*/false, &stats);
  const double expected =
      (4.0 * mvcc::kRowsPerBlock) * (4.0 * mvcc::kRowsPerBlock - 1.0) / 2.0 -
      static_cast<double>(victim);
  EXPECT_DOUBLE_EQ(sum, expected);
  EXPECT_EQ(stats.tight_rows, 4 * mvcc::kRowsPerBlock);
  EXPECT_EQ(stats.hinted_rows, 0u);
  EXPECT_EQ(stats.resolved_rows, 0u);
}

TEST(ScanDriverTest, OldReaderSeesOldValuesInVersionedBlock) {
  auto column = MakeColumn(2 * mvcc::kRowsPerBlock);
  column->ApplyCommittedWrite(3, 333, /*commit_ts=*/50);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), /*ts=*/10);
  ScanStats stats;
  const double sum = ScanColumnSum(reader, /*as_double=*/false, &stats);
  // The old reader resolves the pre-commit value 3 -> sum unchanged.
  const double n = 2.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(sum, n * (n - 1.0) / 2.0);
}

TEST(ScanDriverTest, MultiColumnFold) {
  auto col_a = MakeColumn(3000);
  auto col_b = MakeColumn(3000);
  const ColumnReader a = ColumnReader::ForLive(col_a.get(), 100);
  const ColumnReader b = ColumnReader::ForLive(col_b.get(), 100);
  ScanDriver driver({&a, &b});
  uint64_t matches = 0;
  driver.FoldBlockwise<uint64_t>(
      &matches,
      [](uint64_t& acc, const ScanBlock& block) {
        for (size_t r = 0; r < block.rows; ++r) {
          if (block.cols[0][r] == block.cols[1][r]) ++acc;  // always equal
        }
      },
      [](uint64_t& total, uint64_t&& local) { total += local; });
  EXPECT_EQ(matches, 3000u);
}

TEST(ScanDriverTest, MismatchedRowCountsDie) {
  auto col_a = MakeColumn(100);
  auto col_b = MakeColumn(200);
  const ColumnReader a = ColumnReader::ForLive(col_a.get(), 1);
  const ColumnReader b = ColumnReader::ForLive(col_b.get(), 1);
  EXPECT_DEATH(ScanDriver({&a, &b}), "CHECK");
}

TEST(ScanDriverTest, HintedSplitResolvesPerColumnRanges) {
  // Two columns with disjoint versioned ranges in the same block: the
  // resolve range is their union, but each column only resolves inside its
  // own [first, last] hint; everything else reads raw.
  auto col_a = MakeColumn(2 * mvcc::kRowsPerBlock);
  auto col_b = MakeColumn(2 * mvcc::kRowsPerBlock);
  for (size_t row = 10; row <= 20; ++row) {
    col_a->ApplyCommittedWrite(row, storage::EncodeInt64(-1), /*ts=*/50);
  }
  for (size_t row = 900; row <= 910; ++row) {
    col_b->ApplyCommittedWrite(row, storage::EncodeInt64(-2), /*ts=*/60);
  }
  const ColumnReader a = ColumnReader::ForLive(col_a.get(), /*ts=*/10);
  const ColumnReader b = ColumnReader::ForLive(col_b.get(), /*ts=*/10);
  ScanDriver driver({&a, &b});
  struct Acc {
    double sum_a = 0;
    double sum_b = 0;
  };
  Acc total{};
  ScanStats stats;
  driver.FoldBlockwise<Acc>(
      &total,
      [](Acc& acc, const ScanBlock& block) {
        for (size_t r = 0; r < block.rows; ++r) {
          acc.sum_a +=
              static_cast<double>(storage::DecodeInt64(block.cols[0][r]));
          acc.sum_b +=
              static_cast<double>(storage::DecodeInt64(block.cols[1][r]));
        }
      },
      [](Acc& into, Acc&& from) {
        into.sum_a += from.sum_a;
        into.sum_b += from.sum_b;
      },
      &stats);
  // The ts-10 reader resolves every versioned row to its pre-commit value:
  // both sums equal the undisturbed arithmetic series.
  const double n = 2.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(total.sum_a, n * (n - 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(total.sum_b, n * (n - 1.0) / 2.0);
  EXPECT_EQ(stats.hinted_rows, mvcc::kRowsPerBlock);
  EXPECT_EQ(stats.tight_rows, mvcc::kRowsPerBlock);
}

TEST(ScanDriverTest, InjectedCommitBetweenClassifyAndValidateRetriesSafely) {
  // Deterministic seqlock race: a commit lands after ClassifyBlock chose
  // a tight block and before BlockStable validated it. The scan must
  // redo that block from safe staging and still produce the
  // fold result for its read timestamp.
  auto column = MakeColumn(2 * mvcc::kRowsPerBlock);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), /*ts=*/10);
  ScanDriver driver({&reader});

  ScanOptions options;
  bool injected = false;
  options.on_block_classified = [&](size_t block) {
    if (block == 0 && !injected) {
      injected = true;
      column->ApplyCommittedWrite(5, storage::EncodeInt64(-777),
                                  /*commit_ts=*/50);
    }
  };

  double total = 0.0;
  ScanStats stats;
  driver.FoldBlockwise<double>(
      &total,
      [](double& acc, const ScanBlock& block) {
        for (size_t r = 0; r < block.rows; ++r) {
          acc += static_cast<double>(storage::DecodeInt64(block.cols[0][r]));
        }
      },
      [](double& into, double&& from) { into += from; }, &stats, options);

  ASSERT_TRUE(injected);
  // The ts-10 reader resolves row 5's pre-commit value through the chain
  // the committer published: the sum is exactly the loaded series.
  const double n = 2.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(total, n * (n - 1.0) / 2.0);
  EXPECT_EQ(stats.seqlock_retries, 1u);
  EXPECT_EQ(stats.resolved_rows, mvcc::kRowsPerBlock);  // block 0, redone
  EXPECT_EQ(stats.tight_rows, mvcc::kRowsPerBlock);     // block 1, stable
}

TEST(ScanDriverTest, ParallelFoldMatchesSerialResult) {
  auto column = MakeColumn(64 * mvcc::kRowsPerBlock);
  // Sprinkle versions over a few blocks so every block class participates.
  for (size_t block : {3u, 17u, 42u}) {
    for (size_t i = 0; i < 5; ++i) {
      const size_t row = block * mvcc::kRowsPerBlock + 100 + i * 7;
      column->ApplyCommittedWrite(row, storage::EncodeInt64(-9), /*ts=*/50);
    }
  }
  const ColumnReader reader = ColumnReader::ForLive(column.get(), /*ts=*/10);

  ScanStats serial_stats;
  const double serial =
      ScanColumnSum(reader, /*as_double=*/false, &serial_stats);

  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.max_threads = 4;
  options.morsel_blocks = 4;
  ScanStats parallel_stats;
  const double parallel =
      ScanColumnSum(reader, /*as_double=*/false, &parallel_stats, options);

  EXPECT_DOUBLE_EQ(parallel, serial);
  EXPECT_EQ(parallel_stats.tight_rows, serial_stats.tight_rows);
  EXPECT_EQ(parallel_stats.hinted_rows, serial_stats.hinted_rows);
  EXPECT_EQ(parallel_stats.resolved_rows, serial_stats.resolved_rows);
}

TEST(ScanDriverTest, ParallelMultiColumnGroupByMatchesSerial) {
  auto col_key = MakeColumn(32 * mvcc::kRowsPerBlock);
  auto col_val = MakeColumn(32 * mvcc::kRowsPerBlock);
  const ColumnReader key = ColumnReader::ForLive(col_key.get(), 100);
  const ColumnReader val = ColumnReader::ForLive(col_val.get(), 100);
  ScanDriver driver({&key, &val});

  struct Acc {
    double sums[8] = {0};
    uint64_t rows = 0;
  };
  auto block_fn = [](Acc& acc, const ScanBlock& block) {
    for (size_t r = 0; r < block.rows; ++r) {
      ++acc.rows;
      acc.sums[storage::DecodeInt64(block.cols[0][r]) & 7] +=
          static_cast<double>(storage::DecodeInt64(block.cols[1][r]));
    }
  };
  auto merge_fn = [](Acc& into, Acc&& from) {
    into.rows += from.rows;
    for (int i = 0; i < 8; ++i) into.sums[i] += from.sums[i];
  };

  Acc serial{};
  driver.FoldBlockwise<Acc>(&serial, block_fn, merge_fn);

  ThreadPool pool(3);
  ScanOptions options;
  options.pool = &pool;
  options.max_threads = 3;
  options.morsel_blocks = 2;
  Acc parallel{};
  driver.FoldBlockwise<Acc>(&parallel, block_fn, merge_fn, nullptr, options);

  EXPECT_EQ(parallel.rows, serial.rows);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(parallel.sums[i], serial.sums[i]) << "group " << i;
  }
}

TEST(ScanDriverTest, ConcurrentCommitsNeverLeakFutureValues) {
  // Scanner at ts=T races with a committer writing at ts>T; the fold must
  // never observe a post-T value (seqlock retry + chain resolution).
  auto column = MakeColumn(8 * mvcc::kRowsPerBlock);
  const size_t rows = column->num_rows();
  std::atomic<bool> stop{false};

  // Bounded commit volume: an unbounded tight loop would allocate version
  // nodes faster than the scans retire (no GC in this test) and OOM the
  // process on a small machine.
  constexpr uint64_t kMaxCommits = 400000;
  std::thread committer([&] {
    uint64_t ts = 1000;
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed) &&
           ts < 1000 + kMaxCommits) {
      const size_t row = rng.NextBounded(rows);
      column->ApplyCommittedWrite(
          row, storage::EncodeInt64(-1), ts++);
    }
  });

  // All commits use ts >= 1000; scanning at ts=10 must always return the
  // loaded values whose sum is fixed.
  const double expected =
      static_cast<double>(rows) * (static_cast<double>(rows) - 1.0) / 2.0;
  for (int round = 0; round < 20; ++round) {
    const ColumnReader reader = ColumnReader::ForLive(column.get(), 10);
    const double sum = ScanColumnSum(reader, /*as_double=*/false, nullptr);
    ASSERT_DOUBLE_EQ(sum, expected) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  committer.join();
}

// ---- FoldBlockwise span exposure and staging ----

double BlockwiseSum(const ScanDriver& driver, ScanStats* stats = nullptr,
                    const ScanOptions& options = ScanOptions()) {
  double total = 0.0;
  driver.FoldBlockwise<double>(
      &total,
      [](double& acc, const ScanBlock& block) {
        for (size_t i = 0; i < block.rows; ++i) {
          acc += static_cast<double>(
              storage::DecodeInt64(block.cols[0][i]));
        }
      },
      [](double& into, double&& from) { into += from; }, stats, options);
  return total;
}

TEST(FoldBlockwiseTest, TightBlocksExposeRawSpans) {
  auto column = MakeColumn(3 * mvcc::kRowsPerBlock + 123);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), 100);
  ScanDriver driver({&reader});
  ScanStats stats;
  const double n = 3.0 * mvcc::kRowsPerBlock + 123;
  EXPECT_DOUBLE_EQ(BlockwiseSum(driver, &stats), n * (n - 1.0) / 2.0);
  EXPECT_EQ(stats.tight_rows, static_cast<size_t>(n));
  EXPECT_EQ(stats.hinted_rows, 0u);
  EXPECT_EQ(stats.resolved_rows, 0u);
}

TEST(FoldBlockwiseTest, VersionedBlocksAreStagedAndResolved) {
  auto column = MakeColumn(4 * mvcc::kRowsPerBlock);
  // Version rows in block 1; an old reader must see pre-commit values.
  const size_t victim = mvcc::kRowsPerBlock + 10;
  column->ApplyCommittedWrite(victim, storage::EncodeInt64(-1000),
                              /*commit_ts=*/50);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), 10);
  ScanDriver driver({&reader});
  ScanStats stats;
  const double n = 4.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(BlockwiseSum(driver, &stats), n * (n - 1.0) / 2.0);
  EXPECT_EQ(stats.hinted_rows, mvcc::kRowsPerBlock);
  EXPECT_EQ(stats.tight_rows, 3 * mvcc::kRowsPerBlock);
}

TEST(FoldBlockwiseTest, NewReaderSeesCommittedValueThroughStaging) {
  auto column = MakeColumn(2 * mvcc::kRowsPerBlock);
  column->ApplyCommittedWrite(7, storage::EncodeInt64(1000000),
                              /*commit_ts=*/50);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), 60);
  ScanDriver driver({&reader});
  const double n = 2.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(BlockwiseSum(driver),
                   n * (n - 1.0) / 2.0 - 7.0 + 1000000.0);
}

TEST(FoldBlockwiseTest, InjectedCommitRetriesBlockSafely) {
  auto column = MakeColumn(2 * mvcc::kRowsPerBlock);
  const ColumnReader reader = ColumnReader::ForLive(column.get(), /*ts=*/10);
  ScanDriver driver({&reader});

  ScanOptions options;
  bool injected = false;
  options.on_block_classified = [&](size_t block) {
    if (block == 0 && !injected) {
      injected = true;
      column->ApplyCommittedWrite(5, storage::EncodeInt64(-777),
                                  /*commit_ts=*/50);
    }
  };
  ScanStats stats;
  const double n = 2.0 * mvcc::kRowsPerBlock;
  EXPECT_DOUBLE_EQ(BlockwiseSum(driver, &stats, options),
                   n * (n - 1.0) / 2.0);
  ASSERT_TRUE(injected);
  EXPECT_EQ(stats.seqlock_retries, 1u);
  EXPECT_EQ(stats.resolved_rows, mvcc::kRowsPerBlock);
}

TEST(FoldBlockwiseTest, ParallelMatchesSerial) {
  auto column = MakeColumn(64 * mvcc::kRowsPerBlock);
  for (size_t block : {3u, 17u, 42u}) {
    for (size_t i = 0; i < 5; ++i) {
      const size_t row = block * mvcc::kRowsPerBlock + 100 + i * 7;
      column->ApplyCommittedWrite(row, storage::EncodeInt64(-9), /*ts=*/50);
    }
  }
  const ColumnReader reader = ColumnReader::ForLive(column.get(), 60);
  ScanDriver driver({&reader});
  const double serial = BlockwiseSum(driver);

  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.max_threads = 4;
  options.morsel_blocks = 4;
  EXPECT_DOUBLE_EQ(BlockwiseSum(driver, nullptr, options), serial);
}

}  // namespace
}  // namespace anker::engine
