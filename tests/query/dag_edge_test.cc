// Operator-DAG edge cases: joins against empty or unmatched build sides,
// top-k degenerate limits, spill-to-disk mid-query, and a deterministic
// seqlock retry injected between block classification and validation
// while a DAG join is probing.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "query/dag.h"
#include "query/query.h"

namespace anker::query {
namespace {

/// Probe table "events" (id, tag, price) plus build table "dims"
/// (key, factor): ids cover 0..99, dims keys only 0..49, so half the
/// probe rows miss the build side by construction.
struct JoinDb {
  explicit JoinDb(txn::ProcessingMode mode =
                      txn::ProcessingMode::kHomogeneousSnapshotIsolation,
                  size_t rows = 4000)
      : num_rows(rows) {
    engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(mode);
    db = std::make_unique<engine::Database>(config);
    db->Start();
    auto created = db->CreateTable(
        "events",
        {{"id", storage::ValueType::kInt64},
         {"tag", storage::ValueType::kDict32},
         {"price", storage::ValueType::kDouble}},
        rows);
    ANKER_CHECK(created.ok());
    events = created.value();
    storage::Dictionary* tags = events->GetDictionary("tag");
    const char* names[4] = {"red", "green", "blue", "grey"};
    for (const char* name : names) tags->GetOrAdd(name);
    for (size_t row = 0; row < rows; ++row) {
      events->GetColumn("id")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row % 100)));
      events->GetColumn("tag")->LoadValue(
          row, storage::EncodeDict(static_cast<uint32_t>(row % 4)));
      events->GetColumn("price")
          ->LoadValue(row, storage::EncodeDouble(Price(row)));
    }

    auto dims_created = db->CreateTable(
        "dims",
        {{"key", storage::ValueType::kInt64},
         {"factor", storage::ValueType::kDouble}},
        50);
    ANKER_CHECK(dims_created.ok());
    dims = dims_created.value();
    for (size_t row = 0; row < 50; ++row) {
      dims->GetColumn("key")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row)));
      dims->GetColumn("factor")
          ->LoadValue(row, storage::EncodeDouble(
                               2.0 + static_cast<double>(row % 7)));
    }
  }

  static double Price(size_t row) {
    return 1.0 + 0.25 * static_cast<double>(row % 37);
  }

  std::unique_ptr<engine::Database> db;
  storage::Table* events = nullptr;
  storage::Table* dims = nullptr;
  size_t num_rows;
};

TEST(DagEdgeTest, EmptyBuildSideJoins) {
  JoinDb fx;
  // The build filter selects nothing: key < 0 over keys 0..49.
  for (const JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti,
        JoinType::kLeftOuter}) {
    auto query = Query::On(fx.events)
                     .Join(JoinInput(fx.dims, Col("key") < I64(0)), type,
                           {"id"}, {"key"})
                     .Aggregate({Count().As("n"),
                                 Sum(Col("price")).As("total")})
                     .Build();
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_FALSE(query.value().plan().dag->leaf.present);
    auto result = fx.db->Run(query.value(), Params());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    switch (type) {
      case JoinType::kInner:
      case JoinType::kLeftSemi:
        // No build rows, no matches: a global aggregate still emits its
        // identity row (count = 0, sum = 0), exactly like the fused fast
        // paths do over an empty selection.
        ASSERT_EQ(result.value().rows.size(), 1u);
        EXPECT_DOUBLE_EQ(result.value().Value("n"), 0.0);
        EXPECT_DOUBLE_EQ(result.value().Value("total"), 0.0);
        break;
      case JoinType::kLeftAnti:
      case JoinType::kLeftOuter:
        // Anti keeps everything; outer pads everything.
        ASSERT_EQ(result.value().rows.size(), 1u);
        EXPECT_DOUBLE_EQ(result.value().Value("n"),
                         static_cast<double>(fx.num_rows));
        break;
    }
  }
}

TEST(DagEdgeTest, UnmatchedKeysAcrossJoinTypes) {
  JoinDb fx;
  // ids 50..99 have no dims row. Expected per join type over all rows.
  double matched_price = 0.0, unmatched_price = 0.0;
  size_t matched_n = 0;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    if (row % 100 < 50) {
      matched_price += JoinDb::Price(row);
      ++matched_n;
    } else {
      unmatched_price += JoinDb::Price(row);
    }
  }

  auto run = [&](JoinType type) {
    auto query = Query::On(fx.events)
                     .Join(JoinInput(fx.dims), type, {"id"}, {"key"})
                     .Aggregate({Count().As("n"),
                                 Sum(Col("price")).As("total")})
                     .Build();
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto result = fx.db->Run(query.value(), Params());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  };

  QueryResult semi = run(JoinType::kLeftSemi);
  EXPECT_DOUBLE_EQ(semi.Value("n"), static_cast<double>(matched_n));
  EXPECT_NEAR(semi.Value("total"), matched_price, 1e-9);

  QueryResult anti = run(JoinType::kLeftAnti);
  EXPECT_DOUBLE_EQ(anti.Value("n"),
                   static_cast<double>(fx.num_rows - matched_n));
  EXPECT_NEAR(anti.Value("total"), unmatched_price, 1e-9);

  // Inner: every matching probe row pairs with exactly one dims row.
  QueryResult inner = run(JoinType::kInner);
  EXPECT_DOUBLE_EQ(inner.Value("n"), static_cast<double>(matched_n));

  // Left outer keeps all rows; __matched flags the padded ones.
  auto outer = Query::On(fx.events)
                   .Join(JoinInput(fx.dims), JoinType::kLeftOuter, {"id"},
                         {"key"})
                   .Aggregate({Count().As("n"),
                               Sum(Col("__matched")).As("matches"),
                               Sum(Col("factor")).As("factor_sum")})
                   .Build();
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  auto outer_result = fx.db->Run(outer.value(), Params());
  ASSERT_TRUE(outer_result.ok());
  EXPECT_DOUBLE_EQ(outer_result.value().Value("n"),
                   static_cast<double>(fx.num_rows));
  EXPECT_DOUBLE_EQ(outer_result.value().Value("matches"),
                   static_cast<double>(matched_n));
  // Padded rows contribute zeroed build columns to factor_sum.
  double factor_sum = 0.0;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    if (row % 100 < 50) factor_sum += 2.0 + static_cast<double>(row % 100 % 7);
  }
  EXPECT_NEAR(outer_result.value().Value("factor_sum"), factor_sum, 1e-9);
}

TEST(DagEdgeTest, FilterSpanningBothJoinSidesRunsAfterTheJoin) {
  JoinDb fx;
  // price (probe) < factor (build): no scan covers the conjunct, so it
  // lands on the join whose output first has both columns.
  auto pushed = Query::On(fx.events)
                    .Join(JoinInput(fx.dims), JoinType::kInner, {"id"},
                          {"key"})
                    .Filter(Col("price") < Col("factor"))
                    .Select({{"id", ""}, {"price", ""}, {"factor", ""}})
                    .Build();
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  const DagPlan& dag = *pushed.value().plan().dag;
  ASSERT_EQ(dag.joins.size(), 1u);
  EXPECT_EQ(dag.joins[0].post_filters.size(), 1u);
  EXPECT_TRUE(dag.scan.preds.empty() && dag.scan.generic_preds.empty());

  auto post = Query::On(fx.events)
                  .Join(JoinInput(fx.dims), JoinType::kInner, {"id"},
                        {"key"})
                  .PostFilter(Col("price") < Col("factor"))
                  .Select({{"id", ""}, {"price", ""}, {"factor", ""}})
                  .Build();
  ASSERT_TRUE(post.ok()) << post.status().ToString();

  auto pushed_result = fx.db->Run(pushed.value(), Params());
  auto post_result = fx.db->Run(post.value(), Params());
  ASSERT_TRUE(pushed_result.ok()) << pushed_result.status().ToString();
  ASSERT_TRUE(post_result.ok()) << post_result.status().ToString();
  size_t expected = 0;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    const size_t id = row % 100;
    if (id < 50 && JoinDb::Price(row) < 2.0 + static_cast<double>(id % 7)) {
      ++expected;
    }
  }
  ASSERT_EQ(pushed_result.value().rows.size(), expected);
  ASSERT_EQ(post_result.value().rows.size(), expected);
  for (size_t r = 0; r < expected; ++r) {
    EXPECT_EQ(pushed_result.value().rows[r].keys,
              post_result.value().rows[r].keys);
    EXPECT_EQ(pushed_result.value().rows[r].values,
              post_result.value().rows[r].values);
  }
}

TEST(DagEdgeTest, BareLimitKeepsScanOrderAcrossScanThreads) {
  JoinDb fx;
  // A Limit without OrderBy keeps the first n rows of the scan; the scan
  // reassembles block order, so a 4-thread scan of single-block morsels
  // returns the same rows.
  auto query = Query::On(fx.events)
                   .Select({{"id", ""}, {"price", ""}})
                   .Limit(5)
                   .Build();
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ThreadPool pool(4);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    engine::ScanOptions scan_options;
    scan_options.pool = &pool;
    scan_options.max_threads = threads;
    scan_options.morsel_blocks = 1;
    ExecOptions options;
    options.scan_options = &scan_options;
    auto result = fx.db->Run(query.value(), Params(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().rows.size(), 5u) << threads << " threads";
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(result.value().rows[r].keys[0], r) << threads << " threads";
      EXPECT_EQ(result.value().rows[r].values[0], JoinDb::Price(r))
          << threads << " threads";
    }
  }
}

TEST(DagEdgeTest, WindowRowNumberCountAndMinMatchReference) {
  JoinDb fx;
  auto query = Query::On(fx.events)
                   .Window({WinRowNumber("rn"), WinCount("cnt"),
                            WinMin(Col("price"), "min_price")},
                           {"tag"}, {{"price", false}})
                   .Select({{"tag", ""}, {"price", ""}, {"rn", ""},
                            {"cnt", ""}, {"min_price", ""}})
                   .Build();
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), fx.num_rows);

  // Per tag: partition size and minimum price.
  std::map<uint64_t, std::pair<double, double>> expected;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    auto [it, fresh] = expected.try_emplace(row % 4, 0.0, 1e300);
    it->second.first += 1.0;
    it->second.second = std::min(it->second.second, JoinDb::Price(row));
  }
  // Rows arrive partition by partition, ordered by price within one.
  double rn = 0;
  for (size_t r = 0; r < result.value().rows.size(); ++r) {
    const QueryResult::Row& row = result.value().rows[r];
    const bool starts = r == 0 || result.value().rows[r - 1].keys[0] !=
                                      row.keys[0];
    rn = starts ? 1.0 : rn + 1.0;
    if (!starts) {
      EXPECT_LE(result.value().rows[r - 1].values[0], row.values[0]);
    }
    const auto& [count, min_price] = expected.at(row.keys[0]);
    EXPECT_EQ(row.values[1], rn);         // rn
    EXPECT_EQ(row.values[2], count);      // cnt
    EXPECT_EQ(row.values[3], min_price);  // min_price
  }
}

TEST(DagEdgeTest, TopKDegenerateLimits) {
  JoinDb fx;
  auto build = [&](int64_t limit) {
    return Query::On(fx.events)
        .Aggregate({Sum(Col("price")).As("total")})
        .GroupBy({"id"})
        .OrderBy({{"total", true}})
        .Limit(limit)
        .Build();
  };

  // k far beyond the group count returns every group, still sorted.
  auto all = build(1000000);
  ASSERT_TRUE(all.ok());
  auto all_result = fx.db->Run(all.value(), Params());
  ASSERT_TRUE(all_result.ok());
  ASSERT_EQ(all_result.value().rows.size(), 100u);
  for (size_t r = 1; r < all_result.value().rows.size(); ++r) {
    EXPECT_GE(all_result.value().rows[r - 1].values[0],
              all_result.value().rows[r].values[0]);
  }

  // k = 0 is a valid degenerate top-k: no rows, no error.
  auto none = build(0);
  ASSERT_TRUE(none.ok());
  auto none_result = fx.db->Run(none.value(), Params());
  ASSERT_TRUE(none_result.ok());
  EXPECT_TRUE(none_result.value().rows.empty());

  // k = 1 returns exactly the maximum group.
  auto top1 = build(1);
  ASSERT_TRUE(top1.ok());
  auto top1_result = fx.db->Run(top1.value(), Params());
  ASSERT_TRUE(top1_result.ok());
  ASSERT_EQ(top1_result.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(top1_result.value().rows[0].values[0],
                   all_result.value().rows[0].values[0]);
}

TEST(DagEdgeTest, SpillMidQueryMatchesInMemory) {
  JoinDb fx;
  auto query = Query::On(fx.events)
                   .Join(JoinInput(fx.dims), JoinType::kInner, {"id"},
                         {"key"})
                   .Aggregate({Sum(Col("price") * Col("factor"))
                                   .As("weighted")})
                   .GroupBy({"id"})
                   .OrderBy({{"weighted", true}})
                   .Build();
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  auto in_memory = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(in_memory.ok());

  // A 1 KiB budget forces every tuple store past the threshold, so the
  // whole pipeline runs through spilled chunks.
  ExecOptions options;
  options.spill_threshold_bytes = 1024;
  auto spilled = fx.db->Run(query.value(), Params(), options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();

  ASSERT_EQ(spilled.value().rows.size(), in_memory.value().rows.size());
  for (size_t r = 0; r < in_memory.value().rows.size(); ++r) {
    EXPECT_EQ(spilled.value().rows[r].keys, in_memory.value().rows[r].keys);
    // Bit-identical, not approximately equal: the execution order must
    // not change under spilling.
    EXPECT_EQ(spilled.value().rows[r].values,
              in_memory.value().rows[r].values);
  }
}

TEST(DagEdgeTest, SeqlockRetryDuringDagProbe) {
  JoinDb fx(txn::ProcessingMode::kHomogeneousSnapshotIsolation);
  auto query = Query::On(fx.events)
                   .Join(JoinInput(fx.dims), JoinType::kInner, {"id"},
                         {"key"})
                   .Aggregate({Sum(Col("price")).As("total"),
                               Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());

  auto baseline = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(baseline.ok());

  // Inject a committed write between ClassifyBlock and the seqlock
  // validation of block 0: the scan must retry that block with the safe
  // kernel and keep reading its snapshot (the commit is invisible to the
  // already-started OLAP transaction).
  storage::Column* price = fx.events->GetColumn("price");
  bool injected = false;
  engine::ScanOptions scan_options;
  scan_options.on_block_classified = [&](size_t block) {
    if (block == 0 && !injected) {
      injected = true;
      auto txn = fx.db->BeginOltp();
      txn->Write(price, 7, storage::EncodeDouble(1e9));
      ANKER_CHECK(fx.db->Commit(txn.get()).ok());
    }
  };
  ExecOptions options;
  options.scan_options = &scan_options;
  auto raced = fx.db->Run(query.value(), Params(), options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  ASSERT_TRUE(injected);

  // Same snapshot-consistent answer as the undisturbed run.
  EXPECT_DOUBLE_EQ(raced.value().Value("total"),
                   baseline.value().Value("total"));
  EXPECT_DOUBLE_EQ(raced.value().Value("n"), baseline.value().Value("n"));
  EXPECT_GE(raced.value().scan.seqlock_retries, 1u);

  // A fresh transaction sees the committed write.
  auto after = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().Value("total"), baseline.value().Value("total"));
}

}  // namespace
}  // namespace anker::query
