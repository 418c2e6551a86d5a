#include "query/query.h"

#include <gtest/gtest.h>

#include <cmath>

#include "query/dag.h"

namespace anker::query {
namespace {

/// Small sensor-style fixture: 5000 readings across 3 stations with
/// deterministic values, loaded into a homogeneous (live-read) engine.
struct SensorDb {
  explicit SensorDb(txn::ProcessingMode mode =
                        txn::ProcessingMode::kHomogeneousSerializable,
                    size_t rows = 5000)
      : num_rows(rows) {
    engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(mode);
    // Trigger a snapshot epoch on every commit so heterogeneous tests see
    // fresh epochs immediately.
    config.snapshot_interval_commits = 1;
    db = std::make_unique<engine::Database>(config);
    db->Start();
    auto created = db->CreateTable(
        "readings",
        {{"sensor_id", storage::ValueType::kInt64},
         {"station", storage::ValueType::kDict32},
         {"day", storage::ValueType::kDate},
         {"temperature", storage::ValueType::kDouble},
         {"humidity", storage::ValueType::kDouble}},
        rows);
    ANKER_CHECK(created.ok());
    table = created.value();
    storage::Dictionary* stations = table->GetDictionary("station");
    const char* names[3] = {"alpha", "beta", "gamma"};
    for (const char* name : names) stations->GetOrAdd(name);
    for (size_t row = 0; row < rows; ++row) {
      table->GetColumn("sensor_id")
          ->LoadValue(row, storage::EncodeInt64(
                               static_cast<int64_t>(row % 17)));
      table->GetColumn("station")
          ->LoadValue(row, storage::EncodeDict(
                               static_cast<uint32_t>(row % 3)));
      table->GetColumn("day")->LoadValue(
          row, storage::EncodeDate(static_cast<int64_t>(row % 100)));
      table->GetColumn("temperature")
          ->LoadValue(row, storage::EncodeDouble(
                               10.0 + static_cast<double>(row % 50)));
      table->GetColumn("humidity")
          ->LoadValue(row, storage::EncodeDouble(
                               0.3 + 0.01 * static_cast<double>(row % 40)));
    }
  }

  double Temperature(size_t row) const {
    return 10.0 + static_cast<double>(row % 50);
  }
  int64_t Day(size_t row) const { return static_cast<int64_t>(row % 100); }

  std::unique_ptr<engine::Database> db;
  storage::Table* table = nullptr;
  size_t num_rows;
};

TEST(QueryExecTest, UngroupedSumCountMatchesReference) {
  SensorDb fx;
  const Expr t = Col("temperature");
  const Expr h = Col("humidity");
  auto query =
      Query::On(fx.table)
          .Filter(Col("day") < Param("cutoff", ExprType::kDate))
          .Aggregate({Sum(t).As("sum_temp"), Count().As("n"),
                      Sum(t * (F64(1.0) - h)).As("sum_disc"),
                      Sum(t * (F64(1.0) - h) * (F64(1.0) + h))
                          .As("sum_charge"),
                      Sum(t + h).As("sum_expr"), Min(t - h).As("min_expr"),
                      Max(t - h).As("max_expr")})
          .Build();
  ASSERT_TRUE(query.ok());
  auto result = fx.db->Run(query.value(), Params().SetDate("cutoff", 40));
  ASSERT_TRUE(result.ok());

  double expected_sum = 0;
  double expected_disc = 0, expected_charge = 0, expected_expr = 0;
  double expected_min = 1e300, expected_max = -1e300;
  uint64_t expected_n = 0;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    if (fx.Day(row) >= 40) continue;
    const double temp = fx.Temperature(row);
    const double hum = 0.3 + 0.01 * static_cast<double>(row % 40);
    expected_sum += temp;
    expected_disc += temp * (1.0 - hum);
    expected_charge += temp * (1.0 - hum) * (1.0 + hum);
    expected_expr += temp + hum;
    expected_min = std::min(expected_min, temp - hum);
    expected_max = std::max(expected_max, temp - hum);
    ++expected_n;
  }
  EXPECT_NEAR(result.value().Value("sum_temp"), expected_sum,
              std::abs(expected_sum) * 1e-12);
  EXPECT_DOUBLE_EQ(result.value().Value("n"),
                   static_cast<double>(expected_n));
  EXPECT_EQ(result.value().rows_scanned, fx.num_rows);
  // The two three-operand sum forms, and non-menu inputs evaluated by the
  // scalar interpreter, against the same row loop.
  EXPECT_NEAR(result.value().Value("sum_disc"), expected_disc,
              std::abs(expected_disc) * 1e-12);
  EXPECT_NEAR(result.value().Value("sum_charge"), expected_charge,
              std::abs(expected_charge) * 1e-12);
  EXPECT_NEAR(result.value().Value("sum_expr"), expected_expr,
              std::abs(expected_expr) * 1e-12);
  EXPECT_DOUBLE_EQ(result.value().Value("min_expr"), expected_min);
  EXPECT_DOUBLE_EQ(result.value().Value("max_expr"), expected_max);
}

TEST(QueryExecTest, GroupedFusedMatchesReference) {
  SensorDb fx;
  auto query =
      Query::On(fx.table)
          .Aggregate({Sum(Col("temperature")).As("sum_temp"),
                      Min(Col("temperature")).As("min_temp"),
                      Max(Col("temperature")).As("max_temp"),
                      Count().As("n")})
          .GroupBy({"station"})
          .Build();
  ASSERT_TRUE(query.ok());
  EXPECT_NE(query.value().plan().dag->leaf.fused, nullptr);
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 3u);

  for (const QueryResult::Row& row : result.value().rows) {
    const uint32_t station = static_cast<uint32_t>(row.keys[0]);
    double sum = 0, mn = 1e300, mx = -1e300;
    uint64_t n = 0;
    for (size_t r = 0; r < fx.num_rows; ++r) {
      if (r % 3 != station) continue;
      const double t = fx.Temperature(r);
      sum += t;
      mn = std::min(mn, t);
      mx = std::max(mx, t);
      ++n;
    }
    EXPECT_NEAR(row.values[0], sum, std::abs(sum) * 1e-12);
    EXPECT_DOUBLE_EQ(row.values[1], mn);
    EXPECT_DOUBLE_EQ(row.values[2], mx);
    EXPECT_DOUBLE_EQ(row.values[3], static_cast<double>(n));
  }
}

TEST(QueryExecTest, AvgAndExprAggregatesUseHiddenCount) {
  SensorDb fx;
  // (temperature + humidity) is outside the fused menu: exercises the
  // scalar-interpreted input of the grouped vectorized aggregate, plus
  // Avg's hidden count.
  auto query = Query::On(fx.table)
                   .Aggregate({Avg(Col("temperature") + Col("humidity"))
                                   .As("avg_combined")})
                   .GroupBy({"station"})
                   .Build();
  ASSERT_TRUE(query.ok());
  const DagLeaf& leaf = query.value().plan().dag->leaf;
  EXPECT_TRUE(leaf.present && leaf.key.grouped() && leaf.fused == nullptr);
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 3u);
  ASSERT_EQ(result.value().columns.size(), 1u);  // hidden count not shown

  for (const QueryResult::Row& row : result.value().rows) {
    const uint32_t station = static_cast<uint32_t>(row.keys[0]);
    double sum = 0;
    uint64_t n = 0;
    for (size_t r = 0; r < fx.num_rows; ++r) {
      if (r % 3 != station) continue;
      sum += fx.Temperature(r) + (0.3 + 0.01 * static_cast<double>(r % 40));
      ++n;
    }
    EXPECT_NEAR(row.values[0], sum / static_cast<double>(n), 1e-9);
  }
}

TEST(QueryExecTest, DictEqualityByStringAndGenericOrPredicate) {
  SensorDb fx;
  // String equality lowers to a dict-code range; the OR stays generic.
  auto query = Query::On(fx.table)
                   .Filter(Col("station") == Str("beta"))
                   .Filter(Col("day") < DateDays(10) ||
                           Col("day") >= DateDays(90))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  uint64_t expected = 0;
  for (size_t r = 0; r < fx.num_rows; ++r) {
    if (r % 3 != 1) continue;  // "beta" has code 1
    if (fx.Day(r) < 10 || fx.Day(r) >= 90) ++expected;
  }
  EXPECT_DOUBLE_EQ(result.value().Value("n"),
                   static_cast<double>(expected));
}

TEST(QueryExecTest, StringParameterResolvesThroughDictionary) {
  SensorDb fx;
  auto query = Query::On(fx.table)
                   .Filter(Col("station") ==
                           Param("which", ExprType::kDict))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto result =
      fx.db->Run(query.value(), Params().SetString("which", "gamma"));
  ASSERT_TRUE(result.ok());
  uint64_t expected = 0;
  for (size_t r = 0; r < fx.num_rows; ++r) {
    if (r % 3 == 2) ++expected;
  }
  EXPECT_DOUBLE_EQ(result.value().Value("n"),
                   static_cast<double>(expected));

  auto unknown =
      fx.db->Run(query.value(), Params().SetString("which", "nope"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(QueryExecTest, MissingAndMistypedParamsFailRecoverably) {
  SensorDb fx;
  auto query = Query::On(fx.table)
                   .Filter(Col("day") < Param("cutoff", ExprType::kDate))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto missing = fx.db->Run(query.value(), Params());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  auto mistyped =
      fx.db->Run(query.value(), Params().SetDouble("cutoff", 40.0));
  ASSERT_FALSE(mistyped.ok());
  EXPECT_EQ(mistyped.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryExecTest, EmptySelectionYieldsZeroRowUngrouped) {
  SensorDb fx;
  auto query = Query::On(fx.table)
                   .Filter(Col("day") < DateDays(-5))
                   .Aggregate({Sum(Col("temperature")).As("s"),
                               Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().Value("s"), 0.0);
  EXPECT_DOUBLE_EQ(result.value().Value("n"), 0.0);
}

TEST(QueryExecTest, MixedConstantArithmeticFoldsIntoABound) {
  // double * double + int64 folds to one double bound at bind time.
  SensorDb fx;
  auto query =
      Query::On(fx.table)
          .Filter(Col("temperature") <
                  Param("base", ExprType::kDouble) * F64(2.0) + I64(1))
          .Aggregate({Count().As("n")})
          .Build();
  ASSERT_TRUE(query.ok());
  auto result =
      fx.db->Run(query.value(), Params().SetDouble("base", 12.0));
  ASSERT_TRUE(result.ok());
  double expected = 0;
  for (size_t row = 0; row < fx.num_rows; ++row) {
    if (fx.Temperature(row) < 25.0) expected += 1.0;
  }
  EXPECT_DOUBLE_EQ(result.value().Value("n"), expected);
}

TEST(QueryExecTest, EmptyGroupsAreDropped) {
  SensorDb fx;
  auto query = Query::On(fx.table)
                   .Filter(Col("station") == Str("alpha"))
                   .Aggregate({Count().As("n")})
                   .GroupBy({"station"})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].keys[0], 0u);  // "alpha"
}

TEST(QueryExecTest, QueryRunsOnHeterogeneousSnapshots) {
  SensorDb fx(txn::ProcessingMode::kHeterogeneousSerializable);
  auto query = Query::On(fx.table)
                   .Aggregate({Sum(Col("temperature")).As("s")})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto before = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(before.ok());

  // Mutate a row; a new Run sees it, proving Run pins fresh epochs.
  auto txn = fx.db->BeginOltp();
  const double old_value = storage::DecodeDouble(
      txn->Read(fx.table->GetColumn("temperature"), 0));
  txn->Write(fx.table->GetColumn("temperature"), 0,
             storage::EncodeDouble(old_value + 500.0));
  ASSERT_TRUE(fx.db->Commit(txn.get()).ok());

  auto after = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.value().Value("s") - before.value().Value("s"), 500.0,
              1e-6);
  // The snapshot path must have scanned, not resolved, the clean column.
  EXPECT_GT(after.value().scan.tight_rows, 0u);
}

TEST(QueryExecTest, ExecuteRejectsContextMissingColumns) {
  SensorDb fx(txn::ProcessingMode::kHeterogeneousSerializable);
  auto query = Query::On(fx.table)
                   .Aggregate({Sum(Col("temperature")).As("s")})
                   .Build();
  ASSERT_TRUE(query.ok());
  // An OLAP context over a different column set: Execute must surface a
  // recoverable error (TryReader), not abort.
  auto ctx = fx.db->BeginOlap({fx.table->GetColumn("humidity")});
  ASSERT_TRUE(ctx.ok());
  QueryResult result;
  const Status status =
      Execute(query.value(), *ctx.value(), Params(), &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fx.db->FinishOlap(ctx.TakeValue()).ok());
}

TEST(QueryExecTest, TryReaderIsRecoverableReaderStillChecks) {
  SensorDb fx(txn::ProcessingMode::kHeterogeneousSerializable);
  auto ctx = fx.db->BeginOlap({fx.table->GetColumn("temperature")});
  ASSERT_TRUE(ctx.ok());
  auto in_set = ctx.value()->TryReader(fx.table->GetColumn("temperature"));
  EXPECT_TRUE(in_set.ok());
  auto out_of_set = ctx.value()->TryReader(fx.table->GetColumn("humidity"));
  ASSERT_FALSE(out_of_set.ok());
  EXPECT_EQ(out_of_set.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fx.db->FinishOlap(ctx.TakeValue()).ok());
}

TEST(QueryExecTest, GroupDomainBudgetIsEnforced) {
  SensorDb fx;
  // Inflate two dictionaries beyond the packed-group budget.
  auto wide = fx.db->CreateTable(
      "wide",
      {{"k1", storage::ValueType::kDict32},
       {"k2", storage::ValueType::kDict32}},
      16);
  ASSERT_TRUE(wide.ok());
  for (int i = 0; i < 40; ++i) {
    wide.value()->GetDictionary("k1")->GetOrAdd("a" + std::to_string(i));
    wide.value()->GetDictionary("k2")->GetOrAdd("b" + std::to_string(i));
  }
  auto query = Query::On(wide.value())
                   .Aggregate({Count().As("n")})
                   .GroupBy({"k1", "k2"})
                   .Build();
  // Domains past the packed-group budget leave the fused fast paths and
  // compile onto the DAG's hash aggregation instead.
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query.value().plan().dag->leaf.present);
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());
  // All 16 rows carry dictionary code 0 in both key columns.
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().Value("n"), 16.0);
}

/// Companion dimension table for join tests. Column names are disjoint
/// from the readings table (the DAG rejects ambiguous names).
storage::Table* MakeLimits(SensorDb* fx) {
  auto created = fx->db->CreateTable("limits",
                                     {{"sid", storage::ValueType::kInt64},
                                      {"t_max", storage::ValueType::kDouble}},
                                     17);
  ANKER_CHECK(created.ok());
  storage::Table* limits = created.value();
  for (size_t row = 0; row < 17; ++row) {
    limits->GetColumn("sid")->LoadValue(
        row, storage::EncodeInt64(static_cast<int64_t>(row)));
    limits->GetColumn("t_max")->LoadValue(
        row, storage::EncodeDouble(20.0 + static_cast<double>(row)));
  }
  return limits;
}

TEST(QueryExecTest, JoinBuildValidatesShapes) {
  SensorDb fx;
  storage::Table* limits = MakeLimits(&fx);

  // Mismatched key types: double probe key against an int64 build key.
  auto bad_key = Query::On(fx.table)
                     .Join(limits, JoinType::kLeftSemi, {"temperature"},
                           {"sid"})
                     .Aggregate({Count().As("n")})
                     .Build();
  ASSERT_FALSE(bad_key.ok());
  EXPECT_EQ(bad_key.status().code(), StatusCode::kInvalidArgument);

  // Key lists must pair up positionally.
  auto bad_arity = Query::On(fx.table)
                       .Join(limits, JoinType::kInner,
                             {"sensor_id", "sensor_id"}, {"sid"})
                       .Aggregate({Count().As("n")})
                       .Build();
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);

  // Non-boolean residual.
  auto bad_residual = Query::On(fx.table)
                          .Join(limits, JoinType::kInner, {"sensor_id"},
                                {"sid"}, Col("t_max") + F64(1.0))
                          .Aggregate({Count().As("n")})
                          .Build();
  ASSERT_FALSE(bad_residual.ok());
  EXPECT_EQ(bad_residual.status().code(), StatusCode::kInvalidArgument);

  // A self join is ambiguous without renaming through a sub-query.
  auto ambiguous = Query::On(fx.table)
                       .Join(fx.table, JoinType::kInner, {"sensor_id"},
                             {"sensor_id"})
                       .Aggregate({Count().As("n")})
                       .Build();
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryExecTest, SubQueryInputReaggregates) {
  // Query::On(sub) pipelines over another query's rows: re-aggregating
  // the per-station sums must give the table totals.
  SensorDb fx;
  auto per_station = Query::On(fx.table)
                         .Aggregate({Sum(Col("temperature")).As("total"),
                                     Count().As("n")})
                         .GroupBy({"station"})
                         .Build();
  ASSERT_TRUE(per_station.ok());
  auto query = Query::On(per_station.value())
                   .Filter(Col("n") > F64(0.0))
                   .Aggregate({Sum(Col("total")).As("grand"),
                               Sum(Col("n")).As("rows"), Count().As("groups")})
                   .Build();
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  double total = 0;
  for (size_t row = 0; row < fx.num_rows; ++row) total += fx.Temperature(row);
  EXPECT_NEAR(result.value().Value("grand"), total, total * 1e-12);
  EXPECT_DOUBLE_EQ(result.value().Value("rows"),
                   static_cast<double>(fx.num_rows));
  EXPECT_DOUBLE_EQ(result.value().Value("groups"), 3.0);
}

TEST(QueryExecTest, InnerJoinWithResidualMatchesReference) {
  SensorDb fx;
  storage::Table* limits = MakeLimits(&fx);
  auto query = Query::On(fx.table)
                   .Join(limits, JoinType::kInner, {"sensor_id"}, {"sid"},
                         Col("temperature") < Col("t_max"))
                   .Aggregate({Sum(Col("temperature")).As("s"),
                               Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query.value().plan().dag->leaf.present);
  auto result = fx.db->Run(query.value(), Params());
  ASSERT_TRUE(result.ok());

  double expected_sum = 0;
  uint64_t expected_n = 0;
  for (size_t r = 0; r < fx.num_rows; ++r) {
    const double t_max = 20.0 + static_cast<double>(r % 17);
    if (fx.Temperature(r) < t_max) {
      expected_sum += fx.Temperature(r);
      ++expected_n;
    }
  }
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_NEAR(result.value().Value("s"), expected_sum,
              std::abs(expected_sum) * 1e-12);
  EXPECT_DOUBLE_EQ(result.value().Value("n"),
                   static_cast<double>(expected_n));
}

TEST(QueryExecTest, UnboundParameterIsRejected) {
  SensorDb fx;
  auto query = Query::On(fx.table)
                   .Filter(Col("day") < Param("cutoff", ExprType::kDate))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_TRUE(query.ok());
  // Binding a name the plan never references must fail recoverably, not
  // silently bind nothing.
  auto typoed = fx.db->Run(query.value(),
                           Params().SetDate("cutof", 40).SetDate("cutoff", 40));
  ASSERT_FALSE(typoed.ok());
  EXPECT_EQ(typoed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typoed.status().message().find("cutof"), std::string::npos);
}

TEST(DatabaseConfigValidationTest, RejectsMismatchedBackends) {
  engine::DatabaseConfig hetero_plain;
  hetero_plain.mode = txn::ProcessingMode::kHeterogeneousSerializable;
  hetero_plain.backend = snapshot::BufferBackend::kPlain;
  EXPECT_EQ(hetero_plain.Validate().code(), StatusCode::kInvalidArgument);
  auto created = engine::Database::Create(hetero_plain);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  engine::DatabaseConfig homog_vm;
  homog_vm.mode = txn::ProcessingMode::kHomogeneousSerializable;
  homog_vm.backend = snapshot::BufferBackend::kVmSnapshot;
  EXPECT_EQ(homog_vm.Validate().code(), StatusCode::kInvalidArgument);

  engine::DatabaseConfig ok = engine::DatabaseConfig::ForMode(
      txn::ProcessingMode::kHomogeneousSnapshotIsolation);
  EXPECT_TRUE(ok.Validate().ok());
  auto db = engine::Database::Create(ok);
  ASSERT_TRUE(db.ok());
  EXPECT_NE(db.value(), nullptr);
}

}  // namespace
}  // namespace anker::query
