#include "tpch/queries.h"

#include <gtest/gtest.h>

#include "query/dag.h"
#include "tpch/schema.h"

namespace anker::tpch {
namespace {

struct LoadedDb {
  explicit LoadedDb(txn::ProcessingMode mode, size_t rows = 6000) {
    db = std::make_unique<engine::Database>(
        engine::DatabaseConfig::ForMode(mode));
    db->Start();
    TpchConfig config;
    config.lineitem_rows = rows;
    auto loaded = LoadTpch(db.get(), config);
    ANKER_CHECK(loaded.ok());
    instance = loaded.TakeValue();
    queries = std::make_unique<TpchQueries>(db.get(), instance);
  }

  Result<OlapResult> Run(OlapKind kind, const OlapParams& params) {
    auto ctx = db->BeginOlap(queries->ColumnsFor(kind));
    if (!ctx.ok()) return ctx.status();
    OlapResult result = queries->Run(kind, *ctx.value(), params);
    ANKER_RETURN_IF_ERROR(db->FinishOlap(ctx.TakeValue()));
    return result;
  }

  std::unique_ptr<engine::Database> db;
  TpchInstance instance;
  std::unique_ptr<TpchQueries> queries;
};

OlapParams FixedParams() {
  OlapParams params;
  params.q1_delta_days = 90;
  params.q4_start_day = 800;
  params.q6_start_day = 400;
  params.q6_discount = 0.05;
  params.q6_quantity = 24.0;
  params.q17_brand_code = 3;
  params.q17_container_code = 7;
  return params;
}

TEST(QueriesTest, PlansRunTheirLeafKernels) {
  LoadedDb live(txn::ProcessingMode::kHomogeneousSerializable);
  auto leaf = [&](OlapKind kind) -> const query::DagLeaf& {
    return live.queries->QueryFor(kind).plan().dag->leaf;
  };
  // Q1 and Q4: grouped aggregates on the fused kernels.
  for (OlapKind kind : {OlapKind::kQ1, OlapKind::kQ4}) {
    EXPECT_TRUE(leaf(kind).present) << OlapKindName(kind);
    EXPECT_NE(leaf(kind).fused, nullptr) << OlapKindName(kind);
  }
  // Q6 and the table scans: the ungrouped vectorized aggregate.
  for (OlapKind kind : {OlapKind::kQ6, OlapKind::kScanLineitem,
                        OlapKind::kScanOrders, OlapKind::kScanPart}) {
    EXPECT_TRUE(leaf(kind).present) << OlapKindName(kind);
    EXPECT_FALSE(leaf(kind).key.grouped()) << OlapKindName(kind);
    EXPECT_EQ(leaf(kind).fused, nullptr) << OlapKindName(kind);
  }
  // Q17 joins: no leaf.
  EXPECT_FALSE(leaf(OlapKind::kQ17).present);
}

TEST(QueriesTest, AllQueriesProduceResults) {
  LoadedDb hetero(txn::ProcessingMode::kHeterogeneousSerializable);
  for (OlapKind kind : kAllOlapKinds) {
    auto result = hetero.Run(kind, FixedParams());
    ASSERT_TRUE(result.ok()) << OlapKindName(kind);
    EXPECT_GT(result.value().rows_considered, 0u) << OlapKindName(kind);
  }
}

TEST(QueriesTest, DigestsAgreeAcrossProcessingModes) {
  // The same immutable data must yield identical results no matter whether
  // the query ran on a snapshot or on the live representation.
  LoadedDb hetero(txn::ProcessingMode::kHeterogeneousSerializable);
  LoadedDb homog(txn::ProcessingMode::kHomogeneousSerializable);
  LoadedDb homog_si(txn::ProcessingMode::kHomogeneousSnapshotIsolation);
  const OlapParams params = FixedParams();
  for (OlapKind kind : kAllOlapKinds) {
    auto a = hetero.Run(kind, params);
    auto b = homog.Run(kind, params);
    auto c = homog_si.Run(kind, params);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_DOUBLE_EQ(a.value().digest, b.value().digest)
        << OlapKindName(kind);
    EXPECT_DOUBLE_EQ(b.value().digest, c.value().digest)
        << OlapKindName(kind);
  }
}

TEST(QueriesTest, Q1SelectivityRespondsToDelta) {
  LoadedDb db(txn::ProcessingMode::kHeterogeneousSerializable);
  OlapParams tight = FixedParams();
  tight.q1_delta_days = 120;  // earlier cutoff -> fewer rows
  OlapParams loose = FixedParams();
  loose.q1_delta_days = 60;
  auto tight_result = db.Run(OlapKind::kQ1, tight);
  auto loose_result = db.Run(OlapKind::kQ1, loose);
  ASSERT_TRUE(tight_result.ok() && loose_result.ok());
  EXPECT_LT(tight_result.value().digest, loose_result.value().digest);
}

TEST(QueriesTest, Q6MatchesNaiveReference) {
  LoadedDb db(txn::ProcessingMode::kHomogeneousSerializable);
  const OlapParams params = FixedParams();
  auto result = db.Run(OlapKind::kQ6, params);
  ASSERT_TRUE(result.ok());

  // Naive reference computed directly from the latest raw column data.
  storage::Table* li = db.instance.lineitem;
  storage::Column* ship = li->GetColumn("l_shipdate");
  storage::Column* disc = li->GetColumn("l_discount");
  storage::Column* qty = li->GetColumn("l_quantity");
  storage::Column* price = li->GetColumn("l_extendedprice");
  double expected = 0;
  for (uint64_t row = 0; row < db.instance.lineitem_rows; ++row) {
    const int64_t date = storage::DecodeDate(ship->ReadLatestRaw(row));
    if (date < params.q6_start_day || date >= params.q6_start_day + 365) {
      continue;
    }
    const double d = storage::DecodeDouble(disc->ReadLatestRaw(row));
    if (d < params.q6_discount - 0.01001 || d > params.q6_discount + 0.01001) {
      continue;
    }
    if (storage::DecodeDouble(qty->ReadLatestRaw(row)) >= params.q6_quantity) {
      continue;
    }
    expected += storage::DecodeDouble(price->ReadLatestRaw(row)) * d;
  }
  EXPECT_NEAR(result.value().digest, expected, std::abs(expected) * 1e-12);
  EXPECT_GT(expected, 0.0);
}

TEST(QueriesTest, ScanDigestEqualsColumnSum) {
  LoadedDb db(txn::ProcessingMode::kHomogeneousSerializable);
  auto result = db.Run(OlapKind::kScanOrders, FixedParams());
  ASSERT_TRUE(result.ok());
  storage::Column* total = db.instance.orders->GetColumn("o_totalprice");
  double expected = 0;
  for (uint64_t row = 0; row < db.instance.orders_rows; ++row) {
    expected += storage::DecodeDouble(total->ReadLatestRaw(row));
  }
  // Block-wise folding associates the floating-point sum differently than
  // the linear reference loop; compare with a relative tolerance.
  EXPECT_NEAR(result.value().digest, expected, expected * 1e-12);
}

TEST(QueriesTest, SnapshotShieldsOlapFromConcurrentCommits) {
  LoadedDb db(txn::ProcessingMode::kHeterogeneousSerializable);
  // Open the OLAP context first (pins the epoch)...
  auto ctx = db.db->BeginOlap(db.queries->ColumnsFor(OlapKind::kScanOrders));
  ASSERT_TRUE(ctx.ok());
  const double before = ScanColumnSum(
      ctx.value()->Reader(db.instance.orders->GetColumn("o_totalprice")),
      true, nullptr);
  // ...then commit a visible change...
  storage::Column* total = db.instance.orders->GetColumn("o_totalprice");
  auto txn = db.db->BeginOltp();
  txn->Write(total, 0, storage::EncodeDouble(1e9));
  ASSERT_TRUE(db.db->Commit(txn.get()).ok());
  // ...and re-scan within the SAME context: identical result.
  const double after = ScanColumnSum(
      ctx.value()->Reader(db.instance.orders->GetColumn("o_totalprice")),
      true, nullptr);
  EXPECT_DOUBLE_EQ(before, after);
  ASSERT_TRUE(db.db->FinishOlap(ctx.TakeValue()).ok());
}

TEST(QueriesTest, RandomParamsStayInSpecBounds) {
  LoadedDb db(txn::ProcessingMode::kHeterogeneousSerializable, 2000);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const OlapParams params = db.queries->RandomParams(OlapKind::kQ6, &rng);
    EXPECT_GE(params.q1_delta_days, 60);
    EXPECT_LE(params.q1_delta_days, 120);
    EXPECT_GE(params.q6_discount, 0.02);
    EXPECT_LE(params.q6_discount, 0.09);
    EXPECT_TRUE(params.q6_quantity == 24.0 || params.q6_quantity == 25.0);
    EXPECT_GE(params.q4_start_day, 0);
    EXPECT_LE(params.q4_start_day + 92, kOrderDateMaxDays);
  }
}

}  // namespace
}  // namespace anker::tpch
