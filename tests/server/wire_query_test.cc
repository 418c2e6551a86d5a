// Wire-query serialization: expression trees, aggregate specs, group-by
// lists and parameter bindings must round-trip exactly, decode-reject
// malformed input recoverably (never crash, never CHECK), and recompile
// through CompileWireQuery into plans equivalent to locally built ones.
#include "query/serialize.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "query/dag.h"
#include "storage/value.h"

namespace anker::query {
namespace {

using storage::ValueType;

class WireQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
        txn::ProcessingMode::kHeterogeneousSerializable);
    db_ = std::make_unique<engine::Database>(config);
    auto table = db_->CreateTable("events",
                                  {{"id", ValueType::kInt64},
                                   {"price", ValueType::kDouble},
                                   {"day", ValueType::kDate},
                                   {"tag", ValueType::kDict32}},
                                  256);
    ASSERT_TRUE(table.ok());
    table_ = table.value();
    storage::Dictionary* dict = table_->GetDictionary("tag");
    for (size_t row = 0; row < 256; ++row) {
      table_->GetColumn("id")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row)));
      table_->GetColumn("price")->LoadValue(
          row, storage::EncodeDouble(1.5 * static_cast<double>(row)));
      table_->GetColumn("day")->LoadValue(
          row, storage::EncodeDate(static_cast<int64_t>(row % 30)));
      table_->GetColumn("tag")->LoadValue(
          row, storage::EncodeDict(
                   dict->GetOrAdd(row % 2 == 0 ? "even" : "odd")));
    }
  }

  std::unique_ptr<engine::Database> db_;
  storage::Table* table_ = nullptr;
};

Expr RoundTrip(const Expr& expr) {
  std::string wire;
  EXPECT_TRUE(EncodeExpr(expr, &wire).ok());
  std::string_view in(wire);
  Expr decoded;
  EXPECT_TRUE(DecodeExpr(&in, &decoded).ok());
  EXPECT_TRUE(in.empty()) << "decoder left bytes behind";
  return decoded;
}

void ExpectSameTree(const ExprNode* a, const ExprNode* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  EXPECT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->type, b->type);
  EXPECT_EQ(a->name, b->name);
  EXPECT_EQ(a->raw, b->raw);
  EXPECT_EQ(a->text, b->text);
  EXPECT_EQ(a->is_string, b->is_string);
  ExpectSameTree(a->lhs.get(), b->lhs.get());
  ExpectSameTree(a->rhs.get(), b->rhs.get());
}

TEST_F(WireQueryTest, ExprRoundTripsEveryLeafAndOperator) {
  const Expr expr =
      (Col("price") * (F64(1.0) - Param("disc", ExprType::kDouble)) +
       I64(7) - DateDays(100)) != Str("even") ||
      (Between(Col("day"), DateDays(1), Param("hi", ExprType::kDate)) &&
       Col("tag") == DictCode(3));
  ExpectSameTree(expr.node(), RoundTrip(expr).node());
}

TEST_F(WireQueryTest, ExprRejectsOversizedTrees) {
  Expr deep = I64(1);
  for (int i = 0; i < 100; ++i) deep = deep + I64(1);
  std::string wire;
  EXPECT_FALSE(EncodeExpr(deep, &wire).ok());  // Depth cap on encode too.
}

TEST_F(WireQueryTest, ExprDecodeFuzzNeverCrashes) {
  // Valid encodings with random corruptions plus raw garbage: the decoder
  // must always return (Status or success), never crash or hang.
  Rng rng(23);
  const Expr seedexpr = Col("price") * F64(2.0) + Param("p", ExprType::kInt64);
  std::string valid;
  ASSERT_TRUE(EncodeExpr(seedexpr, &valid).ok());
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    std::string_view in(bytes);
    Expr decoded;
    (void)DecodeExpr(&in, &decoded);  // Either outcome is fine.
  }
  for (int iter = 0; iter < 5000; ++iter) {
    std::string garbage(rng.NextBounded(64), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    std::string_view in(garbage);
    Expr decoded;
    (void)DecodeExpr(&in, &decoded);
  }
}

TEST_F(WireQueryTest, WireQueryRoundTripsAndRecompiles) {
  WireQuery wire;
  wire.table = "events";
  wire.filter = Col("day") <= Param("cutoff", ExprType::kDate) &&
                Col("price") > F64(10.0);
  wire.aggs = {Sum(Col("price")).As("revenue"), Count().As("n"),
               Avg(Col("price")).As("mean")};
  wire.group_by = {"tag"};

  std::string bytes;
  ASSERT_TRUE(EncodeWireQuery(wire, &bytes).ok());
  std::string_view in(bytes);
  WireQuery decoded;
  ASSERT_TRUE(DecodeWireQuery(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.table, "events");
  ASSERT_EQ(decoded.aggs.size(), 3u);
  EXPECT_EQ(decoded.aggs[0].name(), "revenue");
  EXPECT_EQ(decoded.aggs[1].kind(), AggKind::kCount);
  EXPECT_EQ(decoded.group_by, std::vector<std::string>{"tag"});

  // The decoded form must execute identically to the locally built query.
  auto local = Query::On(table_)
                   .Filter(wire.filter)
                   .Aggregate(wire.aggs)
                   .GroupBy(wire.group_by)
                   .Build();
  ASSERT_TRUE(local.ok());
  auto remote = CompileWireQuery(decoded, db_->catalog());
  ASSERT_TRUE(remote.ok());

  const Params params = Params().SetDate("cutoff", 15);
  auto local_result = db_->Run(local.value(), params);
  auto remote_result = db_->Run(remote.value(), params);
  ASSERT_TRUE(local_result.ok());
  ASSERT_TRUE(remote_result.ok());
  ASSERT_EQ(local_result.value().rows.size(),
            remote_result.value().rows.size());
  for (size_t r = 0; r < local_result.value().rows.size(); ++r) {
    EXPECT_EQ(local_result.value().rows[r].keys,
              remote_result.value().rows[r].keys);
    for (size_t v = 0; v < local_result.value().rows[r].values.size(); ++v) {
      // Byte-identical, not approximately equal.
      EXPECT_EQ(storage::EncodeDouble(local_result.value().rows[r].values[v]),
                storage::EncodeDouble(
                    remote_result.value().rows[r].values[v]));
    }
  }
}

TEST_F(WireQueryTest, DagWireQueryRoundTripsAndRecompiles) {
  // The v2 surface: a filtered table build side, group-by, order + limit.
  auto dims = db_->CreateTable(
      "dims", {{"key", ValueType::kInt64}, {"factor", ValueType::kDouble}},
      16);
  ASSERT_TRUE(dims.ok());
  for (size_t row = 0; row < 16; ++row) {
    dims.value()->GetColumn("key")->LoadValue(
        row, storage::EncodeInt64(static_cast<int64_t>(row)));
    dims.value()->GetColumn("factor")->LoadValue(
        row, storage::EncodeDouble(2.0 * static_cast<double>(row)));
  }

  WireQuery wire;
  wire.table = "events";
  WireJoin join;
  join.input.table = "dims";
  join.input.filter = Col("key") < I64(12);
  join.type = JoinType::kInner;
  join.probe_keys = {"id"};
  join.build_keys = {"key"};
  join.residual = Col("factor") < Col("price") + F64(100.0);
  wire.joins.push_back(join);
  wire.aggs = {Sum(Col("factor")).As("total"), Count().As("n")};
  wire.group_by = {"tag"};
  wire.order_by = {{"total", true}};
  wire.limit = 1;

  std::string bytes;
  ASSERT_TRUE(EncodeWireQuery(wire, &bytes).ok());
  std::string_view in(bytes);
  WireQuery decoded;
  ASSERT_TRUE(DecodeWireQuery(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.joins.size(), 1u);
  EXPECT_EQ(decoded.joins[0].input.table, "dims");
  EXPECT_EQ(decoded.joins[0].type, JoinType::kInner);
  EXPECT_EQ(decoded.joins[0].probe_keys, std::vector<std::string>{"id"});
  ASSERT_EQ(decoded.order_by.size(), 1u);
  EXPECT_TRUE(decoded.order_by[0].desc);
  EXPECT_EQ(decoded.limit, 1);

  auto local =
      Query::On(table_)
          .Join({dims.value(), join.input.filter}, JoinType::kInner, {"id"},
                {"key"}, join.residual)
          .Aggregate(wire.aggs)
          .GroupBy(wire.group_by)
          .OrderBy(wire.order_by)
          .Limit(1)
          .Build();
  ASSERT_TRUE(local.ok());
  auto remote = CompileWireQuery(decoded, db_->catalog());
  ASSERT_TRUE(remote.ok());
  EXPECT_FALSE(remote.value().plan().dag->leaf.present);

  auto local_result = db_->Run(local.value(), Params());
  auto remote_result = db_->Run(remote.value(), Params());
  ASSERT_TRUE(local_result.ok());
  ASSERT_TRUE(remote_result.ok());
  ASSERT_EQ(local_result.value().rows.size(), 1u);
  ASSERT_EQ(remote_result.value().rows.size(), 1u);
  EXPECT_EQ(local_result.value().rows[0].keys,
            remote_result.value().rows[0].keys);
  for (size_t v = 0; v < local_result.value().rows[0].values.size(); ++v) {
    EXPECT_EQ(
        storage::EncodeDouble(local_result.value().rows[0].values[v]),
        storage::EncodeDouble(remote_result.value().rows[0].values[v]));
  }
}

TEST_F(WireQueryTest, SubQueryBuildSideRoundTripsAndRecompiles) {
  // Q17's shape over the wire: join against a nested aggregate sub-query,
  // with a residual comparing probe values to the sub's aggregate output.
  WireQuery wire;
  wire.table = "events";
  WireJoin join;
  join.input.sub = std::make_shared<WireQuery>();
  join.input.sub->table = "events";
  join.input.sub->aggs = {Avg(Col("price")).As("mean_price")};
  join.input.sub->group_by = {"tag"};
  join.input.sub->select = {{"tag", "sub_tag"}, {"mean_price", ""}};
  join.type = JoinType::kInner;
  join.probe_keys = {"tag"};
  join.build_keys = {"sub_tag"};
  join.residual = Col("price") > Col("mean_price");
  wire.joins.push_back(join);
  wire.aggs = {Count().As("n"), Sum(Col("price")).As("rev")};

  std::string bytes;
  ASSERT_TRUE(EncodeWireQuery(wire, &bytes).ok());
  std::string_view in(bytes);
  WireQuery decoded;
  ASSERT_TRUE(DecodeWireQuery(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.joins.size(), 1u);
  ASSERT_NE(decoded.joins[0].input.sub, nullptr);
  EXPECT_EQ(decoded.joins[0].input.sub->table, "events");
  ASSERT_EQ(decoded.joins[0].input.sub->select.size(), 2u);
  EXPECT_EQ(decoded.joins[0].input.sub->select[0].alias, "sub_tag");

  auto sub_local = Query::On(table_)
                       .Aggregate({Avg(Col("price")).As("mean_price")})
                       .GroupBy({"tag"})
                       .Select({{"tag", "sub_tag"}, {"mean_price", ""}})
                       .Build();
  ASSERT_TRUE(sub_local.ok());
  auto local = Query::On(table_)
                   .Join(sub_local.value(), JoinType::kInner, {"tag"},
                         {"sub_tag"}, join.residual)
                   .Aggregate(wire.aggs)
                   .Build();
  ASSERT_TRUE(local.ok());
  auto remote = CompileWireQuery(decoded, db_->catalog());
  ASSERT_TRUE(remote.ok());

  auto local_result = db_->Run(local.value(), Params());
  auto remote_result = db_->Run(remote.value(), Params());
  ASSERT_TRUE(local_result.ok());
  ASSERT_TRUE(remote_result.ok());
  ASSERT_EQ(local_result.value().rows.size(), 1u);
  ASSERT_EQ(remote_result.value().rows.size(), 1u);
  for (size_t v = 0; v < local_result.value().rows[0].values.size(); ++v) {
    EXPECT_EQ(
        storage::EncodeDouble(local_result.value().rows[0].values[v]),
        storage::EncodeDouble(remote_result.value().rows[0].values[v]));
  }
}

TEST_F(WireQueryTest, GroupedSumCountRunsTheFusedLeaf) {
  // The routed aggregate's shape: SUM(x), COUNT(*) GROUP BY a dictionary.
  WireQuery wire;
  wire.table = "events";
  wire.aggs = {Sum(Col("price")).As("s"), Count().As("n")};
  wire.group_by = {"tag"};
  auto compiled = CompileWireQuery(wire, db_->catalog());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_NE(compiled.value().plan().dag->leaf.fused, nullptr);

  auto result = db_->Run(compiled.value(), Params());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 2u);
  const uint32_t even = table_->GetDictionary("tag")->Lookup("even").value();
  for (const QueryResult::Row& row : result.value().rows) {
    const size_t parity = row.keys[0] == even ? 0 : 1;
    double sum = 0;
    for (size_t r = parity; r < 256; r += 2) {
      sum += 1.5 * static_cast<double>(r);
    }
    EXPECT_DOUBLE_EQ(row.values[0], sum);
    EXPECT_DOUBLE_EQ(row.values[1], 128.0);
  }
}

TEST_F(WireQueryTest, WindowAndPostFilterRoundTrip) {
  WireQuery wire;
  wire.table = "events";
  wire.select = {{"id", ""}, {"price", ""}, {"r", ""}, {"tag_total", ""}};
  wire.has_window = true;
  wire.win_funcs = {WinRank("r"), WinSum(Col("price"), "tag_total")};
  wire.win_partition = {"tag"};
  wire.win_order = {{"price", true}};
  wire.post_filter = Col("r") <= I64(3);
  wire.order_by = {{"tag_total", true}, {"r", false}};

  std::string bytes;
  ASSERT_TRUE(EncodeWireQuery(wire, &bytes).ok());
  std::string_view in(bytes);
  WireQuery decoded;
  ASSERT_TRUE(DecodeWireQuery(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(decoded.has_window);
  ASSERT_EQ(decoded.win_funcs.size(), 2u);
  EXPECT_EQ(decoded.win_funcs[0].fn, WinFn::kRank);
  EXPECT_EQ(decoded.win_funcs[1].name, "tag_total");
  EXPECT_EQ(decoded.win_partition, std::vector<std::string>{"tag"});
  EXPECT_TRUE(decoded.post_filter.valid());

  auto remote = CompileWireQuery(decoded, db_->catalog());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto result = db_->Run(remote.value(), Params());
  ASSERT_TRUE(result.ok());
  // Top-3 prices per tag, two tags.
  EXPECT_EQ(result.value().rows.size(), 6u);
}

TEST_F(WireQueryTest, NestingDepthIsCapped) {
  // Six levels of sub-query input exceed kMaxWireQueryDepth on encode;
  // a hostile hand-rolled deep encoding must be rejected on decode too.
  auto leaf = std::make_shared<WireQuery>();
  leaf->table = "events";
  leaf->aggs = {Count().As("n")};
  WireQuery wire;
  wire.aggs = {Count().As("n")};
  wire.sub = leaf;
  for (int i = 0; i < 5; ++i) {
    auto outer = std::make_shared<WireQuery>(wire);
    wire = WireQuery();
    wire.aggs = {Count().As("n")};
    wire.sub = outer;
  }
  std::string bytes;
  EXPECT_FALSE(EncodeWireQuery(wire, &bytes).ok());

  // Hand-rolled: table "" + has_sub=1 repeated past the cap.
  std::string hostile;
  for (int i = 0; i < 8; ++i) {
    hostile.push_back('\0');
    hostile.push_back('\0');
    hostile.push_back('\0');
    hostile.push_back('\0');  // Empty table name (u32 len = 0).
    hostile.push_back('\x01');  // has_sub = 1.
  }
  std::string_view in(hostile);
  WireQuery decoded;
  EXPECT_EQ(DecodeWireQuery(&in, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WireQueryTest, DagDecodeFuzzNeverCrashes) {
  // Corrupt a valid v2 encoding (joins + window + order/limit) and feed it
  // to the decoder: every byte pattern must return recoverably.
  WireQuery wire;
  wire.table = "events";
  WireJoin join;
  join.input.sub = std::make_shared<WireQuery>();
  join.input.sub->table = "events";
  join.input.sub->aggs = {Avg(Col("price")).As("m")};
  join.input.sub->group_by = {"tag"};
  join.input.sub->select = {{"tag", "t2"}, {"m", ""}};
  join.probe_keys = {"tag"};
  join.build_keys = {"t2"};
  wire.joins.push_back(join);
  wire.aggs = {Count().As("n")};
  wire.has_window = false;
  wire.order_by = {{"n", true}};
  wire.limit = 5;
  std::string valid;
  ASSERT_TRUE(EncodeWireQuery(wire, &valid).ok());

  Rng rng(29);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    std::string_view in(bytes);
    WireQuery decoded;
    (void)DecodeWireQuery(&in, &decoded);
  }
  for (int iter = 0; iter < 5000; ++iter) {
    std::string garbage(rng.NextBounded(96), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    std::string_view in(garbage);
    WireQuery decoded;
    (void)DecodeWireQuery(&in, &decoded);
  }
}

TEST_F(WireQueryTest, UnboundParameterIsRejectedOnTheWirePath) {
  // A recompiled wire query enforces the same unused-binding check as a
  // local Run: a typo'd name errors instead of silently changing nothing.
  WireQuery wire;
  wire.table = "events";
  wire.filter = Col("day") <= Param("cutoff", ExprType::kDate);
  wire.aggs = {Count().As("n")};
  std::string bytes;
  ASSERT_TRUE(EncodeWireQuery(wire, &bytes).ok());
  std::string_view in(bytes);
  WireQuery decoded;
  ASSERT_TRUE(DecodeWireQuery(&in, &decoded).ok());
  auto remote = CompileWireQuery(decoded, db_->catalog());
  ASSERT_TRUE(remote.ok());

  auto bad = db_->Run(remote.value(),
                      Params().SetDate("cutof", 15).SetDate("cutoff", 15));
  ASSERT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("cutof"), std::string::npos);

  auto good = db_->Run(remote.value(), Params().SetDate("cutoff", 15));
  ASSERT_TRUE(good.ok());
}

TEST_F(WireQueryTest, CompileRejectsUnknownTableAndBadQueries) {
  WireQuery wire;
  wire.table = "nope";
  wire.aggs = {Count().As("n")};
  EXPECT_TRUE(CompileWireQuery(wire, db_->catalog()).status().IsNotFound());

  wire.table = "events";
  wire.filter = Col("missing_column") > I64(0);
  EXPECT_FALSE(CompileWireQuery(wire, db_->catalog()).ok());
}

TEST_F(WireQueryTest, ParamsRoundTripAllTypes) {
  Params params;
  params.SetInt("i", -42)
      .SetDouble("d", 2.75)
      .SetDate("t", 9000)
      .SetDictCode("c", 3)
      .SetString("s", "Brand#23");
  std::string bytes;
  EncodeParams(params, &bytes);
  std::string_view in(bytes);
  Params decoded;
  ASSERT_TRUE(DecodeParams(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.values().size(), 5u);
  for (const auto& [name, value] : params.values()) {
    const Params::Value* got = decoded.Find(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->type, value.type);
    EXPECT_EQ(got->raw, value.raw);
    EXPECT_EQ(got->text, value.text);
    EXPECT_EQ(got->is_string, value.is_string);
  }
}

}  // namespace
}  // namespace anker::query
