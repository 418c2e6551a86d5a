#include "query/expr.h"

#include <gtest/gtest.h>

#include "query/dag.h"
#include "query/query.h"

namespace anker::query {
namespace {

std::unique_ptr<storage::Table> MakeTable() {
  auto table = storage::Table::Create(
      "t",
      {{"id", storage::ValueType::kInt64},
       {"price", storage::ValueType::kDouble},
       {"qty", storage::ValueType::kDouble},
       {"day", storage::ValueType::kDate},
       {"tag", storage::ValueType::kDict32}},
      /*num_rows=*/64, snapshot::BufferBackend::kPlain);
  EXPECT_TRUE(table.ok());
  storage::Dictionary* dict = table.value()->GetDictionary("tag");
  dict->GetOrAdd("red");
  dict->GetOrAdd("green");
  dict->GetOrAdd("blue");
  return table.TakeValue();
}

TEST(ExprTypeCheckTest, InfersColumnAndArithmeticTypes) {
  auto table = MakeTable();
  EXPECT_EQ(TypeCheck(Col("id"), *table).value(), ExprType::kInt64);
  EXPECT_EQ(TypeCheck(Col("price") * Col("qty"), *table).value(),
            ExprType::kDouble);
  // int64 promotes to double in mixed arithmetic.
  EXPECT_EQ(TypeCheck(Col("id") * Col("price"), *table).value(),
            ExprType::kDouble);
  // Dates shift by int64 day offsets.
  EXPECT_EQ(TypeCheck(Col("day") + I64(92), *table).value(),
            ExprType::kDate);
  EXPECT_EQ(TypeCheck(Col("price") < F64(1.0), *table).value(),
            ExprType::kBool);
  EXPECT_EQ(
      TypeCheck(Col("price") < F64(1.0) && Col("id") >= I64(3), *table)
          .value(),
      ExprType::kBool);
  EXPECT_EQ(TypeCheck(Col("tag") == Str("red"), *table).value(),
            ExprType::kBool);
}

TEST(ExprTypeCheckTest, UnknownColumnIsNotFound) {
  auto table = MakeTable();
  auto result = TypeCheck(Col("nope") < I64(1), *table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ExprTypeCheckTest, ArithmeticOverDictIsRejected) {
  auto table = MakeTable();
  auto result = TypeCheck(Col("tag") + I64(1), *table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprTypeCheckTest, DictSupportsEqualityOnly) {
  auto table = MakeTable();
  auto result = TypeCheck(Col("tag") < Str("red"), *table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TypeCheck(Col("tag") != Str("red"), *table).ok());
}

TEST(ExprTypeCheckTest, CrossDomainCompareIsRejected) {
  auto table = MakeTable();
  auto result = TypeCheck(Col("price") == Col("tag"), *table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprTypeCheckTest, LogicalOperatorsNeedBooleans) {
  auto table = MakeTable();
  auto result = TypeCheck(Col("price") && Col("qty"), *table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprTypeCheckTest, IsConstExprSeparatesBoundSides) {
  EXPECT_TRUE(IsConstExpr(I64(5) * F64(2.0)));
  EXPECT_TRUE(IsConstExpr(Param("p", ExprType::kDate) + I64(92)));
  EXPECT_FALSE(IsConstExpr(Col("price")));
  EXPECT_FALSE(IsConstExpr(Col("price") * F64(2.0)));
}

TEST(QueryBuildTest, NonBooleanFilterIsRejected) {
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Filter(Col("price") * Col("qty"))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuildTest, UnknownFilterColumnIsNotFound) {
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Filter(Col("ghost") < I64(3))
                   .Aggregate({Count().As("n")})
                   .Build();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

TEST(QueryBuildTest, AggregateOverDictIsRejected) {
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Aggregate({Sum(Col("tag")).As("s")})
                   .Build();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuildTest, GroupByNonDictFallsBackToDag) {
  // The fused fast paths only pack dictionary keys; grouping by any other
  // type compiles onto the DAG's hash aggregation instead of failing.
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Aggregate({Count().As("n")})
                   .GroupBy({"price"})
                   .Build();
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query.value().plan().dag->leaf.present);
}

TEST(QueryBuildTest, DuplicateAggregateNamesAreRejected) {
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Aggregate({Sum(Col("price")).As("x"),
                               Count().As("x")})
                   .Build();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuildTest, QueryWithoutAggregatesIsRejected) {
  auto table = MakeTable();
  auto query = Query::On(table.get()).Build();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuildTest, InfersReferencedColumns) {
  auto table = MakeTable();
  auto query = Query::On(table.get())
                   .Filter(Col("day") >= DateDays(10))
                   .Aggregate({Sum(Col("price") * Col("qty")).As("rev")})
                   .GroupBy({"tag"})
                   .Build();
  ASSERT_TRUE(query.ok());
  // day (filter), tag (key), price, qty (aggregate) — and nothing else.
  EXPECT_EQ(query.value().columns().size(), 4u);
}

TEST(QueryBuildTest, MenuShapesPickTheFusedKernel) {
  auto table = MakeTable();
  auto fused = Query::On(table.get())
                   .Aggregate({Sum(Col("price")).As("s"), Count().As("n")})
                   .GroupBy({"tag"})
                   .Build();
  ASSERT_TRUE(fused.ok());
  EXPECT_NE(fused.value().plan().dag->leaf.fused, nullptr);

  // (price + qty) is outside the fused form menu -> grouped vectorized
  // aggregate.
  auto generic = Query::On(table.get())
                     .Aggregate({Sum(Col("price") + Col("qty")).As("s")})
                     .GroupBy({"tag"})
                     .Build();
  ASSERT_TRUE(generic.ok());
  const DagLeaf& grouped = generic.value().plan().dag->leaf;
  EXPECT_TRUE(grouped.present && grouped.key.grouped() &&
              grouped.fused == nullptr);

  // Ungrouped queries take the ungrouped vectorized aggregate.
  auto ungrouped = Query::On(table.get())
                       .Aggregate({Sum(Col("price")).As("s")})
                       .Build();
  ASSERT_TRUE(ungrouped.ok());
  const DagLeaf& flat = ungrouped.value().plan().dag->leaf;
  EXPECT_TRUE(flat.present && !flat.key.grouped());
}

}  // namespace
}  // namespace anker::query
