// Seeded differential plan fuzzer: generates random declarative plans in
// their wire form, compiles each against the live catalog, and runs it
//   (a) as compiled (the builder's chosen fast path or DAG),
//   (b) forced through the operator DAG,
//   (c) after an encode -> decode -> recompile wire round trip,
// asserting bit-identical result digests across all three. The data is
// dyadic-rational (prices in 1/4 steps, integer factors) so every sum is
// exact in double regardless of accumulation order — any digest mismatch
// is a real planner/executor divergence, not float reassociation.
//
// ANKER_FUZZ_ITERS overrides the plan count (smoke default 40; the
// nightly sweep in .github/workflows runs 2000 under ASan and TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "query/dag.h"
#include "query/query.h"
#include "query/serialize.h"

namespace anker::query {
namespace {

struct FuzzDb {
  FuzzDb() {
    engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
        txn::ProcessingMode::kHomogeneousSnapshotIsolation);
    db = std::make_unique<engine::Database>(config);
    db->Start();
    constexpr size_t kRows = 3000;
    auto created = db->CreateTable(
        "events",
        {{"id", storage::ValueType::kInt64},
         {"tag", storage::ValueType::kDict32},
         {"price", storage::ValueType::kDouble},
         {"qty", storage::ValueType::kDouble}},
        kRows);
    ANKER_CHECK(created.ok());
    events = created.value();
    storage::Dictionary* tags = events->GetDictionary("tag");
    for (const char* name : {"red", "green", "blue", "grey", "gold"}) {
      tags->GetOrAdd(name);
    }
    for (size_t row = 0; row < kRows; ++row) {
      events->GetColumn("id")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row % 64)));
      events->GetColumn("tag")->LoadValue(
          row, storage::EncodeDict(static_cast<uint32_t>(row % 5)));
      events->GetColumn("price")->LoadValue(
          row, storage::EncodeDouble(0.25 * static_cast<double>(row % 201)));
      events->GetColumn("qty")->LoadValue(
          row, storage::EncodeDouble(static_cast<double>(1 + row % 50)));
    }

    auto dims_created = db->CreateTable(
        "dims",
        {{"key", storage::ValueType::kInt64},
         {"factor", storage::ValueType::kDouble}},
        40);
    ANKER_CHECK(dims_created.ok());
    dims = dims_created.value();
    for (size_t row = 0; row < 40; ++row) {
      dims->GetColumn("key")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(row)));
      dims->GetColumn("factor")->LoadValue(
          row, storage::EncodeDouble(static_cast<double>(1 + row % 9)));
    }
  }

  std::unique_ptr<engine::Database> db;
  storage::Table* events = nullptr;
  storage::Table* dims = nullptr;
};

/// FNV-1a over the full result: schema names, key bit patterns and the
/// raw IEEE bits of every double. Unordered results are canonicalized by
/// sorting rows (keys, then value bit patterns) first, so two runs agree
/// iff they produced the same multiset of rows.
uint64_t Digest(QueryResult result, bool ordered) {
  if (!ordered) {
    std::sort(result.rows.begin(), result.rows.end(),
              [](const QueryResult::Row& a, const QueryResult::Row& b) {
                if (a.keys != b.keys) return a.keys < b.keys;
                for (size_t i = 0; i < a.values.size(); ++i) {
                  uint64_t av, bv;
                  std::memcpy(&av, &a.values[i], 8);
                  std::memcpy(&bv, &b.values[i], 8);
                  if (av != bv) return av < bv;
                }
                return false;
              });
  }
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto mix_str = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& name : result.key_names) mix_str(name);
  for (const auto& name : result.columns) mix_str(name);
  for (const auto& row : result.rows) {
    for (uint64_t k : row.keys) mix(k);
    for (double v : row.values) {
      uint64_t bits;
      std::memcpy(&bits, &v, 8);
      mix(bits);
    }
  }
  mix(result.rows.size());
  return h;
}

/// One random plan in wire form. Every shape the generator emits is
/// valid by construction; what varies is which execution strategy the
/// builder picks and which DAG operators get exercised.
WireQuery GeneratePlan(Rng& rng) {
  WireQuery w;
  w.table = "events";

  // Scan filter: none / id range / price threshold / dict equality,
  // sometimes OR-combined so the generic predicate path binds too.
  switch (rng.NextBounded(5)) {
    case 0:
      break;
    case 1:
      w.filter = Col("id") < I64(rng.NextInRange(0, 70));
      break;
    case 2:
      w.filter = Col("price") >= F64(0.25 * rng.NextInRange(0, 200));
      break;
    case 3:
      w.filter = Col("tag") == Str(rng.NextBool(0.5) ? "red" : "gold");
      break;
    default:
      w.filter = (Col("tag") == Str("blue")) ||
                 (Col("qty") > F64(rng.NextInRange(1, 49)));
      break;
  }

  // Optional join against dims on id = key (ids 0..63, keys 0..39: a
  // third of the probe side misses by construction).
  const bool joined = rng.NextBool(0.45);
  JoinType join_type = JoinType::kInner;
  if (joined) {
    WireJoin join;
    join.input.table = "dims";
    if (rng.NextBool(0.3)) {
      join.input.filter = Col("key") < I64(rng.NextInRange(0, 45));
    }
    const JoinType kinds[4] = {JoinType::kInner, JoinType::kLeftSemi,
                               JoinType::kLeftAnti, JoinType::kLeftOuter};
    join_type = kinds[rng.NextBounded(4)];
    join.type = join_type;
    join.probe_keys = {"id"};
    join.build_keys = {"key"};
    w.joins.push_back(std::move(join));
  }
  // Build-side value columns survive only matched inner/outer joins.
  const bool has_factor =
      joined &&
      (join_type == JoinType::kInner || join_type == JoinType::kLeftOuter);

  // Aggregates: 1..3 drawn without worrying about duplicates (names are
  // position-suffixed).
  const size_t num_aggs = 1 + rng.NextBounded(3);
  for (size_t i = 0; i < num_aggs; ++i) {
    Agg agg;
    switch (rng.NextBounded(has_factor ? 7 : 6)) {
      case 0:
        agg = Sum(Col("price"));
        break;
      case 1:
        agg = Count();
        break;
      case 2:
        agg = Sum(Col("price") * Col("qty"));
        break;
      case 3:
        agg = Min(Col("price"));
        break;
      case 4:
        agg = Max(Col("qty"));
        break;
      case 5:
        agg = CountDistinct(Col("id"));
        break;
      default:
        agg = Sum(Col("qty") * Col("factor"));
        break;
    }
    w.aggs.push_back(agg.As("a" + std::to_string(i)));
  }

  // Group keys: none (global) / tag / id / both.
  switch (rng.NextBounded(4)) {
    case 0:
      break;
    case 1:
      w.group_by = {"tag"};
      break;
    case 2:
      w.group_by = {"id"};
      break;
    default:
      w.group_by = {"tag", "id"};
      break;
  }

  if (!w.group_by.empty()) {
    if (rng.NextBool(0.25)) {
      w.having = Col("a0") > F64(0.25 * rng.NextInRange(0, 400));
    }
    if (rng.NextBool(0.3)) {
      w.has_window = true;
      w.win_funcs = {rng.NextBool(0.5) ? WinRank("w")
                                       : WinSum(Col("a0"), "w")};
      w.win_partition = {w.group_by[0]};
      w.win_order = {{"a0", true}};
      if (rng.NextBool(0.5)) {
        w.post_filter = Col("w") <= F64(rng.NextInRange(1, 5));
      }
    }
    if (rng.NextBool(0.4)) {
      w.order_by = {{"a0", rng.NextBool(0.5)}};
      if (rng.NextBool(0.7)) {
        w.limit = rng.NextInRange(0, 30);
      }
    }
  }
  return w;
}

/// One-line plan shape for replaying failures (ANKER_FUZZ_VERBOSE=1):
/// an ANKER_CHECK inside the engine kills the process before gtest can
/// print anything, so the shape goes to stderr before the run.
std::string DescribePlan(const WireQuery& w, size_t iter) {
  std::string out = "plan " + std::to_string(iter) + ": " + w.table;
  if (w.filter.valid()) out += " filtered";
  for (const WireJoin& j : w.joins) {
    out += " join(" + j.input.table +
           ", type=" + std::to_string(static_cast<int>(j.type)) +
           (j.input.filter.valid() ? ", filtered)" : ")");
  }
  out += " aggs=";
  for (size_t i = 0; i < w.aggs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(static_cast<int>(w.aggs[i].kind()));
    if (w.aggs[i].expr().valid()) out += "e";
  }
  out += " group_by=" + std::to_string(w.group_by.size());
  if (w.having.valid()) out += " having";
  if (w.has_window) out += " window";
  if (w.post_filter.valid()) out += " post_filter";
  if (!w.order_by.empty()) out += " order_by";
  if (w.limit >= 0) out += " limit=" + std::to_string(w.limit);
  return out;
}

TEST(PlanFuzzTest, StrategiesAndWireAgreeOnEveryPlan) {
  FuzzDb fx;
  size_t iters = 40;
  if (const char* env = std::getenv("ANKER_FUZZ_ITERS")) {
    iters = static_cast<size_t>(std::atoll(env));
  }
  Rng rng(20260808);

  const bool verbose = std::getenv("ANKER_FUZZ_VERBOSE") != nullptr;
  for (size_t iter = 0; iter < iters; ++iter) {
    WireQuery wire = GeneratePlan(rng);
    if (verbose) {
      std::fprintf(stderr, "%s\n", DescribePlan(wire, iter).c_str());
    }
    const bool ordered = !wire.order_by.empty();

    auto compiled = CompileWireQuery(wire, fx.db->catalog());
    ASSERT_TRUE(compiled.ok())
        << "plan " << iter << ": " << compiled.status().ToString();

    auto base = fx.db->Run(compiled.value(), Params());
    ASSERT_TRUE(base.ok())
        << "plan " << iter << ": " << base.status().ToString();
    const uint64_t base_digest = Digest(base.value(), ordered);

    // (b) same plan forced through the DAG.
    ExecOptions force;
    force.force_dag = true;
    auto dag = fx.db->Run(compiled.value(), Params(), force);
    ASSERT_TRUE(dag.ok())
        << "plan " << iter << ": " << dag.status().ToString();
    EXPECT_EQ(Digest(dag.value(), ordered), base_digest)
        << "plan " << iter << " diverges between its leaf ("
        << compiled.value().plan().dag->leaf.present << ") and dag";

    // (c) encode -> decode -> recompile -> run, as the server would.
    std::string encoded;
    ASSERT_TRUE(EncodeWireQuery(wire, &encoded).ok()) << "plan " << iter;
    std::string_view view(encoded);
    WireQuery decoded;
    ASSERT_TRUE(DecodeWireQuery(&view, &decoded).ok()) << "plan " << iter;
    ASSERT_TRUE(view.empty()) << "plan " << iter << ": trailing bytes";
    auto recompiled = CompileWireQuery(decoded, fx.db->catalog());
    ASSERT_TRUE(recompiled.ok())
        << "plan " << iter << ": " << recompiled.status().ToString();
    EXPECT_EQ(recompiled.value().plan().dag->leaf.present,
              compiled.value().plan().dag->leaf.present)
        << "plan " << iter;
    EXPECT_EQ(recompiled.value().plan().dag->leaf.fused,
              compiled.value().plan().dag->leaf.fused)
        << "plan " << iter;
    auto wired = fx.db->Run(recompiled.value(), Params());
    ASSERT_TRUE(wired.ok())
        << "plan " << iter << ": " << wired.status().ToString();
    EXPECT_EQ(Digest(wired.value(), ordered), base_digest)
        << "plan " << iter << " diverges across the wire";
  }
}

/// The generator itself must be deterministic: two runs from the same
/// seed produce byte-identical wire encodings (otherwise a reported
/// failing iteration could not be replayed).
TEST(PlanFuzzTest, GeneratorIsDeterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i) {
    std::string ea, eb;
    ASSERT_TRUE(EncodeWireQuery(GeneratePlan(a), &ea).ok());
    ASSERT_TRUE(EncodeWireQuery(GeneratePlan(b), &eb).ok());
    ASSERT_EQ(ea, eb) << "iteration " << i;
  }
}

}  // namespace
}  // namespace anker::query
