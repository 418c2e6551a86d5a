// Latency of the DAG's join + sort/top-k operators on the declarative
// TPC-H suite: Q3 (two hash joins, grouped agg, top-10) and Q18 (join +
// having + top-100) against the single-table Q1 baseline on the same
// instance. The report carries the absolute per-rep latencies and the
// q3/q18-over-q1 ratios the perf gates consume — a ratio of joined
// pipeline to plain scan is stable across runner speeds where absolute
// milliseconds are not.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace anker {
namespace {

struct Timed {
  std::vector<double> ms;
  uint64_t digest = 0;

  double Min() const { return *std::min_element(ms.begin(), ms.end()); }
  double Median() const {
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
};

Timed MeasureQuery(engine::Database* db, const tpch::Tpch22& queries,
                   int q, int reps) {
  Timed timed;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    auto result = db->Run(queries.Compiled(q), queries.ParamsFor(q));
    const double ms = timer.ElapsedMillis();
    ANKER_CHECK(result.ok());
    const uint64_t digest =
        tpch::Tpch22::RawDigest(result.value(), queries.Ordered(q));
    if (rep == 0) {
      timed.digest = digest;
    } else {
      ANKER_CHECK(digest == timed.digest);  // Reps must agree bit-for-bit.
    }
    timed.ms.push_back(ms);
  }
  return timed;
}

}  // namespace
}  // namespace anker

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(
      flags.Int("li_rows", flags.Has("full") ? 6000000 : 600000));
  const int reps = static_cast<int>(flags.Int("reps", 7));
  const std::string json_out = flags.Str("json_out", "");
  flags.RejectUnknown();

  bench::JsonReport report("join_topk");
  report["flags"]["li_rows"] = rows;
  report["flags"]["reps"] = reps;

  bench::PrintHeader(
      "Operator DAG: hash join + sort/top-k latency (TPC-H Q3/Q18 vs Q1)",
      "joined top-k pipelines within a small factor of a plain "
      "single-table aggregation");

  engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
      txn::ProcessingMode::kHeterogeneousSerializable);
  config.snapshot_interval_commits = 10000;
  engine::Database db(config);
  db.Start();
  tpch::TpchConfig tpch_config;
  tpch_config.lineitem_rows = rows;
  auto loaded = tpch::LoadTpch(&db, tpch_config);
  ANKER_CHECK(loaded.ok());
  tpch::TpchInstance instance = loaded.TakeValue();
  (void)instance;
  tpch::Tpch22 queries(&db);

  struct Case {
    const char* name;
    int q;  ///< Tpch22 query number (1-based).
  };
  // Q1: single-table grouped aggregation (the grouped vectorized
  // scan→aggregate leaf; its Avg(l_quantity) operand pattern is not in
  // the fused registry) as the baseline; Q3 and Q18 are the join + top-k
  // pipelines under test.
  const Case cases[] = {{"q1", 1}, {"q3", 3}, {"q18", 18}};

  double q1_min = 0.0;
  std::printf("%-6s %10s %10s\n", "query", "min ms", "p50 ms");
  for (const Case& c : cases) {
    // One untimed warm-up rep per query.
    (void)MeasureQuery(&db, queries, c.q, 1);
    Timed timed = MeasureQuery(&db, queries, c.q, reps);
    std::printf("%-6s %10.2f %10.2f\n", c.name, timed.Min(),
                timed.Median());
    auto& entry = report["queries"].Append();
    entry["query"] = c.name;
    entry["min_ms"] = timed.Min();
    entry["p50_ms"] = timed.Median();
    for (double ms : timed.ms) entry["reps_ms"].Append() = ms;
    if (c.q == 1) q1_min = timed.Min();
    if (c.q != 1 && q1_min > 0.0) {
      report[std::string(c.name) + "_over_q1_min"] =
          timed.Min() / q1_min;
    }
  }

  report.Write(json_out);
  return 0;
}
