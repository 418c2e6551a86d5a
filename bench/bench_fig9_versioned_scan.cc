// Reproduces Figure 9: full-scan runtime over LINEITEM, ORDERS and PART as
// the fraction of versioned rows grows from 0% to 100% (versioned rows
// uniformly distributed), with the 1024-row first/last-versioned-row
// metadata applied. Paper shape: scanning a fully versioned table is ~5x
// slower than an unversioned one despite the block-skipping optimization.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/executor.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

namespace anker {
namespace {

/// Versions rows [already_versioned, target) of `column` using a shuffled
/// uniform order shared by the caller.
void VersionRows(storage::Column* column,
                 const std::vector<uint64_t>& shuffled, size_t from,
                 size_t to, mvcc::Timestamp ts) {
  for (size_t i = from; i < to; ++i) {
    const uint64_t row = shuffled[i];
    column->ApplyCommittedWrite(row, column->ReadLatestRaw(row) + 1, ts);
  }
}

double MeasureScanMs(const storage::Column* column, mvcc::Timestamp read_ts,
                     int reps, engine::ScanStats* stats) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const engine::ColumnReader reader =
        engine::ColumnReader::ForLive(column, read_ts);
    Timer timer;
    const double sum =
        engine::ScanColumnSum(reader, /*as_double=*/false, stats);
    (void)sum;
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

}  // namespace
}  // namespace anker

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(
      flags.Int("li_rows", flags.Has("full") ? 6000000 : 600000));
  const int reps = static_cast<int>(flags.Int("reps", 3));
  const std::string json_out = flags.Str("json_out", "");
  flags.RejectUnknown();

  bench::PrintHeader(
      "Figure 9: full-scan time vs fraction of versioned rows",
      "runtime grows with versioned fraction; 100% versioned ~5x slower "
      "than 0% even with 1024-row skip metadata");

  // Homogeneous database without GC so the chains stay in place.
  engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
      txn::ProcessingMode::kHomogeneousSerializable);
  engine::Database db(config);  // Start() not called: no GC thread
  tpch::TpchConfig tpch;
  tpch.lineitem_rows = rows;
  auto loaded = tpch::LoadTpch(&db, tpch);
  ANKER_CHECK(loaded.ok());
  const tpch::TpchInstance& inst = loaded.value();

  struct Target {
    const char* name;
    storage::Column* column;
    size_t rows;
  };
  const Target targets[] = {
      {"LineItem", inst.lineitem->GetColumn("l_orderkey"),
       inst.lineitem_rows},
      {"Orders", inst.orders->GetColumn("o_orderkey"), inst.orders_rows},
      {"Part", inst.part->GetColumn("p_partkey"), inst.part_rows},
  };

  std::printf("rows: lineitem=%zu orders=%zu part=%zu, reps=%d "
              "(best-of shown)\n\n",
              inst.lineitem_rows, inst.orders_rows, inst.part_rows, reps);
  std::printf("%-10s", "versioned");
  for (const auto& target : targets) std::printf(" %14s", target.name);
  std::printf("   (scan time ms; reader older than all versions)\n");

  // Shuffled row orders, one per table, so versioned rows are uniform.
  Rng rng(13);
  std::vector<std::vector<uint64_t>> shuffles;
  for (const auto& target : targets) {
    std::vector<uint64_t> order(target.rows);
    for (uint64_t i = 0; i < target.rows; ++i) order[i] = i;
    for (size_t i = target.rows - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    shuffles.push_back(std::move(order));
  }

  // The reader timestamp predates every version (versions use ts >= 100),
  // forcing chain resolution for versioned rows — the homogeneous-scan
  // situation the figure isolates.
  const mvcc::Timestamp read_ts = 10;
  bench::JsonReport report("fig9_versioned_scan");
  report["flags"]["li_rows"] = rows;
  report["flags"]["reps"] = reps;
  std::vector<size_t> versioned_so_far(3, 0);
  double baseline[3] = {0, 0, 0};
  double full[3] = {0, 0, 0};
  for (int percent = 0; percent <= 100; percent += 10) {
    std::printf("%8d%%:", percent);
    auto& row = report["scan_times"].Append();
    row["versioned_percent"] = percent;
    for (int t = 0; t < 3; ++t) {
      const size_t target_count =
          static_cast<size_t>(targets[t].rows * (percent / 100.0));
      VersionRows(targets[t].column, shuffles[t], versioned_so_far[t],
                  target_count, /*ts=*/100 + percent);
      versioned_so_far[t] = target_count;
      engine::ScanStats stats;
      const double ms =
          MeasureScanMs(targets[t].column, read_ts, reps, &stats);
      if (percent == 0) baseline[t] = ms;
      if (percent == 100) full[t] = ms;
      std::printf(" %14.3f", ms);
      row[std::string(targets[t].name) + "_ms"] = ms;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nslowdown at 100%% vs 0%% (paper: ~5x): ");
  // Both ends are best-of-reps measurements from the sweep above.
  for (int t = 0; t < 3; ++t) {
    std::printf("%s=%.1fx ", targets[t].name, full[t] / baseline[t]);
    report["slowdown_100_vs_0"][targets[t].name] = full[t] / baseline[t];
  }
  std::printf("\n");
  report.Write(json_out);
  return 0;
}
