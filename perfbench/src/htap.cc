// The `htap` workload: the paper's mixed-workload setting (Fig. 7/8) in
// one process. Two OLTP streams run the 9 OLTP transactions while one
// OLAP stream cycles the 7 OLAP transactions in a fixed order, on a
// 1M-row TPC-H instance held entirely in memory.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "tpch/datagen.h"
#include "tpch/oltp_transactions.h"
#include "tpch/queries.h"
#include "tpch/workload_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace engine = anker::engine;
namespace tpch = anker::tpch;

constexpr size_t kLineitemRows = 1000000;
constexpr size_t kOltpStreams = 2;
constexpr uint64_t kSnapshotIntervalCommits = 10000;
constexpr int kSetups = 5;
constexpr double kWarmupSeconds = 1.0;

constexpr size_t kOltpKinds = 9;
constexpr size_t kOlapKinds = 7;
const char* const kOltpNames[kOltpKinds] = {"q1", "q2", "q3", "q4", "q5",
                                            "q6", "q7", "q8", "q9"};
// Same order as tpch::kAllOlapKinds, which is also the OLAP cycle order.
const char* const kOlapNames[kOlapKinds] = {
    "q1", "q4", "q6", "q17", "scan_lineitem", "scan_orders", "scan_part"};
// OLAP kinds whose phases the per-layer metrics break down.
const size_t kBrokenDownKinds[] = {0, 2, 3, 4};

/// One set-up engine with its TPC-H instance.
struct System {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<tpch::WorkloadDriver> driver;
  std::array<std::vector<anker::storage::Column*>, kOlapKinds> columns;
  /// Union of the OLAP column sets: the only columns ever snapshotted.
  std::vector<anker::storage::Column*> olap_columns;

  /// Tears down in dependency order (the driver refers into the engine).
  void Reset() {
    driver.reset();
    db.reset();
    for (auto& cols : columns) cols.clear();
    olap_columns.clear();
  }
};

engine::DatabaseConfig HtapConfig() {
  engine::DatabaseConfig config;
  config.mode = anker::txn::ProcessingMode::kHeterogeneousSerializable;
  config.backend = anker::snapshot::BufferBackend::kVmSnapshot;
  config.snapshot_interval_commits = kSnapshotIntervalCommits;
  config.scan_threads = 1;
  // Serial scans never touch the worker pool; size it anyway.
  config.worker_threads = 1;
  config.durability = anker::wal::DurabilityMode::kOff;
  config.checkpoint_interval_commits = 0;
  config.cold_budget_bytes = 0;
  return config;
}

struct SetupTimes {
  double total_s = 0;
  double load_tpch_s = 0;
  double warmup_snapshots_s = 0;
};

SetupTimes SetUp(uint64_t seed, int64_t start_ns, System* sys,
                 Outcome* outcome) {
  SetupTimes times;
  sys->db = std::make_unique<engine::Database>(HtapConfig());
  sys->db->Start();
  tpch::TpchConfig tpch_config;
  tpch_config.lineitem_rows = kLineitemRows;
  tpch_config.seed = seed;
  int64_t t = NowNanos();
  auto loaded = tpch::LoadTpch(sys->db.get(), tpch_config);
  times.load_tpch_s = static_cast<double>(NowNanos() - t) / 1e9;
  if (!loaded.ok()) {
    outcome->Fail("LoadTpch: " + loaded.status().ToString());
    return times;
  }
  sys->driver =
      std::make_unique<tpch::WorkloadDriver>(sys->db.get(), loaded.value());
  t = NowNanos();
  const anker::Status warmed = sys->driver->WarmupSnapshots();
  times.warmup_snapshots_s = static_cast<double>(NowNanos() - t) / 1e9;
  if (!warmed.ok()) outcome->Fail("WarmupSnapshots: " + warmed.ToString());
  for (size_t k = 0; k < kOlapKinds; ++k) {
    sys->columns[k] = sys->driver->queries().ColumnsFor(tpch::kAllOlapKinds[k]);
    for (anker::storage::Column* column : sys->columns[k]) {
      bool seen = false;
      for (anker::storage::Column* c : sys->olap_columns) seen |= c == column;
      if (!seen) sys->olap_columns.push_back(column);
    }
  }
  times.total_s = static_cast<double>(NowNanos() - start_ns) / 1e9;
  return times;
}

/// Per-window results of one OLTP stream.
struct OltpWindow {
  explicit OltpWindow(double seconds)
      : latency(seconds, std::min(kSliceSeconds, seconds), /*bucket_ns=*/1) {}
  SlicedLatency latency;
  uint64_t committed = 0;
};

struct OltpStreamResult {
  OltpStreamResult(double plain_s, double traced_s)
      : windows{OltpWindow(0), OltpWindow(plain_s), OltpWindow(traced_s)} {
    if (traced_s > 0) traced_by_kind.resize(kOltpKinds);
  }
  std::array<OltpWindow, 3> windows;  // indexed by Phase
  std::vector<LatencyHistogram> traced_by_kind;  // traced runs only
  // Whole-run counts (every phase), for the TxnStats cross-check.
  uint64_t attempted = 0;
  uint64_t commits = 0;
  Failures failures;
};

struct OlapWindow {
  explicit OlapWindow(double seconds)
      : slice_ns(static_cast<int64_t>(std::min(kSliceSeconds, seconds) * 1e9)),
        slices(seconds > 0 ? static_cast<size_t>(seconds / kSliceSeconds) + 3
                           : 0) {}
  std::array<Samples, kOlapKinds> txn_ms;
  /// The same transaction times cut into slices by completion time.
  int64_t slice_ns;
  std::vector<std::array<Samples, kOlapKinds>> slices;
  uint64_t completed = 0;
  // Traced window only: layer counters summed over completed txns.
  uint64_t columns_requested = 0;
  uint64_t materializations = 0;
  uint64_t dirty_pages = 0;
  int64_t flush_ns = 0;
  int64_t map_ns = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_resolved = 0;
  uint64_t seqlock_retries = 0;
};

struct OlapStreamResult {
  OlapStreamResult(double plain_s, double traced_s)
      : windows{OlapWindow(0), OlapWindow(plain_s), OlapWindow(traced_s)} {}
  std::array<OlapWindow, 3> windows;
  // Whole-run counts; `finished` are read-only commits.
  uint64_t attempted = 0;
  uint64_t finished = 0;
  Failures failures;
};

/// Span names of the traced window.
struct SpanNames {
  std::array<uint32_t, kOltpKinds> oltp;
  std::array<uint32_t, kOlapKinds> olap_txn, begin, exec, finish;
};

struct BufferTotals {
  uint64_t dirty_pages = 0;
  int64_t flush_ns = 0;
  int64_t map_ns = 0;
};

BufferTotals SumBufferStats(const std::vector<anker::storage::Column*>& cols) {
  BufferTotals totals;
  for (anker::storage::Column* column : cols) {
    const anker::snapshot::BufferStats stats = column->buffer()->stats();
    totals.dirty_pages += stats.dirty_pages_flushed;
    totals.flush_ns += stats.flush_nanos;
    totals.map_ns += stats.map_nanos;
  }
  return totals;
}

void OltpStream(System* sys, uint64_t seed, const PhaseControl* control,
                const SpanNames* names, SpanLog* log,
                OltpStreamResult* out) {
  anker::Rng rng(seed);
  tpch::OltpTransactions& oltp = sys->driver->oltp();
  const std::atomic<int>* phase = &control->current;
  for (;;) {
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    const size_t k = rng.NextBounded(kOltpKinds);
    const int64_t t0 = NowNanos();
    const anker::Status status = oltp.Run(tpch::kAllOltpKinds[k], &rng);
    const int64_t t1 = NowNanos();
    ++out->attempted;
    if (!status.ok()) {
      ++(status.IsAborted() ? out->failures.conflict_aborts
                            : out->failures.other_errors);
      continue;
    }
    ++out->commits;
    if (ph == kWarmup || phase->load(std::memory_order_acquire) != ph) {
      continue;
    }
    OltpWindow& window = out->windows[ph];
    ++window.committed;
    window.latency.Add(control->started_ns[ph].load(std::memory_order_relaxed),
                       t1, t1 - t0);
    if (ph == kTraced) {
      out->traced_by_kind[k].Add(t1 - t0);
      // The span file keeps every 16th OLTP transaction; the per-kind
      // percentiles come from the full histograms.
      if (window.committed % 16 == 0) log->Record(names->oltp[k], 0, t0, t1);
    }
  }
}

void OlapStream(System* sys, uint64_t seed, PhaseControl* control,
                const SpanNames* names, SpanLog* log,
                OlapStreamResult* out) {
  anker::Rng rng(seed);
  engine::Database* db = sys->db.get();
  const tpch::TpchQueries& queries = sys->driver->queries();
  const std::atomic<int>* phase = &control->current;
  for (size_t i = 0;; ++i) {
    const size_t k = i % kOlapKinds;
    if (k == 0) {
      const int requested = control->requested.load(std::memory_order_acquire);
      // Windows switch only here, so each holds whole OLAP cycles.
      if (requested != phase->load(std::memory_order_relaxed)) {
        control->Apply(requested);
      }
    }
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    const tpch::OlapKind kind = tpch::kAllOlapKinds[k];
    const tpch::OlapParams params = queries.RandomParams(kind, &rng);
    const bool traced = ph == kTraced;
    BufferTotals before;
    size_t materialized_before = 0;
    if (traced) {
      before = SumBufferStats(sys->olap_columns);
      materialized_before = db->snapshot_manager()->total_materializations();
    }
    ++out->attempted;
    const int64_t t0 = NowNanos();
    auto ctx = db->BeginOlap(sys->columns[k]);
    const int64_t t1 = NowNanos();
    if (!ctx.ok()) {
      ++out->failures.other_errors;
      continue;
    }
    BufferTotals after;
    size_t materialized_after = 0;
    if (traced) {
      after = SumBufferStats(sys->olap_columns);
      materialized_after = db->snapshot_manager()->total_materializations();
    }
    const tpch::OlapResult result = queries.Run(kind, *ctx.value(), params);
    const int64_t t2 = NowNanos();
    const anker::Status finished = db->FinishOlap(ctx.TakeValue());
    const int64_t t3 = NowNanos();
    if (!finished.ok()) {
      ++out->failures.other_errors;
      continue;
    }
    ++out->finished;
    if (ph == kWarmup || phase->load(std::memory_order_acquire) != ph) {
      continue;
    }
    OlapWindow& window = out->windows[ph];
    ++window.completed;
    window.txn_ms[k].Add(static_cast<double>(t3 - t0) / 1e6);
    const int64_t since = t3 - control->started_ns[ph].load();
    const size_t slice = static_cast<size_t>(since / window.slice_ns);
    if (since >= 0 && slice < window.slices.size()) {
      window.slices[slice][k].Add(static_cast<double>(t3 - t0) / 1e6);
    }
    if (!traced) continue;
    const uint64_t root = log->Record(names->olap_txn[k], 0, t0, t3);
    log->Record(names->begin[k], root, t0, t1);
    log->Record(names->exec[k], root, t1, t2);
    log->Record(names->finish[k], root, t2, t3);
    window.columns_requested += sys->columns[k].size();
    window.materializations += materialized_after - materialized_before;
    window.dirty_pages += after.dirty_pages - before.dirty_pages;
    window.flush_ns += after.flush_ns - before.flush_ns;
    window.map_ns += after.map_ns - before.map_ns;
    window.rows_scanned += result.scan.tight_rows + result.scan.hinted_rows +
                           result.scan.resolved_rows;
    window.rows_resolved += result.scan.resolved_rows;
    window.seqlock_retries += result.scan.seqlock_retries;
  }
}

/// End-to-end numbers of one measurement window.
struct WindowSummary {
  SlicedLatency::Summary oltp;
  std::array<Samples, kOlapKinds> olap_ms;
  /// Best quartile over complete slices of the geometric mean of the
  /// per-kind medians in each slice.
  double olap_geomean_ms = 0;
};

WindowSummary Summarize(int ph, double seconds,
                        const std::vector<OltpStreamResult>& oltp,
                        const OlapStreamResult& olap) {
  WindowSummary s;
  std::vector<const SlicedLatency*> threads;
  for (const OltpStreamResult& r : oltp) threads.push_back(&r.windows[ph].latency);
  s.oltp = SlicedLatency::Summarize(threads, seconds);
  const OlapWindow& window = olap.windows[ph];
  s.olap_ms = window.txn_ms;
  const size_t complete = std::min(
      window.slices.size(),
      static_cast<size_t>(seconds * 1e9 / static_cast<double>(window.slice_ns)));
  std::vector<double> geomeans;
  for (size_t i = 0; i < complete; ++i) {
    std::vector<double> medians;
    for (const Samples& kind : window.slices[i]) {
      if (kind.size() > 0) medians.push_back(kind.Percentile(50));
    }
    // A slice that misses a kind would compare a different query mix.
    if (medians.size() == kOlapKinds) geomeans.push_back(GeoMean(medians));
  }
  s.olap_geomean_ms = BestQuartile(geomeans, /*higher_is_better=*/false);
  return s;
}

/// Quiesced checks: the measured OLAP path, the engine's query-layer
/// path and the reference kernels agree on every OLAP kind.
void VerifyOlap(System* sys, uint64_t seed, Outcome* outcome) {
  anker::Rng rng(seed ^ 0x5eed);
  tpch::WorkloadDriver* driver = sys->driver.get();
  for (size_t k = 0; k < kOlapKinds; ++k) {
    const tpch::OlapKind kind = tpch::kAllOlapKinds[k];
    const tpch::OlapParams params = driver->queries().RandomParams(kind, &rng);
    outcome->attempted += 3;
    auto engine_path = driver->RunOlapOnce(
        kind, params, tpch::WorkloadDriver::OlapPath::kQueryLayer);
    auto reference = driver->RunOlapOnce(
        kind, params, tpch::WorkloadDriver::OlapPath::kReference);
    auto ctx = sys->db->BeginOlap(sys->columns[k]);
    if (!engine_path.ok() || !reference.ok() || !ctx.ok()) {
      outcome->Fail(std::string("OLAP ") + kOlapNames[k] + " did not run");
      continue;
    }
    const tpch::OlapResult measured =
        driver->queries().Run(kind, *ctx.value(), params);
    if (!sys->db->FinishOlap(ctx.TakeValue()).ok()) {
      outcome->Fail(std::string("OLAP ") + kOlapNames[k] + " did not finish");
      continue;
    }
    const double ref = reference.value().digest;
    const double tolerance = std::abs(ref) * 1e-9 + 1e-9;
    const tpch::OlapResult* checked[] = {&engine_path.value(), &measured};
    for (const tpch::OlapResult* got : checked) {
      if (std::abs(got->digest - ref) > tolerance ||
          got->rows_considered != reference.value().rows_considered) {
        char message[256];
        std::snprintf(message, sizeof(message),
                      "OLAP %s digest %.17g rows %llu != reference %.17g "
                      "rows %llu",
                      kOlapNames[k], got->digest,
                      static_cast<unsigned long long>(got->rows_considered),
                      ref,
                      static_cast<unsigned long long>(
                          reference.value().rows_considered));
        outcome->Fail(message);
      }
    }
  }
}

}  // namespace

Outcome RunHtap(const Options& options, Report* report) {
  Outcome outcome;
  Report::Config("lineitem_rows", std::to_string(kLineitemRows));
  Report::Config("oltp_streams", std::to_string(kOltpStreams));
  Report::Config("olap_streams", "1");
  Report::Config("olap_cycle",
                 "q1,q4,q6,q17,scan_lineitem,scan_orders,scan_part");
  Report::Config("engine", "heterogeneous_serializable backend=vm_snapshot "
                           "scan_threads=1 worker_threads=1 "
                           "snapshot_interval_commits=" +
                               std::to_string(kSnapshotIntervalCommits));
  Report::Config("flush_policy", "durability=off cold_tier=off");
  Report::Config("setups", std::to_string(kSetups));
  Report::Config("warmup_s", std::to_string(kWarmupSeconds));

  // Set up several times and keep the last system; the median set-up
  // time is the metric. The first set-up counts from process start.
  System sys;
  std::vector<double> setup_s, load_s, warmup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    sys.Reset();
    const int64_t start = rep == 0 ? ProcessStartNanos() : NowNanos();
    const SetupTimes times = SetUp(options.seed, start, &sys, &outcome);
    if (!outcome.correct()) return outcome;
    setup_s.push_back(times.total_s);
    load_s.push_back(times.load_tpch_s);
    warmup_s.push_back(times.warmup_snapshots_s);
  }
  Report::Config("setup_times_s", JoinValues(setup_s));
  report->Set("setup.load_tpch_s", Median(load_s), load_s.size());
  report->Set("setup.warmup_snapshots_s", Median(warmup_s), warmup_s.size());

  Tracer tracer;
  SpanNames names;
  for (size_t k = 0; k < kOltpKinds; ++k) {
    names.oltp[k] = tracer.Intern(std::string("txn.oltp.") + kOltpNames[k]);
  }
  for (size_t k = 0; k < kOlapKinds; ++k) {
    const std::string kind = kOlapNames[k];
    names.olap_txn[k] = tracer.Intern("olap.txn." + kind);
    names.begin[k] = tracer.Intern("engine.begin_olap." + kind);
    names.exec[k] = tracer.Intern("query.exec." + kind);
    names.finish[k] = tracer.Intern("engine.finish_olap." + kind);
  }

  PhaseControl control;
  const double plain_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<OltpStreamResult> oltp(
      kOltpStreams, OltpStreamResult(plain_s, options.seconds - plain_s));
  OlapStreamResult olap(plain_s, options.seconds - plain_s);
  const anker::txn::TxnStats start_stats = sys.db->txn_manager().stats();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kOltpStreams; ++s) {
    SpanLog* log = tracer.NewLog();
    threads.emplace_back(OltpStream, &sys, options.seed * 7919 + s + 1,
                         &control, &names, log, &oltp[s]);
  }
  SpanLog* olap_log = tracer.NewLog();
  threads.emplace_back(OlapStream, &sys, options.seed * 104729 + 17,
                       &control, &names, olap_log, &olap);

  SleepSeconds(kWarmupSeconds);
  control.SwitchTo(kPlain);
  SleepSeconds(plain_s);
  double traced_window_s = 0;
  anker::txn::TxnStats traced_start{}, traced_end{};
  if (options.trace) {
    control.SwitchTo(kTraced);
    traced_start = sys.db->txn_manager().stats();
    SleepSeconds(options.seconds - plain_s);
  }
  control.SwitchTo(kStop);
  if (options.trace) {
    traced_end = sys.db->txn_manager().stats();
    traced_window_s = control.WindowSeconds(kTraced, kStop);
  }
  const double plain_window_s =
      control.WindowSeconds(kPlain, options.trace ? kTraced : kStop);
  for (std::thread& thread : threads) thread.join();

  // ---- correctness at quiescence ----------------------------------------
  const anker::txn::TxnStats end_stats = sys.db->txn_manager().stats();
  uint64_t counted_commits = olap.finished;
  uint64_t counted_failures = 0;
  outcome.attempted = olap.attempted;
  outcome.failures.Merge(olap.failures);
  for (const OltpStreamResult& r : oltp) {
    counted_commits += r.commits;
    counted_failures += r.attempted - r.commits;
    outcome.attempted += r.attempted;
    outcome.failures.Merge(r.failures);
  }
  const uint64_t engine_commits = end_stats.commits - start_stats.commits;
  const uint64_t engine_aborts =
      (end_stats.aborts_ww - start_stats.aborts_ww) +
      (end_stats.aborts_validation - start_stats.aborts_validation) +
      (end_stats.user_aborts - start_stats.user_aborts);
  if (counted_commits != engine_commits) {
    outcome.Fail("counted commits " + std::to_string(counted_commits) +
                 " != TxnStats.commits delta " +
                 std::to_string(engine_commits));
  }
  if (counted_failures != engine_aborts) {
    outcome.Fail("counted aborts " + std::to_string(counted_failures) +
                 " != TxnStats aborts delta " + std::to_string(engine_aborts));
  }
  VerifyOlap(&sys, options.seed, &outcome);

  // ---- end-to-end metrics (untraced window) -----------------------------
  const WindowSummary plain = Summarize(kPlain, plain_window_s, oltp, olap);
  uint64_t olap_samples = 0;
  for (size_t k = 0; k < kOlapKinds; ++k) {
    olap_samples += plain.olap_ms[k].size();
    report->Info(std::string("olap_") + kOlapNames[k] + "_p50_ms",
                 plain.olap_ms[k].Percentile(50), "ms",
                 plain.olap_ms[k].size());
    if (plain.olap_ms[k].size() == 0) {
      outcome.Fail(std::string("no OLAP ") + kOlapNames[k] +
                   " completed in the measured window");
    }
  }
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("oltp_ktps", plain.oltp.ktps, plain.oltp.samples);
  report->Set("oltp_p50_us", plain.oltp.p50_us, plain.oltp.samples);
  if (plain.oltp.tails) {
    report->Set("oltp_p99_us", plain.oltp.p99_us, plain.oltp.samples);
  } else {
    outcome.Fail("a slice has too few OLTP samples for a p99");
  }
  if (plain.olap_geomean_ms == 0) {
    outcome.Fail("no measured slice completed every OLAP kind");
  }
  report->Set("olap_p50_ms", plain.olap_geomean_ms, olap_samples);

  // ---- per-layer metrics (traced window) --------------------------------
  if (options.trace) {
    const WindowSummary traced =
        Summarize(kTraced, traced_window_s, oltp, olap);
    const OlapWindow& w = olap.windows[kTraced];
    Samples finish_all;
    for (size_t k : kBrokenDownKinds) {
      const std::string kind = kOlapNames[k];
      const Samples begin = tracer.DurationsUs(names.begin[k]);
      const Samples exec = tracer.DurationsUs(names.exec[k]);
      const Samples finish = tracer.DurationsUs(names.finish[k]);
      const Samples whole = tracer.DurationsUs(names.olap_txn[k]);
      report->Set("engine.begin_olap_ms." + kind, begin.Percentile(50) / 1e3,
                  begin.size());
      report->Set("query.exec_ms." + kind, exec.Percentile(50) / 1e3,
                  exec.size());
      report->Set("olap.txn_ms." + kind, whole.Percentile(50) / 1e3,
                  whole.size());
      report->Set("olap.phase_coverage." + kind,
                  Ratio(begin.Percentile(50) + exec.Percentile(50) +
                            finish.Percentile(50),
                        whole.Percentile(50)),
                  whole.size());
    }
    for (size_t k = 0; k < kOlapKinds; ++k) {
      finish_all.Merge(tracer.DurationsUs(names.finish[k]));
    }
    report->Set("engine.finish_olap_ms", finish_all.Percentile(50) / 1e3,
                finish_all.size());
    const double txns = static_cast<double>(w.completed);
    report->Set("snapshot.materializations_per_query",
                Ratio(static_cast<double>(w.materializations), txns),
                w.completed);
    report->Set("snapshot.epoch_reuse_ratio",
                1.0 - Ratio(static_cast<double>(w.materializations),
                            static_cast<double>(w.columns_requested)),
                w.completed);
    report->Set("snapshot.dirty_pages_flushed",
                Ratio(static_cast<double>(w.dirty_pages), txns), w.completed);
    report->Set("snapshot.flush_ms",
                Ratio(static_cast<double>(w.flush_ns) / 1e6, txns),
                w.completed);
    report->Set("vm.map_ms", Ratio(static_cast<double>(w.map_ns) / 1e6, txns),
                w.completed);
    report->Set("mvcc.resolved_row_share",
                Ratio(static_cast<double>(w.rows_resolved),
                      static_cast<double>(w.rows_scanned)),
                w.completed);
    report->Set("mvcc.seqlock_retries",
                Ratio(static_cast<double>(w.seqlock_retries), txns),
                w.completed);
    for (size_t k = 0; k < kOltpKinds; ++k) {
      LatencyHistogram us;
      for (const OltpStreamResult& r : oltp) us.Merge(r.traced_by_kind[k]);
      report->Set(std::string("txn.oltp_us.") + kOltpNames[k],
                  us.PercentileUs(50), us.size());
    }
    const uint64_t aborts =
        (traced_end.aborts_ww - traced_start.aborts_ww) +
        (traced_end.aborts_validation - traced_start.aborts_validation);
    const uint64_t commits = traced_end.commits - traced_start.commits;
    report->Set("txn.abort_ratio",
                Ratio(static_cast<double>(aborts),
                      static_cast<double>(aborts + commits)),
                aborts + commits);
    report->Set("trace.overhead_oltp_ktps",
                Ratio(traced.oltp.ktps, plain.oltp.ktps) - 1,
                traced.oltp.samples);
    report->Set("trace.overhead_oltp_p50_us",
                Ratio(traced.oltp.p50_us, plain.oltp.p50_us) - 1,
                traced.oltp.samples);
    report->Set("trace.overhead_olap_p50_ms",
                Ratio(traced.olap_geomean_ms, plain.olap_geomean_ms) - 1,
                w.completed);
    Report::Config("spans_recorded", std::to_string(tracer.span_count()));
    if (!options.spans_out.empty() && !tracer.Write(options.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.spans_out.c_str());
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(), 1);
  ReportFailures(outcome, report);
  return outcome;
}

}  // namespace perfbench
