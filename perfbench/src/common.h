#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the perfbench binary: run options, latency samples,
// failure classes, the metric report (human lines plus the final JSON
// object) and the in-memory span log used by traced runs.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the wire workload's shard WALs and checkpoints live in.
  std::string data_dir;
  /// Where a traced run writes its spans ("" = keep them in memory only).
  std::string spans_out;
};

/// Process-start timestamp (NowNanos at the top of main).
int64_t ProcessStartNanos();

/// A set of samples; percentiles by nearest rank.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t size() const { return values_.size(); }
  /// q in (0, 100]; 0 when empty.
  double Percentile(double q) const;
  /// Whether at least `min_beyond` samples lie above the q-th percentile.
  bool HasTail(double q, size_t min_beyond = 10) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Latency counts in fixed memory: one counter per `bucket_ns` below
/// kBuckets * bucket_ns, exact values above kept in a list. For streams
/// of millions of operations, where a sample list would grow the
/// process's resident set with the run length.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = size_t{1} << 15;

  explicit LatencyHistogram(int64_t bucket_ns = 1)
      : bucket_ns_(bucket_ns), counts_(kBuckets, 0) {}
  void Add(int64_t nanos) {
    ++count_;
    const int64_t bucket = nanos / bucket_ns_;
    if (nanos >= 0 && bucket < static_cast<int64_t>(kBuckets)) {
      ++counts_[static_cast<size_t>(bucket)];
    } else {
      overflow_.push_back(nanos);
    }
  }
  void Merge(const LatencyHistogram& other);
  size_t size() const { return count_; }
  /// q in (0, 100], in microseconds (bucket lower edge); 0 when empty.
  double PercentileUs(double q) const;
  bool HasTail(double q, size_t min_beyond = 10) const;

 private:
  int64_t bucket_ns_;
  std::vector<uint32_t> counts_;
  mutable std::vector<int64_t> overflow_;
  size_t count_ = 0;
};

/// A measurement window cut into fixed-length slices by completion time.
/// End-to-end metrics are the best quartile over the complete slices (see
/// BestQuartile), so a slow stretch of the host moves them only when it
/// covers more than three quarters of the run.
class SlicedLatency {
 public:
  SlicedLatency(double window_seconds, double slice_seconds,
                int64_t bucket_ns);
  /// Records an operation that ended at `end_ns` in a window that began
  /// at `start_ns`.
  void Add(int64_t start_ns, int64_t end_ns, int64_t nanos) {
    const size_t slice = static_cast<size_t>((end_ns - start_ns) / slice_ns_);
    if (end_ns >= start_ns && slice < slices_.size()) slices_[slice].Add(nanos);
  }

  struct Summary {
    double ktps = 0;    ///< best-quartile slice throughput, thousands/s
    double p50_us = 0;  ///< best quartile of the slice p50s
    double p99_us = 0;  ///< best quartile of the slice p99s
    size_t samples = 0;
    size_t slices = 0;
    bool tails = true;  ///< every slice has 10 samples beyond its p99
  };
  /// Merges the threads' slices and summarizes the slices that lie
  /// wholly inside a window of `window_seconds`.
  static Summary Summarize(const std::vector<const SlicedLatency*>& threads,
                           double window_seconds);

 private:
  int64_t slice_ns_;
  int64_t bucket_ns_;
  std::vector<LatencyHistogram> slices_;
};

double Median(std::vector<double> values);
/// The quartile on the better side of `values`: the upper quartile when
/// higher is better, else the lower (linear interpolation). The host
/// this benchmark runs on has stretches of 10-30 s in which every round
/// trip slows by 2-8x; a median over slices follows them whenever they
/// cover half a run, the best quartile only past three quarters.
double BestQuartile(std::vector<double> values, bool higher_is_better);
double GeoMean(const std::vector<double>& values);
/// "a,b,c" with 4 decimals, for config echo lines.
std::string JoinValues(const std::vector<double>& values);

/// Outcome classes of attempted operations. Conflict aborts are the
/// engine's serializable answer to a race and are not failures; every
/// other class is. A failed operation never enters a latency sample.
struct Failures {
  uint64_t conflict_aborts = 0;
  uint64_t busy = 0;
  uint64_t transport_errors = 0;
  uint64_t protocol_errors = 0;
  uint64_t other_errors = 0;
  uint64_t wrong_results = 0;

  void Merge(const Failures& other);
  uint64_t failed() const {
    return busy + transport_errors + protocol_errors + other_errors +
           wrong_results;
  }
};

/// Names and units of every metric the JSON line may carry. Both
/// workloads report the full set; a per-layer metric a workload does not
/// exercise reads 0 with 0 samples.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Metric sink. Prints "metric <name> <value> <unit> n=<samples>" lines
/// and the final JSON object.
class Report {
 public:
  Report();

  /// Sets a listed metric (aborts on an unknown name).
  void Set(const std::string& name, double value, size_t samples);
  /// Informational line that is not part of the JSON.
  void Info(const std::string& name, double value, const std::string& unit,
            size_t samples);
  /// "config <key>=<value>" echo line, printed immediately.
  static void Config(const std::string& key, const std::string& value);

  void PrintLines() const;
  /// Last stdout line: end-to-end metrics, or per-layer ones when traced.
  void PrintJson(bool traced, bool correct, uint64_t attempted,
                 uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
    size_t samples = 0;
    bool set = false;
  };
  Entry* Find(const std::string& name);

  std::vector<Entry> e2e_;
  std::vector<Entry> layer_;
  std::vector<Entry> info_;
};

/// One recorded span: a named interval and the span that caused it
/// (0 = a root span). The phases of one OLAP transaction are children of
/// its root span.
struct Span {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span buffer; no locking (one writer, read after join).
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) { spans_.reserve(1 << 16); }
  /// Records a span and returns its id.
  uint64_t Record(uint32_t name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns) {
    const uint64_t id = (uint64_t{thread_} << 40) | ++next_;
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Span names and the per-thread logs of one traced run.
class Tracer {
 public:
  /// Registers a span name (before the load threads start).
  uint32_t Intern(const std::string& name);
  /// A fresh per-thread log (before the load threads start).
  SpanLog* NewLog();
  /// Durations in microseconds of every span called `name`.
  Samples DurationsUs(uint32_t name) const;
  size_t span_count() const;
  /// Writes "thread\tname\tid\tparent\tstart_ns\tend_ns" lines.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();
/// Filesystem type name of `path` (statfs magic), "unknown" otherwise.
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
