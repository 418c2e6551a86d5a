#include "common.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {
const int64_t g_process_start = NowNanos();
}  // namespace

int64_t ProcessStartNanos() { return g_process_start; }

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values_.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

bool Samples::HasTail(double q, size_t min_beyond) const {
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values_.size()));
  return static_cast<double>(values_.size()) - rank >=
         static_cast<double>(min_beyond);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.bucket_ns_ != bucket_ns_) std::abort();
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

double LatencyHistogram::PercentileUs(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(count_));
  const uint64_t target = rank < 1 ? 1 : static_cast<uint64_t>(rank);
  uint64_t seen = 0;
  for (size_t bucket = 0; bucket < counts_.size(); ++bucket) {
    seen += counts_[bucket];
    if (seen >= target) {
      return static_cast<double>(static_cast<int64_t>(bucket) * bucket_ns_) /
             1e3;
    }
  }
  std::sort(overflow_.begin(), overflow_.end());
  const size_t index = std::min<size_t>(target - seen - 1, overflow_.size() - 1);
  return static_cast<double>(overflow_[index]) / 1e3;
}

bool LatencyHistogram::HasTail(double q, size_t min_beyond) const {
  const double rank = std::ceil(q / 100.0 * static_cast<double>(count_));
  return static_cast<double>(count_) - rank >= static_cast<double>(min_beyond);
}

SlicedLatency::SlicedLatency(double window_seconds, double slice_seconds,
                             int64_t bucket_ns)
    : slice_ns_(static_cast<int64_t>(slice_seconds * 1e9)),
      bucket_ns_(bucket_ns) {
  // Room for a window that overruns its request (htap windows end on an
  // OLAP cycle boundary); slices past the window are never summarized.
  if (window_seconds <= 0 || slice_ns_ <= 0) return;
  const size_t count = static_cast<size_t>(window_seconds / slice_seconds) + 3;
  for (size_t i = 0; i < count; ++i) slices_.emplace_back(bucket_ns);
}

SlicedLatency::Summary SlicedLatency::Summarize(
    const std::vector<const SlicedLatency*>& threads, double window_seconds) {
  Summary summary;
  if (threads.empty()) return summary;
  const SlicedLatency& first = *threads.front();
  if (first.slices_.empty()) return summary;
  const double slice_s = static_cast<double>(first.slice_ns_) / 1e9;
  const size_t complete = std::min(
      first.slices_.size(), static_cast<size_t>(window_seconds / slice_s));
  std::vector<double> ktps, p50, p99;
  for (size_t i = 0; i < complete; ++i) {
    LatencyHistogram merged(first.bucket_ns_);
    for (const SlicedLatency* thread : threads) merged.Merge(thread->slices_[i]);
    summary.samples += merged.size();
    ktps.push_back(static_cast<double>(merged.size()) / slice_s / 1e3);
    p50.push_back(merged.PercentileUs(50));
    p99.push_back(merged.PercentileUs(99));
    summary.tails &= merged.HasTail(99);
  }
  summary.slices = complete;
  summary.tails &= complete > 0;
  summary.ktps = BestQuartile(ktps, /*higher_is_better=*/true);
  summary.p50_us = BestQuartile(p50, /*higher_is_better=*/false);
  summary.p99_us = BestQuartile(p99, /*higher_is_better=*/false);
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double BestQuartile(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = (higher_is_better ? 0.75 : 0.25) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (v <= 0) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

void Failures::Merge(const Failures& other) {
  conflict_aborts += other.conflict_aborts;
  busy += other.busy;
  transport_errors += other.transport_errors;
  protocol_errors += other.protocol_errors;
  other_errors += other.other_errors;
  wrong_results += other.wrong_results;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"oltp_ktps", "k/s"},      {"oltp_p50_us", "us"},
      {"oltp_p99_us", "us"},     {"olap_p50_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // htap: OLAP transaction phases per kind (traced window).
      {"engine.begin_olap_ms.q1", "ms"},
      {"engine.begin_olap_ms.q6", "ms"},
      {"engine.begin_olap_ms.q17", "ms"},
      {"engine.begin_olap_ms.scan_lineitem", "ms"},
      {"query.exec_ms.q1", "ms"},
      {"query.exec_ms.q6", "ms"},
      {"query.exec_ms.q17", "ms"},
      {"query.exec_ms.scan_lineitem", "ms"},
      {"engine.finish_olap_ms", "ms"},
      {"olap.txn_ms.q1", "ms"},
      {"olap.txn_ms.q6", "ms"},
      {"olap.txn_ms.q17", "ms"},
      {"olap.txn_ms.scan_lineitem", "ms"},
      {"olap.phase_coverage.q1", "ratio"},
      {"olap.phase_coverage.q6", "ratio"},
      {"olap.phase_coverage.q17", "ratio"},
      {"olap.phase_coverage.scan_lineitem", "ratio"},
      // htap: snapshot / vm / mvcc counters per OLAP transaction.
      {"snapshot.materializations_per_query", "1/query"},
      {"snapshot.epoch_reuse_ratio", "ratio"},
      {"snapshot.dirty_pages_flushed", "pages/query"},
      {"snapshot.flush_ms", "ms/query"},
      {"vm.map_ms", "ms/query"},
      {"mvcc.resolved_row_share", "ratio"},
      {"mvcc.seqlock_retries", "1/query"},
      // htap: OLTP transactions per kind.
      {"txn.oltp_us.q1", "us"},
      {"txn.oltp_us.q2", "us"},
      {"txn.oltp_us.q3", "us"},
      {"txn.oltp_us.q4", "us"},
      {"txn.oltp_us.q5", "us"},
      {"txn.oltp_us.q6", "us"},
      {"txn.oltp_us.q7", "us"},
      {"txn.oltp_us.q8", "us"},
      {"txn.oltp_us.q9", "us"},
      {"txn.abort_ratio", "ratio"},
      // wire: transport, routing and durability.
      {"server.direct_exec_txn_us.p50", "us"},
      {"server.direct_exec_txn_us.p99", "us"},
      {"shard.router_hop_us", "us"},
      {"shard.twopc_exec_txn_us.p50", "us"},
      {"shard.twopc_exec_txn_us.p99", "us"},
      {"shard.passthrough_share", "ratio"},
      {"wal.commits_per_sync", "ratio"},
      {"server.busy_share", "ratio"},
      {"shard.scatter_overhead_ms", "ms"},
      {"query.direct_query_ms", "ms"},
      // Set-up steps (median over the run's set-ups).
      {"setup.load_tpch_s", "s"},
      {"setup.warmup_snapshots_s", "s"},
      {"setup.shard_load_s", "s"},
      {"setup.server_router_start_s", "s"},
      // Failure classes over the whole run.
      {"fail.conflict_aborts", "count"},
      {"fail.busy", "count"},
      {"fail.transport_errors", "count"},
      {"fail.protocol_errors", "count"},
      {"fail.wrong_results", "count"},
      // Traced window against the untraced one: traced / untraced - 1.
      {"trace.overhead_oltp_ktps", "ratio"},
      {"trace.overhead_oltp_p50_us", "ratio"},
      {"trace.overhead_olap_p50_ms", "ratio"},
  };
  return kMetrics;
}

Report::Report() {
  for (const MetricDef& def : EndToEndMetrics()) {
    e2e_.push_back(Entry{def.name, def.unit});
  }
  for (const MetricDef& def : PerLayerMetrics()) {
    layer_.push_back(Entry{def.name, def.unit});
  }
}

Report::Entry* Report::Find(const std::string& name) {
  for (std::vector<Entry>* list : {&e2e_, &layer_}) {
    for (Entry& entry : *list) {
      if (entry.name == name) return &entry;
    }
  }
  return nullptr;
}

void Report::Set(const std::string& name, double value, size_t samples) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  entry->value = std::isfinite(value) ? value : 0;
  entry->samples = samples;
  entry->set = true;
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  info_.push_back(Entry{name, unit, value, samples, true});
}

void Report::Config(const std::string& key, const std::string& value) {
  std::printf("config %s=%s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

void Report::PrintLines() const {
  for (const std::vector<Entry>* list : {&e2e_, &info_, &layer_}) {
    for (const Entry& entry : *list) {
      if (!entry.set) continue;
      std::printf("metric %-36s %14.4f %-11s n=%zu\n", entry.name.c_str(),
                  entry.value, entry.unit.c_str(), entry.samples);
    }
  }
  std::fflush(stdout);
}

void Report::PrintJson(bool traced, bool correct, uint64_t attempted,
                       uint64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& entry : traced ? layer_ : e2e_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + entry.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            entry.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint32_t Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanLog* Tracer::NewLog() {
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size() + 1)));
  return logs_.back().get();
}

Samples Tracer::DurationsUs(uint32_t name) const {
  Samples out;
  for (const auto& log : logs_) {
    for (const Span& span : log->spans()) {
      if (span.name == name) {
        out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tname\tid\tparent\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < logs_.size(); ++t) {
    for (const Span& span : logs_[t]->spans()) {
      std::fprintf(out, "%zu\t%s\t%llu\t%llu\t%lld\t%lld\n", t + 1,
                   names_[span.name].c_str(),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace perfbench
