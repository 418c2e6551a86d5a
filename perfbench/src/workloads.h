#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

/// What a run did: operations attempted, their failure classes, and the
/// correctness verdict with a message per failed check.
struct Outcome {
  uint64_t attempted = 0;
  Failures failures;
  std::vector<std::string> errors;

  bool correct() const {
    return errors.empty() && failures.wrong_results == 0;
  }
  void Fail(const std::string& message) {
    errors.push_back(message);
    ++failures.wrong_results;
  }
};

/// In-process HTAP engine: 2 OLTP streams beside 1 OLAP stream on a
/// 1M-row TPC-H instance (vm_snapshot backend, durability off).
Outcome RunHtap(const Options& options, Report* report);

/// 2 durable shard servers behind a router: pipelined EXEC_TXN writers
/// (10% cross-shard) beside one scatter-aggregate reader.
Outcome RunWire(const Options& options, Report* report);

/// Phases of a run. Operations count toward a window only when they
/// start and end inside it.
enum Phase : int { kWarmup = 0, kPlain = 1, kTraced = 2, kStop = 3 };

/// Measurement windows are cut into slices of this length (or the whole
/// window, when shorter); end-to-end metrics are best quartiles over
/// slices.
constexpr double kSliceSeconds = 2.0;

/// The current phase and when each phase began. The main thread either
/// applies a phase itself (Apply) or requests it (SwitchTo) from a load
/// thread that applies it at a boundary of its own work.
struct PhaseControl {
  std::atomic<int> requested{kWarmup};
  std::atomic<int> current{kWarmup};
  std::array<std::atomic<int64_t>, 4> started_ns{};  // indexed by Phase

  void Apply(int ph) {
    started_ns[ph].store(NowNanos(), std::memory_order_relaxed);
    current.store(ph, std::memory_order_release);
  }
  /// Requests `ph` and waits until a load thread has applied it.
  void SwitchTo(int ph) {
    requested.store(ph, std::memory_order_release);
    while (current.load(std::memory_order_acquire) != ph) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  double WindowSeconds(int ph, int next) const {
    return static_cast<double>(started_ns[next].load() -
                               started_ns[ph].load()) /
           1e9;
  }
};

/// Fills the failure-class metrics every workload shares.
void ReportFailures(const Outcome& outcome, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
