// perfbench: one run of one workload.
//
//   perfbench --workload htap|wire --seed N --seconds S --trace 0|1
//             [--data_dir DIR] [--spans_out FILE]
//
// Prints "config" lines (the run's settings), "metric" lines (name,
// value, unit, sample count), "error" lines for failed checks, and as
// the last line one JSON object. Exits 1 when a correctness check
// fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

void ReportFailures(const Outcome& outcome, Report* report) {
  const Failures& f = outcome.failures;
  const size_t n = outcome.attempted;
  report->Set("fail.conflict_aborts", static_cast<double>(f.conflict_aborts), n);
  report->Set("fail.busy", static_cast<double>(f.busy), n);
  report->Set("fail.transport_errors", static_cast<double>(f.transport_errors),
              n);
  report->Set("fail.protocol_errors", static_cast<double>(f.protocol_errors),
              n);
  report->Set("fail.wrong_results", static_cast<double>(f.wrong_results), n);
}

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload htap|wire --seed N "
               "--seconds S --trace 0|1 [--data_dir DIR] [--spans_out FILE]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data_dir") {
      options.data_dir = value;
    } else if (flag == "--spans_out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "htap" && options.workload != "wire") {
    return Usage("--workload must be htap or wire");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  if (options.workload == "wire" && options.data_dir.empty()) {
    return Usage("the wire workload needs --data_dir");
  }

  Report::Config("workload", options.workload);
  Report::Config("seed", std::to_string(options.seed));
  Report::Config("seconds", std::to_string(options.seconds));
  Report::Config("trace", options.trace ? "1" : "0");
  Report report;
  const Outcome outcome = options.workload == "htap"
                              ? RunHtap(options, &report)
                              : RunWire(options, &report);
  const Failures& f = outcome.failures;
  std::printf(
      "outcomes attempted=%llu conflict_aborts=%llu busy=%llu "
      "transport_errors=%llu protocol_errors=%llu other_errors=%llu "
      "wrong_results=%llu\n",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(f.conflict_aborts),
      static_cast<unsigned long long>(f.busy),
      static_cast<unsigned long long>(f.transport_errors),
      static_cast<unsigned long long>(f.protocol_errors),
      static_cast<unsigned long long>(f.other_errors),
      static_cast<unsigned long long>(f.wrong_results));
  for (const std::string& error : outcome.errors) {
    std::printf("error %s\n", error.c_str());
  }
  report.PrintLines();
  report.PrintJson(options.trace, outcome.correct(),
                   outcome.attempted > 0 ? outcome.attempted : 1, f.failed());
  return outcome.correct() ? 0 : 1;
}
