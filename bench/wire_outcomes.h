#ifndef ANKER_BENCH_WIRE_OUTCOMES_H_
#define ANKER_BENCH_WIRE_OUTCOMES_H_

// How the wire benches count EXEC_TXN responses. A failed transaction
// falls in one of three classes, and only the first two are expected
// under load:
//  - conflict aborts (ERR Aborted): a ww-conflict or validation loss,
//    the workload's own contention — retry with a fresh transaction;
//  - BUSY (the BUSY opcode, or ERR ResourceBusy relayed by a router):
//    admission backpressure, nothing was executed;
//  - unexpected: protocol errors, any other ERR code, lost connections.
// The perf gates hold the unexpected class at zero.

#include <cstdint>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "server/protocol.h"

namespace anker::bench {

struct WireOutcomes {
  uint64_t commits = 0;
  uint64_t conflict_aborts = 0;
  uint64_t busy = 0;
  uint64_t unexpected = 0;

  /// Classifies one response payload.
  void Record(const std::string& response) {
    const server::Op op = response.empty()
                              ? server::Op::kErr
                              : static_cast<server::Op>(response[0]);
    if (op == server::Op::kOk || op == server::Op::kCommitOk) {
      ++commits;
      return;
    }
    if (op == server::Op::kBusy) {
      ++busy;
      return;
    }
    server::ErrMsg err;
    if (op != server::Op::kErr ||
        !server::DecodeErr(std::string_view(response).substr(1), &err).ok()) {
      ++unexpected;
    } else if (err.code == server::WireError::kAborted) {
      ++conflict_aborts;
    } else if (err.code == server::WireError::kResourceBusy) {
      ++busy;
    } else {
      ++unexpected;
    }
  }

  uint64_t failures() const { return conflict_aborts + busy + unexpected; }

  void Merge(const WireOutcomes& other) {
    commits += other.commits;
    conflict_aborts += other.conflict_aborts;
    busy += other.busy;
    unexpected += other.unexpected;
  }

  /// Writes the three failure classes into a JSON row.
  void Report(JsonValue& row) const {
    row["conflict_aborts"] = conflict_aborts;
    row["busy"] = busy;
    row["unexpected_errors"] = unexpected;
  }
};

}  // namespace anker::bench

#endif  // ANKER_BENCH_WIRE_OUTCOMES_H_
