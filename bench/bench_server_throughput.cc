// Loopback server throughput: what the network front-end costs an acked
// commit.
//
// Starts anker's session server (src/server/) in-process on a loopback
// ephemeral port over a durable database (group commit by default — the
// production ack discipline), then sweeps client connection counts, each
// connection a thread pipelining EXEC_TXN frames (BEGIN + keyed writes +
// COMMIT in one round trip). Reports acked-commit throughput and p50/p99
// commit latency per sweep point, and the best throughput for the CI
// gate: loopback acked commits must stay within 0.9x of the in-process
// bench_wal_overhead group_commit baseline (scripts/bench_gates.json,
// `server_loopback_throughput`) — the protocol may cost round trips, but
// group-commit batching across sessions has to keep aggregate throughput
// at parity. Put --data_dir on tmpfs to measure the protocol, not a disk.
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wire_outcomes.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "wal/io_util.h"

namespace anker {
namespace {

struct ConnResult {
  bench::WireOutcomes outcomes;
  Histogram latency;  ///< Nanos per EXEC_TXN round trip.
};

/// One connection's workload: `txns` pipelined EXEC_TXN frames with
/// `writes_per_txn` keyed balance updates each, window-limited so at most
/// `pipeline` responses are outstanding.
ConnResult RunConnection(uint16_t port, size_t txns, size_t writes_per_txn,
                         size_t pipeline, size_t rows, uint64_t seed) {
  ConnResult result;
  auto connected = server::Client::Connect("127.0.0.1", port);
  ANKER_CHECK_MSG(connected.ok(), "bench client cannot connect");
  std::unique_ptr<server::Client> client = connected.TakeValue();

  Rng rng(seed);
  std::deque<Timer> outstanding;

  auto reap_one = [&]() {
    auto response = client->ReceiveOne();
    if (!response.ok()) return false;
    result.latency.Record(outstanding.front().ElapsedNanos());
    outstanding.pop_front();
    result.outcomes.Record(response.value());
    return true;
  };

  for (size_t t = 0; t < txns; ++t) {
    std::vector<server::PointWrite> writes;
    writes.reserve(writes_per_txn);
    for (size_t w = 0; w < writes_per_txn; ++w) {
      server::PointWrite write;
      write.table = "accounts";
      write.column = "balance";
      write.by_key = true;
      write.key = rng.NextBounded(rows);
      write.raw = storage::EncodeDouble(100.0 + static_cast<double>(t % 97));
      writes.push_back(std::move(write));
    }
    std::string payload;
    server::EncodeWriteBatch(server::Op::kExecTxn, writes, &payload);
    if (!client->SendOnly(payload).ok()) break;
    outstanding.emplace_back();
    if (outstanding.size() >= pipeline && !reap_one()) break;
  }
  while (!outstanding.empty() && reap_one()) {
  }
  // A lost connection fails every transaction it never answered.
  result.outcomes.unexpected +=
      txns - result.outcomes.commits - result.outcomes.failures();
  return result;
}

}  // namespace
}  // namespace anker

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);
  const size_t rows =
      static_cast<size_t>(flags.Int("rows", flags.Has("full") ? 1000000
                                                              : 100000));
  const size_t txns_per_conn =
      static_cast<size_t>(flags.Int("txns_per_conn", 2000));
  const size_t writes_per_txn =
      static_cast<size_t>(flags.Int("writes_per_txn", 4));
  const size_t pipeline = static_cast<size_t>(flags.Int("pipeline", 8));
  const std::string connections_list = flags.Str("connections", "1,4,16");
  const std::string data_dir =
      flags.Str("data_dir", "/tmp/anker_server_bench");
  const std::string durability = flags.Str("durability", "group_commit");
  const std::string json_out = flags.Str("json_out", "");
  flags.RejectUnknown();

  std::vector<size_t> connection_counts;
  {
    size_t value = 0;
    for (char c : connections_list + ",") {
      if (c == ',') {
        if (value > 0) connection_counts.push_back(value);
        value = 0;
      } else if (c >= '0' && c <= '9') {
        value = value * 10 + static_cast<size_t>(c - '0');
      }
    }
  }

  bench::PrintHeader(
      "Server loopback throughput: acked commits through the wire protocol",
      "group-commit batching across sessions keeps loopback acked-commit "
      "throughput within ~10% of the in-process WAL baseline");

  wal::RemoveDirRecursive(data_dir);
  engine::DatabaseConfig config;  // Heterogeneous serializable.
  // Dispatched commits block inside the group-commit protocol while their
  // batch fsyncs; the pool must hold enough threads for every concurrent
  // session's commit to join the same batch, or cross-session batching
  // degenerates to one commit per sync.
  size_t max_connections = 1;
  for (size_t c : connection_counts) max_connections = std::max(max_connections, c);
  config.worker_threads = max_connections + 4;
  config.data_dir = data_dir;
  config.durability = durability == "off"
                          ? wal::DurabilityMode::kOff
                          : durability == "lazy"
                                ? wal::DurabilityMode::kLazy
                                : wal::DurabilityMode::kGroupCommit;
  if (config.durability == wal::DurabilityMode::kOff) config.data_dir = "";
  engine::Database db(config);
  db.Start();

  // In-process bootstrap: accounts(id, balance) with a primary index,
  // loaded and checkpointed before the server starts (the same shape the
  // smoke script builds over the wire, at bench scale).
  auto table = db.CreateTable("accounts",
                              {{"id", storage::ValueType::kInt64},
                               {"balance", storage::ValueType::kDouble}},
                              rows);
  ANKER_CHECK(table.ok());
  storage::Column* id = table.value()->GetColumn("id");
  storage::Column* balance = table.value()->GetColumn("balance");
  for (size_t row = 0; row < rows; ++row) {
    id->LoadValue(row, storage::EncodeInt64(static_cast<int64_t>(row)));
    balance->LoadValue(row, storage::EncodeDouble(100.0));
  }
  table.value()->CreatePrimaryIndex(rows);
  for (size_t row = 0; row < rows; ++row) {
    ANKER_CHECK(table.value()->primary_index()->Insert(row, row).ok());
  }
  if (!config.data_dir.empty()) {
    ANKER_CHECK(db.Checkpoint().ok());
  }

  server::ServerConfig server_config;
  server_config.port = 0;
  server::Server server(&db, server_config);
  ANKER_CHECK(server.Start().ok());
  std::printf("server on 127.0.0.1:%u, %zu rows, durability=%s\n\n",
              server.port(), rows,
              wal::DurabilityModeName(config.durability));

  bench::JsonReport report("server_throughput");
  report["flags"]["rows"] = rows;
  report["flags"]["txns_per_conn"] = txns_per_conn;
  report["flags"]["writes_per_txn"] = writes_per_txn;
  report["flags"]["pipeline"] = pipeline;
  report["flags"]["durability"] = durability;
  report["flags"]["data_dir"] = data_dir;

  std::printf("%12s %10s %12s %12s %10s %10s %8s %6s %6s\n", "connections",
              "threads", "commits", "ktps", "p50 [us]", "p99 [us]", "aborts",
              "busy", "unexp");
  double best_ktps = 0;
  uint64_t unexpected_errors = 0;
  for (size_t connections : connection_counts) {
    std::vector<ConnResult> results(connections);
    std::vector<std::thread> threads;
    Timer wall;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        results[c] = RunConnection(server.port(), txns_per_conn,
                                   writes_per_txn, pipeline, rows,
                                   /*seed=*/1000 + c);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = wall.ElapsedSeconds();

    bench::WireOutcomes outcomes;
    Histogram latency;
    for (ConnResult& r : results) {
      outcomes.Merge(r.outcomes);
      latency.Merge(r.latency);
    }
    const uint64_t commits = outcomes.commits;
    unexpected_errors += outcomes.unexpected;
    const double ktps = commits / seconds / 1000.0;
    const double p50 = latency.Percentile(50) / 1e3;
    const double p99 = latency.Percentile(99) / 1e3;
    best_ktps = std::max(best_ktps, ktps);
    std::printf("%12zu %10zu %12llu %12.1f %10.1f %10.1f %8llu %6llu %6llu\n",
                connections, connections,
                static_cast<unsigned long long>(commits), ktps, p50, p99,
                static_cast<unsigned long long>(outcomes.conflict_aborts),
                static_cast<unsigned long long>(outcomes.busy),
                static_cast<unsigned long long>(outcomes.unexpected));
    std::fflush(stdout);

    auto& row = report["sweep"].Append();
    row["connections"] = connections;
    row["threads"] = connections;
    row["commits"] = commits;
    outcomes.Report(row);
    row["commit_ktps"] = ktps;
    row["p50_us"] = p50;
    row["p99_us"] = p99;
  }
  report["best_commit_ktps"] = best_ktps;
  report["unexpected_errors"] = unexpected_errors;

  const server::ServerStats stats = server.stats();
  std::printf("\nserver: frames=%llu commits_acked=%llu busy=%llu\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.commits_acked),
              static_cast<unsigned long long>(stats.busy_rejections));
  report["server"]["frames"] = stats.frames_received;
  report["server"]["commits_acked"] = stats.commits_acked;
  report["server"]["busy_rejections"] = stats.busy_rejections;

  server.Shutdown();
  db.Stop();
  report.Write(json_out);
  wal::RemoveDirRecursive(data_dir);
  return 0;
}
