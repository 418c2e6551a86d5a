// anker_serve — the network front-end binary: one engine::Database behind
// an epoll session server speaking the anker wire protocol (docs/
// SERVER.md). Durable by default when --data_dir is given: opens existing
// state (checkpoint + WAL replay) or starts fresh, and on SIGTERM/SIGINT
// drains sessions, takes a final checkpoint and exits cleanly — the
// lifecycle scripts/server_smoke.py exercises in CI.
//
//   anker_serve --port=4807 --data_dir=/tmp/anker-serve
//               --durability=group_commit
//
// Replica mode (--replica_of=host:port) turns the node into a read
// replica: it bootstraps an empty data_dir from the primary's newest
// checkpoint, then streams and applies the primary's WAL, serving
// read-only sessions until PROMOTE flips it writable.
//
//   anker_serve --port=4808 --data_dir=/tmp/anker-replica
//               --replica_of=127.0.0.1:4807 --replica_id=r1
//
// Operational guidance (tuning, monitoring, recovery drills, failover):
// docs/OPERATIONS.md.
#include <csignal>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "server/replication.h"
#include "server/server.h"
#include "wal/checkpoint.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);
  server::ServerConfig server_config;
  server_config.host = flags.Str("host", "127.0.0.1");
  server_config.port = static_cast<uint16_t>(flags.Int("port", 4807));
  server_config.auth_token = flags.Str("auth_token", "");
  server_config.max_sessions =
      static_cast<size_t>(flags.Int("max_sessions", 1024));
  server_config.max_inflight =
      static_cast<size_t>(flags.Int("max_inflight", 64));
  server_config.max_pipeline =
      static_cast<size_t>(flags.Int("max_pipeline", 64));
  server_config.idle_timeout_millis =
      static_cast<int>(flags.Int("idle_timeout_ms", 0));

  engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
      txn::ProcessingMode::kHeterogeneousSerializable);
  config.data_dir = flags.Str("data_dir", "");
  const std::string durability = flags.Str("durability", "group_commit");
  config.snapshot_interval_commits =
      static_cast<uint64_t>(flags.Int("snapshot_interval", 10000));
  config.checkpoint_interval_commits =
      static_cast<uint64_t>(flags.Int("checkpoint_interval", 0));
  config.scan_threads = static_cast<size_t>(flags.Int("scan_threads", 0));
  config.worker_threads =
      static_cast<size_t>(flags.Int("worker_threads", 0));

  // Replication knobs. --replica_of selects replica mode; the rest tune
  // the primary-side streamers (heartbeat/ack gate) or the replica-side
  // fetcher (timeouts, ack cadence).
  const std::string replica_of = flags.Str("replica_of", "");
  server::ReplicaConfig replica_config;
  replica_config.replica_id = flags.Str("replica_id", "replica");
  replica_config.sync_ack = flags.Int("sync_ack", 0) != 0;
  replica_config.stream_timeout_millis =
      static_cast<int>(flags.Int("stream_timeout_ms", 3000));
  replica_config.ack_interval_millis =
      static_cast<int>(flags.Int("ack_interval_ms", 200));
  server_config.repl_heartbeat_millis =
      static_cast<int>(flags.Int("heartbeat_ms", 500));
  server_config.repl_ack_wait_millis =
      static_cast<int>(flags.Int("ack_wait_ms", 2000));
  flags.RejectUnknown();

  if (!replica_of.empty()) {
    const size_t colon = replica_of.rfind(':');
    if (colon == std::string::npos || colon + 1 >= replica_of.size()) {
      std::fprintf(stderr, "--replica_of must be host:port\n");
      return 2;
    }
    replica_config.primary_host = replica_of.substr(0, colon);
    replica_config.primary_port =
        static_cast<uint16_t>(std::atoi(replica_of.c_str() + colon + 1));
    replica_config.auth_token = server_config.auth_token;
    if (config.data_dir.empty() || durability == "off") {
      std::fprintf(stderr,
                   "replica mode needs --data_dir and durability on (the "
                   "replica keeps a local WAL mirror)\n");
      return 2;
    }
  }

  if (config.worker_threads == 0) {
    // Every admitted dispatched op occupies a pool thread (commits block
    // inside the group-commit protocol; queries scan); size the pool so
    // admission control — not thread starvation — is what limits
    // concurrency, or cross-session group-commit batching cannot form.
    config.worker_threads = server_config.max_inflight + 4;
  }

  if (config.data_dir.empty()) {
    config.durability = wal::DurabilityMode::kOff;
    std::printf("WARNING: no --data_dir; running in-memory only\n");
  } else if (durability == "off") {
    config.durability = wal::DurabilityMode::kOff;
  } else if (durability == "lazy") {
    config.durability = wal::DurabilityMode::kLazy;
  } else if (durability == "group_commit") {
    config.durability = wal::DurabilityMode::kGroupCommit;
  } else {
    std::fprintf(stderr, "unknown --durability=%s\n", durability.c_str());
    return 2;
  }
  if (config.scan_threads == 0) {
    config.scan_threads =
        std::max<size_t>(1, std::thread::hardware_concurrency());
  }

  if (!replica_of.empty()) {
    // An empty data_dir bootstraps from the primary's newest checkpoint;
    // one with local state recovers locally and resumes the stream from
    // its own applied watermark.
    if (!wal::HasDurableState(config.data_dir)) {
      std::printf("BOOTSTRAP from=%s\n", replica_of.c_str());
      std::fflush(stdout);
      const Status fetched =
          server::ReplicaController::Bootstrap(replica_config,
                                               config.data_dir);
      if (!fetched.ok()) {
        std::fprintf(stderr, "bootstrap failed: %s\n",
                     fetched.ToString().c_str());
        return 1;
      }
    }
  }

  std::unique_ptr<engine::Database> db;
  if (config.data_dir.empty()) {
    auto created = engine::Database::Create(config);
    if (!created.ok()) {
      std::fprintf(stderr, "cannot create database: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    db = created.TakeValue();
  } else {
    // Open is the universal durable entry point: empty dir = fresh
    // database, existing dir = checkpoint load + WAL replay.
    auto opened = engine::Database::Open(config);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open database: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db = opened.TakeValue();
  }
  db->Start();
  std::printf("OPENED mode=%s durability=%s data_dir=%s tables=%zu\n",
              txn::ProcessingModeName(config.mode),
              wal::DurabilityModeName(config.durability),
              config.data_dir.empty() ? "<none>" : config.data_dir.c_str(),
              db->catalog().num_tables());

  std::unique_ptr<server::ReplicaController> replica;
  if (!replica_of.empty()) {
    replica = std::make_unique<server::ReplicaController>(db.get(),
                                                          replica_config);
    replica->Start();
    server_config.replica = replica.get();
    std::printf("ROLE replica primary=%s id=%s applied_lsn=%llu\n",
                replica_of.c_str(), replica_config.replica_id.c_str(),
                static_cast<unsigned long long>(db->applied_lsn()));
  } else {
    std::printf("ROLE primary\n");
  }

  server::Server server(db.get(), server_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING host=%s port=%u\n", server_config.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful shutdown: drain sessions, then make everything durable in
  // one final checkpoint, then exit. An immediate SIGKILL instead of this
  // path is also survivable (that is what the WAL is for) — the
  // checkpoint just makes the next open instant.
  std::printf("SHUTDOWN draining sessions\n");
  std::fflush(stdout);
  server.Shutdown();
  // Stop the stream after the serving layer: no session can observe the
  // controller mid-teardown, and everything applied so far is kept.
  if (replica != nullptr) replica->Stop();
  const server::ServerStats stats = server.stats();
  std::printf(
      "DRAINED sessions_accepted=%llu frames=%llu commits_acked=%llu "
      "queries=%llu busy=%llu protocol_errors=%llu\n",
      static_cast<unsigned long long>(stats.sessions_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.commits_acked),
      static_cast<unsigned long long>(stats.queries_served),
      static_cast<unsigned long long>(stats.busy_rejections),
      static_cast<unsigned long long>(stats.protocol_errors));
  if (!config.data_dir.empty()) {
    auto checkpoint = db->Checkpoint();
    if (!checkpoint.ok()) {
      std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                   checkpoint.status().ToString().c_str());
      return 1;
    }
    std::printf("CHECKPOINT ts=%llu dir=%s\n",
                static_cast<unsigned long long>(
                    checkpoint.value().checkpoint_ts),
                checkpoint.value().directory.c_str());
  }
  db->Stop();
  std::printf("EXIT OK\n");
  return 0;
}
