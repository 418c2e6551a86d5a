// anker_router — the shard-routing front-end binary: an epoll session
// server speaking the same anker wire protocol as anker_serve, but whose
// backend is a fleet of engine shards instead of a local database
// (docs/SERVER.md has the routing contract, docs/OPERATIONS.md the
// scale-out runbook).
//
//   anker_router --port=4800 --shard_map=/etc/anker/shards.conf
//
// The shard map file names the backends and the table layout:
//
//   version 1
//   shard 127.0.0.1:4807
//   shard 127.0.0.1:4808
//   table lineitem partition l_orderkey
//
// Single-shard transactions pass through verbatim (1 RTT), cross-shard
// EXEC_TXN runs intent-based 2PC (the router coordinates; the lowest
// participating shard is the durable commit point), DDL fans out to
// every shard, queries scatter-gather with router-side merging.
// --allow_partial=1 lets queries answer from the reachable subset while
// a shard is down (writes to a down shard always surface as BUSY;
// --busy_retries/--busy_backoff_ms set how often the router re-sends a
// shard's admission BUSY before passing it on).
//
// SIGTERM/SIGINT drains client sessions and exits; the shards it fronts
// are separate processes and keep running.
#include <csignal>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);

  shard::RouterServerConfig server_config;
  server_config.host = flags.Str("host", "127.0.0.1");
  server_config.port = static_cast<uint16_t>(flags.Int("port", 4800));
  server_config.auth_token = flags.Str("auth_token", "");
  server_config.max_sessions =
      static_cast<size_t>(flags.Int("max_sessions", 1024));
  server_config.max_inflight =
      static_cast<size_t>(flags.Int("max_inflight", 64));
  server_config.max_pipeline =
      static_cast<size_t>(flags.Int("max_pipeline", 64));
  server_config.idle_timeout_millis =
      static_cast<int>(flags.Int("idle_timeout_ms", 0));

  const std::string shard_map_path = flags.Str("shard_map", "");

  shard::RouterCoreConfig core_config;
  core_config.allow_partial = flags.Int("allow_partial", 0) != 0;
  core_config.busy_retry_budget =
      static_cast<int>(flags.Int("busy_retries", 4));
  core_config.busy_backoff_initial_millis =
      static_cast<int>(flags.Int("busy_backoff_ms", 5));
  core_config.intent_resolve_attempts =
      static_cast<int>(flags.Int("intent_resolve_attempts", 5));

  shard::BackendPoolConfig pool_config;
  // Backends authenticate with the same token the router accepts unless
  // overridden (heterogeneous deployments).
  pool_config.client.auth_token =
      flags.Str("shard_auth_token", server_config.auth_token);
  pool_config.client.io_timeout_millis =
      static_cast<int>(flags.Int("shard_io_timeout_ms", 30000));
  pool_config.backoff_initial_millis =
      static_cast<int>(flags.Int("shard_backoff_initial_ms", 50));
  pool_config.backoff_max_millis =
      static_cast<int>(flags.Int("shard_backoff_max_ms", 2000));
  flags.RejectUnknown();

  if (shard_map_path.empty()) {
    std::fprintf(stderr, "--shard_map=<file> is required\n");
    return 2;
  }
  auto loaded = shard::ShardMap::LoadFile(shard_map_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load shard map: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  const shard::ShardMap map = loaded.TakeValue();
  std::printf("SHARD_MAP version=%u shards=%zu partitioned_tables=%zu "
              "digest=%016llx\n",
              map.version(), map.num_shards(), map.partitioned().size(),
              static_cast<unsigned long long>(map.digest()));

  shard::BackendPool pool(map.shards(), pool_config);
  shard::RouterCore core(&map, &pool, core_config);
  shard::RouterServer server(&core, server_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n",
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

  std::printf("SHUTDOWN draining sessions\n");
  std::fflush(stdout);
  server.Shutdown();
  const server::RouterStatusOkMsg stats = core.StatusSnapshot();
  std::printf(
      "DRAINED passthrough_txns=%llu twopc_txns=%llu "
      "intent_resolutions=%llu scatter_queries=%llu "
      "single_shard_queries=%llu fanout_ops=%llu healthy=%u/%u\n",
      static_cast<unsigned long long>(stats.passthrough_txns),
      static_cast<unsigned long long>(stats.twopc_txns),
      static_cast<unsigned long long>(stats.intent_resolutions),
      static_cast<unsigned long long>(stats.scatter_queries),
      static_cast<unsigned long long>(stats.single_shard_queries),
      static_cast<unsigned long long>(stats.fanout_ops),
      stats.healthy_shards, stats.shard_count);
  std::printf("EXIT OK\n");
  return 0;
}
