// The `wire` workload: an in-process cluster of two durable shard
// servers behind a shard router. Two connections send EXEC_TXN frames
// through the router (90% single-shard pass-through, 10% cross-shard
// 2PC) while a third runs a grouped scatter aggregate over the same
// table in a closed loop with a short think time.

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "query/query.h"
#include "query/serialize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"
#include "storage/value.h"
#include "wal/io_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace engine = anker::engine;
namespace server = anker::server;
namespace shard = anker::shard;
namespace query = anker::query;

constexpr size_t kShards = 2;
constexpr uint64_t kRows = 200000;
constexpr uint64_t kGroups = 16;
constexpr size_t kWriters = 2;
/// Each writer connection, and the traced window's probes, write their
/// own disjoint key range, so transactions never conflict: the workload
/// measures transport and commit, not contention.
constexpr size_t kKeyRanges = kWriters + 1;
constexpr size_t kWritesPerTxn = 4;
constexpr uint64_t kCrossShardPct = 10;
/// Pools are sized to the work, not the 4 vCPUs' worth of defaults. Two
/// workers per shard let a commit run beside a scatter scan. The router
/// has two slots (and workers) per session: a slot is freed only after
/// its response is queued, so a session's next frame can arrive first,
/// and one slot per session answered BUSY.
constexpr size_t kShardWorkers = 2;
constexpr size_t kShardMaxInflight = 16;
constexpr size_t kRouterMaxInflight = 8;
constexpr size_t kMaxPipeline = 16;
constexpr size_t kBackendIdlePerShard = 8;
constexpr uint64_t kSnapshotIntervalCommits = 10000;
constexpr int kWalFlushMillis = 5;
/// The reader's pause between scatter queries. Without it the two shard
/// scans keep half the vCPUs busy and the writers' round trips wait for
/// them unevenly; with it both throughput and tail repeat within a few
/// percent between runs.
constexpr int64_t kReaderThinkMicros = 1000;
constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;
/// Traced window only: one routed and one direct probe frame this often.
constexpr int64_t kProbeIntervalNs = 1000000;

/// The running cluster plus its client connections.
struct Cluster {
  std::vector<std::unique_ptr<engine::Database>> dbs;
  std::vector<std::unique_ptr<server::Server>> servers;
  std::array<std::vector<uint64_t>, kShards> keys;  // keys each shard owns
  /// keys by writer range, then by owning shard
  std::array<std::array<std::vector<uint64_t>, kShards>, kKeyRanges> ranges;
  std::unique_ptr<shard::ShardMap> map;
  std::unique_ptr<shard::BackendPool> pool;
  std::unique_ptr<shard::RouterCore> core;
  std::unique_ptr<shard::RouterServer> router;
  std::vector<std::unique_ptr<server::Client>> writers;
  std::unique_ptr<server::Client> reader;
  // Side connections of the traced window.
  std::unique_ptr<server::Client> probe_routed;
  std::array<std::unique_ptr<server::Client>, kShards> probe_direct;
  std::unique_ptr<server::Client> reader_direct;  // to shard 0

  void Stop() {
    writers.clear();
    reader.reset();
    probe_routed.reset();
    for (auto& client : probe_direct) client.reset();
    reader_direct.reset();
    if (router) router->Shutdown();
    router.reset();
    core.reset();
    pool.reset();
    for (auto& srv : servers) srv->Shutdown();
    servers.clear();
    for (auto& db : dbs) db->Stop();
    dbs.clear();
  }
};

struct SetupTimes {
  double total_s = 0;
  double shard_load_s = 0;
  double server_router_start_s = 0;
};

std::unique_ptr<server::Client> Connect(uint16_t port, Outcome* outcome) {
  auto connected = server::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    outcome->Fail("connect: " + connected.status().ToString());
    return nullptr;
  }
  return connected.TakeValue();
}

SetupTimes SetUp(const std::string& data_dir, int64_t start_ns, Cluster* c,
                 Outcome* outcome) {
  SetupTimes times;
  int64_t t = NowNanos();
  for (uint64_t key = 0; key < kRows; ++key) {
    const size_t owner = shard::ShardMap::Mix64(key) % kShards;
    c->keys[owner].push_back(key);
    c->ranges[key % kKeyRanges][owner].push_back(key);
  }
  for (size_t s = 0; s < kShards; ++s) {
    engine::DatabaseConfig config;
    config.mode = anker::txn::ProcessingMode::kHeterogeneousSerializable;
    config.backend = anker::snapshot::BufferBackend::kVmSnapshot;
    config.snapshot_interval_commits = kSnapshotIntervalCommits;
    config.scan_threads = 1;
    config.worker_threads = kShardWorkers;
    // Lazy: every commit appends its redo record, a background flusher
    // syncs every kWalFlushMillis. Acks do not wait for the device: the
    // WAL lives in the checkout, where an fsync measures a shared disk.
    // For the same reason the loaded rows are not checkpointed: set-up
    // would time two fsyncs on that disk, and nothing here recovers.
    config.durability = anker::wal::DurabilityMode::kLazy;
    config.wal_flush_interval_millis = kWalFlushMillis;
    config.data_dir = data_dir + "/shard" + std::to_string(s);
    config.checkpoint_interval_commits = 0;
    config.cold_budget_bytes = 0;
    (void)anker::wal::RemoveDirRecursive(config.data_dir);
    auto db = engine::Database::Create(config);
    if (!db.ok()) {
      outcome->Fail("shard create: " + db.status().ToString());
      return times;
    }
    c->dbs.push_back(db.TakeValue());
    engine::Database* shard_db = c->dbs.back().get();
    shard_db->Start();
    const std::vector<uint64_t>& keys = c->keys[s];
    auto table = shard_db->CreateTable(
        "accounts",
        {{"id", anker::storage::ValueType::kInt64},
         {"grp", anker::storage::ValueType::kDict32},
         {"balance", anker::storage::ValueType::kDouble}},
        keys.size());
    if (!table.ok()) {
      outcome->Fail("create accounts: " + table.status().ToString());
      return times;
    }
    anker::storage::Table* accounts = table.value();
    anker::storage::Column* id = accounts->GetColumn("id");
    anker::storage::Column* grp = accounts->GetColumn("grp");
    anker::storage::Column* balance = accounts->GetColumn("balance");
    // Same dictionary on every shard, so group codes merge at the router.
    anker::storage::Dictionary* groups = accounts->GetDictionary("grp");
    for (uint64_t g = 0; g < kGroups; ++g) {
      std::string name = "g";
      name += std::to_string(g);
      groups->GetOrAdd(name);
    }
    accounts->CreatePrimaryIndex(keys.size());
    for (size_t row = 0; row < keys.size(); ++row) {
      const auto key = static_cast<int64_t>(keys[row]);
      id->LoadValue(row, anker::storage::EncodeInt64(key));
      grp->LoadValue(row, anker::storage::EncodeDict(
                              static_cast<uint32_t>(keys[row] % kGroups)));
      balance->LoadValue(row, anker::storage::EncodeDouble(100.0));
      if (!accounts->primary_index()->Insert(keys[row], row).ok()) {
        outcome->Fail("index insert failed");
        return times;
      }
    }
  }
  times.shard_load_s = static_cast<double>(NowNanos() - t) / 1e9;

  t = NowNanos();
  std::string map_text = "version 1\n";
  for (size_t s = 0; s < kShards; ++s) {
    server::ServerConfig config;
    config.host = "127.0.0.1";
    config.port = 0;
    config.max_sessions = 64;
    config.max_inflight = kShardMaxInflight;
    config.max_pipeline = kMaxPipeline;
    config.idle_timeout_millis = 0;
    auto srv = std::make_unique<server::Server>(c->dbs[s].get(), config);
    const anker::Status started = srv->Start();
    if (!started.ok()) {
      outcome->Fail("server start: " + started.ToString());
      return times;
    }
    map_text += "shard 127.0.0.1:" + std::to_string(srv->port()) + "\n";
    c->servers.push_back(std::move(srv));
  }
  map_text += "table accounts partition id\n";
  auto parsed = shard::ShardMap::Parse(map_text);
  if (!parsed.ok()) {
    outcome->Fail("shard map: " + parsed.status().ToString());
    return times;
  }
  c->map = std::make_unique<shard::ShardMap>(parsed.TakeValue());
  shard::BackendPoolConfig pool_config;
  pool_config.max_idle_per_shard = kBackendIdlePerShard;
  c->pool = std::make_unique<shard::BackendPool>(c->map->shards(), pool_config);
  shard::RouterCoreConfig core_config;
  core_config.allow_partial = false;
  // BUSY travels back to the client, where it is counted.
  core_config.busy_retry_budget = 0;
  c->core = std::make_unique<shard::RouterCore>(c->map.get(), c->pool.get(),
                                                core_config);
  shard::RouterServerConfig router_config;
  router_config.max_sessions = 64;
  router_config.max_inflight = kRouterMaxInflight;
  router_config.max_pipeline = kMaxPipeline;
  c->router = std::make_unique<shard::RouterServer>(c->core.get(),
                                                    router_config);
  const anker::Status started = c->router->Start();
  if (!started.ok()) {
    outcome->Fail("router start: " + started.ToString());
    return times;
  }
  times.server_router_start_s = static_cast<double>(NowNanos() - t) / 1e9;

  for (size_t w = 0; w < kWriters; ++w) {
    c->writers.push_back(Connect(c->router->port(), outcome));
  }
  c->reader = Connect(c->router->port(), outcome);
  c->probe_routed = Connect(c->router->port(), outcome);
  for (size_t s = 0; s < kShards; ++s) {
    c->probe_direct[s] = Connect(c->servers[s]->port(), outcome);
  }
  c->reader_direct = Connect(c->servers[0]->port(), outcome);
  times.total_s = static_cast<double>(NowNanos() - start_ns) / 1e9;
  return times;
}

using KeyRange = std::array<std::vector<uint64_t>, kShards>;

/// An EXEC_TXN frame of kWritesPerTxn keyed balance writes from `keys`:
/// all on shard `home`, or (cross) half on each shard.
std::string BuildFrame(const KeyRange& keys, anker::Rng* rng, bool cross,
                       size_t home) {
  std::vector<server::PointWrite> writes;
  std::vector<uint64_t> used;
  for (size_t w = 0; w < kWritesPerTxn; ++w) {
    const size_t s = cross ? (home + w) % kShards : home;
    uint64_t key = 0;
    bool fresh = false;
    while (!fresh) {
      key = keys[s][rng->NextBounded(keys[s].size())];
      fresh = true;
      for (uint64_t u : used) fresh &= u != key;
    }
    used.push_back(key);
    server::PointWrite write;
    write.table = "accounts";
    write.column = "balance";
    write.by_key = true;
    write.key = key;
    // Integral balances keep every aggregate exact in double arithmetic.
    write.raw = anker::storage::EncodeDouble(
        static_cast<double>(rng->NextBounded(1000)));
    writes.push_back(std::move(write));
  }
  std::string payload;
  server::EncodeWriteBatch(server::Op::kExecTxn, writes, &payload);
  return payload;
}

enum class Reply { kAck, kConflict, kBusy, kProtocol, kOther };

/// Classifies one EXEC_TXN response payload.
Reply Classify(const std::string& payload) {
  if (payload.empty()) return Reply::kProtocol;
  const auto op = static_cast<server::Op>(payload[0]);
  if (op == server::Op::kCommitOk || op == server::Op::kOk) return Reply::kAck;
  if (op == server::Op::kBusy) return Reply::kBusy;
  if (op != server::Op::kErr) return Reply::kProtocol;
  server::ErrMsg err;
  if (!server::DecodeErr(std::string_view(payload).substr(1), &err).ok()) {
    return Reply::kProtocol;
  }
  switch (err.code) {
    case server::WireError::kAborted:
    case server::WireError::kResourceBusy:  // slot held by a 2PC intent
      return Reply::kConflict;
    case server::WireError::kBadHandshake:
    case server::WireError::kProtocolError:
      return Reply::kProtocol;
    default:
      return Reply::kOther;
  }
}

void Count(Reply reply, Failures* failures) {
  switch (reply) {
    case Reply::kAck:
      break;
    case Reply::kConflict:
      ++failures->conflict_aborts;
      break;
    case Reply::kBusy:
      ++failures->busy;
      break;
    case Reply::kProtocol:
      ++failures->protocol_errors;
      break;
    case Reply::kOther:
      ++failures->other_errors;
      break;
  }
}

struct SpanNames {
  uint32_t exec_txn = 0, exec_txn_cross = 0, scatter = 0, direct_query = 0,
           probe_routed = 0, probe_direct = 0;
};

/// Latency histogram resolution for round trips of ~0.1-10 ms.
constexpr int64_t kBucketNs = 100;

SlicedLatency WindowLatency(double seconds) {
  return SlicedLatency(seconds, std::min(kSliceSeconds, seconds), kBucketNs);
}

/// One load connection's results. Counts cover the whole run; latencies
/// only the measured windows.
struct WriterResult {
  WriterResult(double plain_s, double traced_s)
      : latency{WindowLatency(0), WindowLatency(plain_s),
                WindowLatency(traced_s)} {}
  std::array<SlicedLatency, 3> latency;  // indexed by Phase
  uint64_t attempted = 0;
  uint64_t acked_single = 0;
  uint64_t acked_cross = 0;
  Failures failures;
};

/// One frame in flight per writer. The router runs one frame per session
/// at a time, so a pipeline only queues in its input buffer: depth 4
/// measured the same ~11 ktps as depth 1 at 5x the p50, and a p99 that
/// varied 2-5 ms from run to run against 0.7-1 ms at depth 1.
void Writer(const KeyRange* keys, server::Client* client, uint64_t seed,
            const PhaseControl* control, const SpanNames* names,
            SpanLog* log, WriterResult* out) {
  anker::Rng rng(seed);
  const std::atomic<int>* phase = &control->current;
  for (;;) {
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    const bool cross = rng.NextBounded(100) < kCrossShardPct;
    const std::string frame =
        BuildFrame(*keys, &rng, cross, rng.NextBounded(kShards));
    ++out->attempted;
    const int64_t t0 = NowNanos();
    auto response = client->RoundTrip(frame);
    const int64_t t1 = NowNanos();
    if (!response.ok()) {
      ++out->failures.transport_errors;
      return;
    }
    const Reply reply = Classify(response.value());
    Count(reply, &out->failures);
    if (reply != Reply::kAck) continue;
    ++(cross ? out->acked_cross : out->acked_single);
    if (ph == kWarmup || phase->load(std::memory_order_acquire) != ph) {
      continue;
    }
    out->latency[ph].Add(control->started_ns[ph].load(), t1, t1 - t0);
    if (ph == kTraced) {
      log->Record(cross ? names->exec_txn_cross : names->exec_txn, 0, t0, t1);
    }
  }
}

/// SUM(balance), COUNT(*) GROUP BY grp over accounts.
query::WireQuery GroupedAggregate() {
  query::WireQuery q;
  q.table = "accounts";
  q.aggs.push_back(query::Sum(query::Col("balance")).As("s"));
  q.aggs.push_back(query::Count().As("n"));
  q.group_by.push_back("grp");
  return q;
}

using GroupTotals = std::map<uint64_t, std::pair<double, double>>;

/// Per-group (sum, count) of a grouped aggregate result.
bool ToGroups(const query::QueryResult& result, GroupTotals* groups) {
  if (result.key_names.size() != 1 || result.columns.size() != 2) return false;
  for (const auto& row : result.rows) {
    if (row.keys.size() != 1 || row.values.size() != 2) return false;
    auto& entry = (*groups)[row.keys[0]];
    entry.first += row.values[0];
    entry.second += row.values[1];
  }
  return true;
}

/// A routed result is well formed when it has every group and counts
/// every row (balances change under the writers; row counts never do).
bool WellFormed(const query::QueryResult& result) {
  GroupTotals groups;
  if (!ToGroups(result, &groups) || groups.size() != kGroups) return false;
  double rows = 0;
  for (const auto& [key, totals] : groups) rows += totals.second;
  return rows == static_cast<double>(kRows) && result.shards_missing == 0;
}

struct ReaderWindow {
  explicit ReaderWindow(double seconds) : latency(WindowLatency(seconds)) {}
  SlicedLatency latency;
  uint64_t completed = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_resolved = 0;
  uint64_t seqlock_retries = 0;
};

struct ReaderResult {
  ReaderResult(double plain_s, double traced_s)
      : windows{ReaderWindow(0), ReaderWindow(plain_s),
                ReaderWindow(traced_s)} {}
  std::array<ReaderWindow, 3> windows;
  uint64_t attempted = 0;  // whole run, like the failures
  Failures failures;
};

void CountStatus(const anker::Status& status, Failures* failures) {
  if (status.IsResourceBusy()) {
    ++failures->busy;
  } else if (status.code() == anker::StatusCode::kIoError) {
    ++failures->transport_errors;
  } else if (status.IsAborted()) {
    ++failures->conflict_aborts;
  } else {
    ++failures->other_errors;
  }
}

void Reader(Cluster* c, const PhaseControl* control, const SpanNames* names,
            SpanLog* log, ReaderResult* out) {
  const std::atomic<int>* phase = &control->current;
  const query::WireQuery aggregate = GroupedAggregate();
  const query::Params params;
  for (uint64_t i = 0;; ++i) {
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    // The traced window alternates the routed scatter with the same
    // aggregate run directly on shard 0.
    const bool direct = ph == kTraced && i % 2 == 1;
    server::Client* client = direct ? c->reader_direct.get() : c->reader.get();
    ++out->attempted;
    const int64_t t0 = NowNanos();
    auto result = client->Query(aggregate, params);
    const int64_t t1 = NowNanos();
    std::this_thread::sleep_for(std::chrono::microseconds(kReaderThinkMicros));
    if (!result.ok()) {
      CountStatus(result.status(), &out->failures);
      if (result.status().code() == anker::StatusCode::kIoError) break;
      continue;
    }
    if (!direct && !WellFormed(result.value())) {
      ++out->failures.wrong_results;
      continue;
    }
    if (ph == kWarmup || phase->load(std::memory_order_acquire) != ph) {
      continue;
    }
    if (direct) {
      log->Record(names->direct_query, 0, t0, t1);
      continue;
    }
    ReaderWindow& window = out->windows[ph];
    ++window.completed;
    window.latency.Add(control->started_ns[ph].load(), t1, t1 - t0);
    if (ph != kTraced) continue;
    log->Record(names->scatter, 0, t0, t1);
    const auto& scan = result.value().scan;
    window.rows_scanned +=
        scan.tight_rows + scan.hinted_rows + scan.resolved_rows;
    window.rows_resolved += scan.resolved_rows;
    window.seqlock_retries += scan.seqlock_retries;
  }
}

struct ProbeResult {
  uint64_t attempted = 0;
  uint64_t acked = 0;
  Failures failures;
};

/// Traced window only: paced single-shard frames, alternately through
/// the router and straight to the owning shard.
void Probe(Cluster* c, uint64_t seed, const PhaseControl* control,
           const SpanNames* names, SpanLog* log, ProbeResult* out) {
  const std::atomic<int>* phase = &control->current;
  anker::Rng rng(seed);
  int64_t next = 0;
  for (uint64_t i = 0;; ++i) {
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    if (ph != kTraced) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (NowNanos() < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNanos()));
      continue;
    }
    next = NowNanos() + kProbeIntervalNs;
    const size_t home = i % kShards;
    for (bool routed : {true, false}) {
      server::Client* client =
          routed ? c->probe_routed.get() : c->probe_direct[home].get();
      const std::string frame =
          BuildFrame(c->ranges[kWriters], &rng, /*cross=*/false, home);
      ++out->attempted;
      const int64_t t0 = NowNanos();
      auto response = client->RoundTrip(frame);
      const int64_t t1 = NowNanos();
      if (!response.ok()) {
        ++out->failures.transport_errors;
        return;
      }
      const Reply reply = Classify(response.value());
      Count(reply, &out->failures);
      if (reply != Reply::kAck) continue;
      ++out->acked;
      if (phase->load(std::memory_order_acquire) == kTraced) {
        log->Record(routed ? names->probe_routed : names->probe_direct, 0, t0,
                    t1);
      }
    }
  }
}

/// Shard-side counters summed over the cluster.
struct ShardTotals {
  uint64_t commits_acked = 0;
  uint64_t frames = 0;
  uint64_t busy = 0;
  uint64_t syncs = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
};

ShardTotals SumShards(const Cluster& c) {
  ShardTotals t;
  for (size_t s = 0; s < kShards; ++s) {
    const server::ServerStats stats = c.servers[s]->stats();
    t.commits_acked += stats.commits_acked;
    t.frames += stats.frames_received;
    t.busy += stats.busy_rejections;
    if (anker::wal::LogWriter* log = c.dbs[s]->log_writer()) {
      t.syncs += log->sync_count();
    }
    const anker::txn::TxnStats txn = c.dbs[s]->txn_manager().stats();
    t.txn_commits += txn.commits;
    t.txn_aborts += txn.aborts_ww + txn.aborts_validation;
  }
  return t;
}

/// At quiescence the routed scatter aggregate equals the sum of the
/// per-shard direct aggregates, group by group.
void VerifyScatter(Cluster* c, Outcome* outcome) {
  const query::WireQuery aggregate = GroupedAggregate();
  GroupTotals routed, direct;
  outcome->attempted += 1 + kShards;
  auto merged = c->reader->Query(aggregate, query::Params());
  if (!merged.ok() || !ToGroups(merged.value(), &routed)) {
    outcome->Fail("quiesced scatter aggregate failed");
    return;
  }
  for (size_t s = 0; s < kShards; ++s) {
    auto part = c->probe_direct[s]->Query(aggregate, query::Params());
    if (!part.ok() || !ToGroups(part.value(), &direct)) {
      outcome->Fail("direct aggregate on shard " + std::to_string(s) +
                    " failed");
      return;
    }
  }
  if (routed != direct || routed.size() != kGroups) {
    outcome->Fail("routed scatter aggregate != sum of per-shard aggregates");
  }
}

struct WindowSummary {
  SlicedLatency::Summary oltp;
  SlicedLatency::Summary olap;
};

WindowSummary Summarize(int ph, double seconds,
                        const std::vector<WriterResult>& writers,
                        const ReaderResult& reader) {
  WindowSummary s;
  std::vector<const SlicedLatency*> threads;
  for (const WriterResult& w : writers) threads.push_back(&w.latency[ph]);
  s.oltp = SlicedLatency::Summarize(threads, seconds);
  s.olap = SlicedLatency::Summarize({&reader.windows[ph].latency}, seconds);
  return s;
}

}  // namespace

Outcome RunWire(const Options& options, Report* report) {
  Outcome outcome;
  Report::Config("shards", std::to_string(kShards));
  Report::Config("rows", std::to_string(kRows) + " groups=" +
                             std::to_string(kGroups));
  Report::Config("writer_connections",
                 std::to_string(kWriters) + " in_flight=1 writes_per_txn=" +
                     std::to_string(kWritesPerTxn) + " cross_shard_pct=" +
                     std::to_string(kCrossShardPct));
  Report::Config("reader_connections",
                 "1 (grouped scatter aggregate) think_us=" +
                     std::to_string(kReaderThinkMicros));
  Report::Config("pools", "shard_worker_threads=" +
                              std::to_string(kShardWorkers) +
                              " shard_max_inflight=" +
                              std::to_string(kShardMaxInflight) +
                              " router_max_inflight=" +
                              std::to_string(kRouterMaxInflight) +
                              " backend_idle_per_shard=" +
                              std::to_string(kBackendIdlePerShard));
  Report::Config("engine", "heterogeneous_serializable backend=vm_snapshot "
                           "scan_threads=1 snapshot_interval_commits=" +
                               std::to_string(kSnapshotIntervalCommits));
  Report::Config("flush_policy", "durability=lazy wal_flush_interval_ms=" +
                                     std::to_string(kWalFlushMillis));
  Report::Config("data_dir_fs", FilesystemType(options.data_dir));
  Report::Config("setups", std::to_string(kSetups));
  Report::Config("warmup_s", std::to_string(kWarmupSeconds));
  Report::Config("trace_probe_interval_us",
                 std::to_string(kProbeIntervalNs / 1000));

  Cluster cluster;
  std::vector<double> setup_s, load_s, start_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    cluster.Stop();
    cluster = Cluster();
    const int64_t start = rep == 0 ? ProcessStartNanos() : NowNanos();
    const std::string dir = options.data_dir + "/setup" + std::to_string(rep);
    const SetupTimes times = SetUp(dir, start, &cluster, &outcome);
    if (!outcome.correct()) {
      cluster.Stop();
      return outcome;
    }
    setup_s.push_back(times.total_s);
    load_s.push_back(times.shard_load_s);
    start_s.push_back(times.server_router_start_s);
  }
  Report::Config("setup_times_s", JoinValues(setup_s));
  report->Set("setup.shard_load_s", Median(load_s), load_s.size());
  report->Set("setup.server_router_start_s", Median(start_s), start_s.size());

  Tracer tracer;
  SpanNames names;
  names.exec_txn = tracer.Intern("wire.exec_txn");
  names.exec_txn_cross = tracer.Intern("wire.exec_txn.cross");
  names.scatter = tracer.Intern("wire.scatter");
  names.direct_query = tracer.Intern("wire.direct_query");
  names.probe_routed = tracer.Intern("wire.probe.routed");
  names.probe_direct = tracer.Intern("wire.probe.direct");

  PhaseControl control;
  const double plain_s = options.trace ? options.seconds / 2 : options.seconds;
  const double traced_s = options.seconds - plain_s;
  std::vector<WriterResult> writers(kWriters, WriterResult(plain_s, traced_s));
  ReaderResult reader(plain_s, traced_s);
  ProbeResult probe;
  const ShardTotals start_totals = SumShards(cluster);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    SpanLog* log = tracer.NewLog();
    threads.emplace_back(Writer, &cluster.ranges[w], cluster.writers[w].get(),
                         options.seed * 7919 + w + 1, &control, &names, log,
                         &writers[w]);
  }
  SpanLog* reader_log = tracer.NewLog();
  threads.emplace_back(Reader, &cluster, &control, &names, reader_log,
                       &reader);
  SpanLog* probe_log = tracer.NewLog();
  threads.emplace_back(Probe, &cluster, options.seed * 104729 + 3, &control,
                       &names, probe_log, &probe);

  SleepSeconds(kWarmupSeconds);
  control.Apply(kPlain);
  SleepSeconds(plain_s);
  ShardTotals traced_start, traced_end;
  anker::server::RouterStatusOkMsg router_start, router_end;
  if (options.trace) {
    traced_start = SumShards(cluster);
    router_start = cluster.core->StatusSnapshot();
    control.Apply(kTraced);
    SleepSeconds(traced_s);
    traced_end = SumShards(cluster);
    router_end = cluster.core->StatusSnapshot();
  }
  control.Apply(kStop);
  const double plain_window_s =
      control.WindowSeconds(kPlain, options.trace ? kTraced : kStop);
  const double traced_window_s =
      options.trace ? control.WindowSeconds(kTraced, kStop) : 0;
  for (std::thread& thread : threads) thread.join();

  // ---- correctness at quiescence ----------------------------------------
  const ShardTotals end_totals = SumShards(cluster);
  uint64_t counted_acks = probe.acked;
  outcome.attempted = reader.attempted + probe.attempted;
  outcome.failures.Merge(reader.failures);
  outcome.failures.Merge(probe.failures);
  for (const WriterResult& w : writers) {
    // A cross-shard transaction is acknowledged by both participants.
    counted_acks += w.acked_single + kShards * w.acked_cross;
    outcome.attempted += w.attempted;
    outcome.failures.Merge(w.failures);
  }
  const uint64_t shard_acks =
      end_totals.commits_acked - start_totals.commits_acked;
  if (counted_acks != shard_acks) {
    outcome.Fail("counted acks " + std::to_string(counted_acks) +
                 " != shards' commits_acked delta " +
                 std::to_string(shard_acks));
  }
  VerifyScatter(&cluster, &outcome);

  // ---- end-to-end metrics (untraced window) -----------------------------
  const WindowSummary plain =
      Summarize(kPlain, plain_window_s, writers, reader);
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("oltp_ktps", plain.oltp.ktps, plain.oltp.samples);
  report->Set("oltp_p50_us", plain.oltp.p50_us, plain.oltp.samples);
  if (plain.oltp.tails) {
    report->Set("oltp_p99_us", plain.oltp.p99_us, plain.oltp.samples);
  } else {
    outcome.Fail("a slice has too few EXEC_TXN samples for a p99");
  }
  if (plain.olap.samples == 0) {
    outcome.Fail("no scatter aggregate completed in the measured window");
  }
  report->Set("olap_p50_ms", plain.olap.p50_us / 1e3, plain.olap.samples);
  if (plain.olap.tails) {
    report->Info("olap_p99_ms", plain.olap.p99_us / 1e3, "ms",
                 plain.olap.samples);
  }

  // ---- per-layer metrics (traced window) --------------------------------
  if (options.trace) {
    const WindowSummary traced =
        Summarize(kTraced, traced_window_s, writers, reader);
    const Samples direct = tracer.DurationsUs(names.probe_direct);
    const Samples routed = tracer.DurationsUs(names.probe_routed);
    const Samples cross = tracer.DurationsUs(names.exec_txn_cross);
    const Samples direct_query = tracer.DurationsUs(names.direct_query);
    const Samples scatter = tracer.DurationsUs(names.scatter);
    report->Set("server.direct_exec_txn_us.p50", direct.Percentile(50),
                direct.size());
    if (direct.HasTail(99)) {
      report->Set("server.direct_exec_txn_us.p99", direct.Percentile(99),
                  direct.size());
    }
    report->Set("shard.router_hop_us",
                routed.Percentile(50) - direct.Percentile(50), routed.size());
    report->Set("shard.twopc_exec_txn_us.p50", cross.Percentile(50),
                cross.size());
    if (cross.HasTail(99)) {
      report->Set("shard.twopc_exec_txn_us.p99", cross.Percentile(99),
                  cross.size());
    }
    const uint64_t passthrough =
        router_end.passthrough_txns - router_start.passthrough_txns;
    const uint64_t twopc = router_end.twopc_txns - router_start.twopc_txns;
    report->Set("shard.passthrough_share",
                Ratio(static_cast<double>(passthrough),
                      static_cast<double>(passthrough + twopc)),
                passthrough + twopc);
    const uint64_t acks = traced_end.commits_acked - traced_start.commits_acked;
    const uint64_t syncs = traced_end.syncs - traced_start.syncs;
    report->Set("wal.commits_per_sync",
                Ratio(static_cast<double>(acks), static_cast<double>(syncs)),
                syncs);
    const uint64_t frames = traced_end.frames - traced_start.frames;
    report->Set("server.busy_share",
                Ratio(static_cast<double>(traced_end.busy - traced_start.busy),
                      static_cast<double>(frames)),
                frames);
    report->Set("query.direct_query_ms", direct_query.Percentile(50) / 1e3,
                direct_query.size());
    report->Set("shard.scatter_overhead_ms",
                (scatter.Percentile(50) - direct_query.Percentile(50)) / 1e3,
                scatter.size());
    const ReaderWindow& rw = reader.windows[kTraced];
    report->Set("mvcc.resolved_row_share",
                Ratio(static_cast<double>(rw.rows_resolved),
                      static_cast<double>(rw.rows_scanned)),
                rw.completed);
    report->Set("mvcc.seqlock_retries",
                Ratio(static_cast<double>(rw.seqlock_retries),
                      static_cast<double>(rw.completed)),
                rw.completed);
    const uint64_t aborts = traced_end.txn_aborts - traced_start.txn_aborts;
    const uint64_t commits = traced_end.txn_commits - traced_start.txn_commits;
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
                Ratio(traced.olap.p50_us, plain.olap.p50_us) - 1,
                traced.olap.samples);
    Report::Config("spans_recorded", std::to_string(tracer.span_count()));
    if (!options.spans_out.empty() && !tracer.Write(options.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.spans_out.c_str());
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(), 1);
  cluster.Stop();
  (void)anker::wal::RemoveDirRecursive(options.data_dir);
  ReportFailures(outcome, report);
  return outcome;
}

}  // namespace perfbench
