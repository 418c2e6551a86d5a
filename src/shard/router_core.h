#ifndef ANKER_SHARD_ROUTER_CORE_H_
#define ANKER_SHARD_ROUTER_CORE_H_

// The routing brain behind the router's wire front-end: one decoded
// request payload in, response frame(s) out. Kept free of sockets and
// epoll so tests can drive it directly against in-process shards.
//
// Backend I/O: every router->shard call is a Client call on a
// BackendPool::Lease. Client::RoundTrip owns the one BUSY rule: an
// admission BUSY (the opcode, emitted before the shard runs anything)
// is re-sent under RouterCoreConfig's busy_* policy, which the core
// installs on its pool; every other answer — an ERR carrying
// kResourceBusy such as an intent conflict or a sync-ack "commit
// uncertain" included — comes back at once. QUERY streams through
// Client::Query, which sends once: a shard's BUSY on a query surfaces
// as kResourceBusy (allow_partial skips that shard). The lease returns
// its connection to the pool, or closes it when its transport failed.
//
// Routing rules (docs/SERVER.md has the client-facing contract):
//  - EXEC_TXN: decoded just far enough to find the owning shard(s).
//    Single-shard batches forward the ORIGINAL payload bytes verbatim —
//    one router->shard round trip (the pass-through fast path, counted
//    in passthrough_txns). Batches spanning shards run intent-based 2PC
//    (counted in twopc_txns): PREPARE_TXN fan-out stages durable write
//    intents on every participant, the router's mvcc::TimestampOracle
//    folds the prepare stamps into one commit stamp, and
//    COMMIT_PREPARED lands on the primary shard (lowest participating
//    index — the durable commit point) before fanning to the rest. The
//    participants are aborted only when the primary's answer proves it
//    did not commit (kAborted / kNotFound); any other failure reports
//    "outcome unknown" and leaves the intents to lazy resolution. A
//    router death mid-protocol leaves intents that readers resolve
//    lazily through the primary (see HandleRead). Writes touching
//    replicated tables are refused.
//  - BEGIN is acknowledged locally; the session pins to the shard that
//    owns the first keyed operation (a replicated-table read pins to
//    any healthy shard), and every later op in the transaction must
//    land on the same shard — cross-shard writes belong in one
//    EXEC_TXN. COMMIT/ABORT forward to the pinned shard (an untouched
//    transaction commits locally); a COMMIT answered BUSY leaves the
//    transaction open for the client to retry.
//  - READ outside a transaction routes to the owning shard
//    (replicated tables: any healthy shard). Row-id addressing is
//    refused for partitioned tables — row ids are shard-local.
//  - CREATE_TABLE / LOAD (replicated tables) and BUILD_INDEX /
//    DICT_DEFINE (all tables) fan out to every shard; the first failure
//    wins. CREATE_TABLE/LOAD of a partitioned table is refused: rows
//    are positional, so splitting a load is the loader's job (the
//    smoke harness loads shards directly).
//  - QUERY: PlanScatter (query/merge.h) classifies the plan;
//    single-shard plans forward to one healthy shard, scatterable plans
//    run on every shard and merge at the router, cross-shard plans
//    come back as a recoverable kNotSupported.
//  - A down shard surfaces as BUSY (kResourceBusy) for anything that
//    must reach it. Queries optionally tolerate missing shards
//    (allow_partial): the merged result then covers the live subset,
//    with the number of skipped shards reported in QUERY_DONE's
//    shards_missing field so clients can tell degraded from complete.
//  - Replication/operations surface (REPLICATE_HELLO, FETCH_CHECKPOINT,
//    WAIT_LSN, PROMOTE, CHECKPOINT_NOW, DIGEST, DECOMMISSION_REPLICA):
//    refused — those are per-node operator actions; connect to the
//    shard's engine server directly.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/timestamp_oracle.h"
#include "server/protocol.h"
#include "shard/backend_pool.h"
#include "shard/shard_map.h"

namespace anker::shard {

struct RouterCoreConfig {
  /// QUERY behavior when a shard is down: false = refuse with BUSY;
  /// true = merge over the reachable shards (results may under-count;
  /// the skipped-shard count travels back in QUERY_DONE).
  bool allow_partial = false;
  /// Retry policy for shard BUSY responses, installed on every pooled
  /// backend connection (Client::RoundTrip applies it). BUSY is emitted
  /// by admission control before the shard runs an operation, so
  /// re-sending is always safe; no other answer is re-sent. 0 = surface
  /// BUSY at once. The backoff also paces intent-resolution retries.
  int busy_retry_budget = 4;
  int busy_backoff_initial_millis = 5;
  int busy_backoff_max_millis = 200;
  /// Attempts to resolve a read-blocking intent through its primary
  /// shard before escalating the transaction to a durable abort (the
  /// coordinating router is presumed dead at that point).
  int intent_resolve_attempts = 5;
};

class RouterCore {
 public:
  /// Per-client-session routing state. Owned by the front-end session;
  /// the one-request-at-a-time session discipline serializes access.
  struct SessionState {
    bool in_txn = false;
    /// Backend connection holding the open transaction (txn.shard() is
    /// the pinned shard); empty until the first keyed op.
    BackendPool::Lease txn;
  };

  /// `map` and `pool` must outlive the core. Installs the config's BUSY
  /// policy on `pool`.
  RouterCore(const ShardMap* map, BackendPool* pool,
             RouterCoreConfig config);
  ANKER_DISALLOW_COPY_AND_MOVE(RouterCore);

  /// Handles one post-handshake request payload (opcode + body),
  /// appending complete response frame(s) to `out`. May block on
  /// backend IO — run on a worker thread. Returns true when the answer
  /// is a ProtocolError (malformed body, a second HELLO): the front-end
  /// must close the session once the answer is flushed.
  bool Handle(SessionState* session, const std::string& payload,
              std::string* out);

  /// Session teardown (peer vanished): abort any pinned transaction on
  /// its shard and return the connection.
  void AbandonSession(SessionState* session);

  /// ROUTER_STATUS payload. Probing health touches the network.
  server::RouterStatusOkMsg StatusSnapshot();

  const ShardMap& map() const { return *map_; }

 private:
  /// Writes split by owning shard, ascending shard index.
  using WriteGroups =
      std::vector<std::pair<size_t, std::vector<server::PointWrite>>>;
  /// EnsurePinned's "any healthy shard".
  static constexpr size_t kAnyShard = ~size_t{0};

  void HandleTxnOp(SessionState* session, server::Op op,
                   const std::string& payload, std::string* out);
  void HandleRead(SessionState* session, const server::PointReadMsg& msg,
                  const std::string& payload, std::string* out);
  void HandleExecTxn(SessionState* session,
                     const std::vector<server::PointWrite>& writes,
                     const std::string& payload, std::string* out);
  void HandleQuery(const server::QueryMsg& msg, std::string* out);
  /// Sends `payload` to every shard; the first failure wins.
  void HandleFanout(const std::string& payload, std::string* out);
  void HandleListTables(const std::string& payload, std::string* out);

  /// Splits a write batch by owning shard. False = refused (replicated
  /// table or row-id addressing; response already appended).
  bool PartitionWrites(const std::vector<server::PointWrite>& writes,
                       WriteGroups* groups, std::string* out);
  /// Runs a multi-shard EXEC_TXN as intent-based 2PC.
  void TwoPhaseCommit(const WriteGroups& groups, std::string* out);
  /// Best-effort ABORT_PREPARED fan-out to `groups` (phase-one unwind).
  /// Unknown gtids are fenced with durable tombstones, so shards whose
  /// prepare never arrived are safe to abort too.
  void AbortPreparedFanout(uint64_t gtid, const WriteGroups& groups);
  /// Forwards a READ, resolving kIntentPending responses through the
  /// intent's primary shard (lazy resolution for dead coordinators)
  /// and retrying. Same contract as ForwardVerbatim.
  bool ForwardReadResolving(server::Client* client,
                            const std::string& payload, std::string* out);
  /// One resolution round: asks `primary_shard` for the outcome of
  /// `gtid` and applies it at `holder` (the shard whose intent blocked
  /// the read). OK with `*decided=false` while still pending.
  Status ResolveIntentOnce(uint64_t gtid, size_t primary_shard,
                           server::Client* holder, bool abort_pending,
                           bool* decided);
  /// Pins `session` to `shard` (kAnyShard: any healthy shard), opening
  /// the backend transaction; a session already pinned elsewhere is
  /// refused. False = refused/failed (response already appended).
  bool EnsurePinned(SessionState* session, size_t shard, std::string* out);
  /// The pinned connection was lost mid-transaction: the shard aborted
  /// the transaction, so the session leaves it and the client hears
  /// BUSY.
  void LoseTxn(SessionState* session, std::string* out);
  /// Round-trips `payload` on `client`, forwarding the raw response
  /// verbatim. False on transport failure (a BUSY/error response is
  /// still `true`).
  bool ForwardVerbatim(server::Client* client, const std::string& payload,
                       std::string* out);
  /// Acquires any healthy shard, round-robin so any-shard traffic
  /// (replicated reads, single-shard queries) spreads the load.
  Result<BackendPool::Lease> AcquireAny();

  void RespondStatus(const Status& status, std::string* out);
  void RespondError(server::WireError code, const std::string& message,
                    std::string* out);

  const ShardMap* map_;
  BackendPool* pool_;
  const RouterCoreConfig config_;

  /// Round-robin start point for AcquireAny (wraps modulo shards).
  std::atomic<size_t> any_cursor_{0};

  std::atomic<uint64_t> passthrough_txns_{0};
  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> single_shard_queries_{0};
  std::atomic<uint64_t> fanout_ops_{0};
  std::atomic<uint64_t> twopc_txns_{0};
  std::atomic<uint64_t> intent_resolutions_{0};

  /// Cross-shard commit stamps: AdvanceTo(max prepare stamp) then Next()
  /// is strictly above every participant's prepare stamp and every
  /// stamp this router issued before. The stamp is metadata, not a
  /// global serialization point: each shard applies the writes at its
  /// own local stamp, and intents gate readers until phase two lands.
  mvcc::TimestampOracle oracle_;
  /// Global transaction ids: wall-clock-seeded base + counter. A
  /// collision with a fenced gtid from a previous router incarnation is
  /// refused by the shard's tombstone and surfaces as a retryable
  /// abort, so uniqueness is best-effort by construction.
  const uint64_t gtid_base_;
  std::atomic<uint64_t> gtid_counter_{0};
};

}  // namespace anker::shard

#endif  // ANKER_SHARD_ROUTER_CORE_H_
