#ifndef ANKER_SERVER_CLIENT_H_
#define ANKER_SERVER_CLIENT_H_

// Blocking C++ client for the anker wire protocol: one TCP connection,
// strict request/response (responses arrive in request order; queries
// additionally stream result batches before their terminating frame).
// Used by tools/anker_cli.cc, bench/bench_server_throughput.cc and the
// loopback end-to-end tests; the walkthrough lives in docs/SERVER.md.
//
// Error surface: every remote failure comes back as the Status the
// server would have produced in-process (wire error codes map 1:1 onto
// StatusCode). BUSY backpressure surfaces as kResourceBusy — retryable
// by construction. Transport-level failures (connection reset, framing
// corruption) are kIoError and poison the client: every later call
// fails fast until the caller reconnects.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "server/protocol.h"

namespace anker::server {

struct ClientOptions {
  std::string auth_token;
  /// Send/receive timeout per socket operation; 0 = block forever.
  int io_timeout_millis = 0;
  /// Opt-in retry budget for BUSY responses: RoundTrip-style operations
  /// re-send up to this many times with bounded exponential backoff
  /// before surfacing kResourceBusy. 0 (default) = no retries. BUSY is
  /// emitted *before* the server runs an operation (admission control),
  /// so re-sending is safe; callers enabling this on COMMIT/EXEC_TXN
  /// accept at-least-once submission if a sync-ack gate times out.
  int busy_retry_budget = 0;
  int busy_backoff_initial_millis = 5;
  int busy_backoff_max_millis = 500;
};

class Client {
 public:
  /// Connects and completes the HELLO handshake.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ClientOptions options = {});
  ~Client();
  ANKER_DISALLOW_COPY_AND_MOVE(Client);

  Status Ping();

  /// Transaction control (one open transaction per connection, mirroring
  /// the server's session state machine).
  Status Begin();
  Status Commit();
  Status Abort();

  /// Point operations. With `by_key` the row is resolved through the
  /// table's primary index; otherwise `key` is the row id.
  /// A read that lands on an unresolved 2PC write intent returns
  /// kResourceBusy; when `intent` is non-null it carries the blocking
  /// transaction's gtid + primary shard so the caller can resolve via
  /// ResolveIntent on the primary and retry.
  Result<uint64_t> Read(const std::string& table, const std::string& column,
                        uint64_t key, bool by_key = false,
                        IntentPendingMsg* intent = nullptr);
  Status Write(const std::string& table, const std::string& column,
               uint64_t key, uint64_t raw, bool by_key = false);
  Status WriteBatch(const std::vector<PointWrite>& writes);
  /// One-round-trip auto-commit transaction (BEGIN + writes + COMMIT).
  Status ExecTxn(const std::vector<PointWrite>& writes);

  /// Ships a declarative query (query/serialize.h) and reassembles the
  /// streamed result. Aggregate values travel as raw IEEE bits: the
  /// returned rows are byte-identical to an in-process Database::Run.
  Result<query::QueryResult> Query(const query::WireQuery& query,
                                   const query::Params& params);

  /// Schema / load surface.
  Status CreateTable(const std::string& name, uint64_t num_rows,
                     const std::vector<storage::ColumnDef>& schema);
  Status Load(const std::string& table, const std::string& column,
              uint64_t start_row, const std::vector<uint64_t>& values);
  Status BuildIndex(const std::string& table, const std::string& key_column);
  /// Appends dictionary entries to a dict32 column (code = position);
  /// required before grouping on a column loaded with raw codes.
  Status DefineDict(const std::string& table, const std::string& column,
                    const std::vector<std::string>& values);
  Result<std::vector<TableInfo>> ListTables();

  /// Replication / operations surface (protocol v3).
  /// Blocks until the node has applied `lsn` (read-your-writes against a
  /// replica: pass last_commit_lsn() from the primary connection).
  /// kResourceBusy when the wait times out — the replica is lagging.
  Status WaitLsn(uint64_t lsn, uint32_t timeout_millis);
  Result<ReplicaStatusOkMsg> ReplicaStatus();
  /// Controlled failover: flips a replica writable. See docs/OPERATIONS.md.
  Status Promote();
  Status CheckpointNow();
  /// Whole-database content digest; meaningful on a quiesced node.
  Result<uint64_t> Digest();

  /// Sharding / operations surface (protocol v4).
  /// Erases a permanently-departed replica from a primary's retention
  /// registry so WAL truncation stops protecting its resume point.
  /// InvalidArgument while that replica is still connected.
  Status DecommissionReplica(const std::string& replica_id);
  /// Routing counters from a shard router; NotSupported on an engine
  /// server (the probe doubles as "is this endpoint a router").
  Result<RouterStatusOkMsg> RouterStatus();

  /// Cross-shard 2PC surface (protocol v5) — normally driven by the
  /// shard router; exposed here for harnesses and tests.
  /// Phase one: stage `writes` as intents under `gtid`. On OK the
  /// shard's prepare stamp and durable kPrepare LSN are returned.
  Status PrepareTxn(uint64_t gtid, uint32_t primary_shard,
                    const std::vector<PointWrite>& writes,
                    uint64_t* prepare_ts = nullptr, uint64_t* lsn = nullptr);
  /// Phase two: materialize (idempotent; duplicate → OK with lsn 0)...
  Status CommitPrepared(uint64_t gtid, uint64_t commit_ts,
                        uint64_t* lsn = nullptr);
  /// ...or discard. Unknown gtids are fenced with a durable tombstone.
  Status AbortPrepared(uint64_t gtid);
  /// Outcome query at the primary shard. `abort_pending` escalates an
  /// undecided transaction to a durable abort (dead-router recovery).
  Status ResolveIntent(uint64_t gtid, bool abort_pending,
                       uint8_t* outcome, uint64_t* commit_ts = nullptr);

  /// LSN of the last COMMIT/EXEC_TXN acknowledged on this connection
  /// (0 before any durable commit) — the read-your-writes token.
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }

  /// The first transport or framing failure, sticky (OK while the
  /// connection is usable). A pool uses it to decide between reusing
  /// and closing a returned connection.
  const Status& transport_status() const { return poisoned_; }

  /// Unblocks any thread stuck in recv/send on this client (the fd stays
  /// owned and is closed by the destructor). Safe from another thread.
  void ShutdownSocket();

  /// Fire-and-wait raw round trip for tests and benches: sends one
  /// already-encoded request payload, returns the raw response payload.
  Result<std::string> RoundTrip(const std::string& request_payload);

  /// Pipelining for benches: queue a request without reading responses...
  Status SendOnly(const std::string& request_payload);
  /// ...then collect one pending simple (non-query) response.
  Result<std::string> ReceiveOne();

 private:
  Client() = default;

  Status SendFrame(const std::string& payload);
  /// Blocks until one complete frame arrives.
  Status ReceiveFrame(std::string* payload);
  /// Decodes kOk / kErr / kBusy into a Status; anything else is a
  /// protocol error (poisons the client).
  Status StatusResponse(const std::string& payload);
  /// kOk or kCommitOk (stashing the LSN) → OK; else StatusResponse.
  Status CommitResponse(const std::string& payload);

  int fd_ = -1;
  std::string inbox_;
  ClientOptions options_;
  uint64_t last_commit_lsn_ = 0;
  Status poisoned_ = Status::OK();  ///< First transport failure, sticky.
};

}  // namespace anker::server

#endif  // ANKER_SERVER_CLIENT_H_
