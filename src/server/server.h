#ifndef ANKER_SERVER_SERVER_H_
#define ANKER_SERVER_SERVER_H_

// anker_serve's session server: the engine's handler set on the shared
// wire transport (session_loop.h), over one engine::Database. Requests
// that can block (commits waiting on group-commit fsyncs, OLAP queries,
// schema/load operations) are dispatched onto the engine's worker pool;
// point reads, writes, BEGIN/ABORT and the status surface run inline on
// the loop thread. See docs/SERVER.md for the protocol and
// docs/OPERATIONS.md for deployment guidance.
//
// Concurrent OLAP queries from different sessions naturally share
// snapshot epochs: Database::Run pins the *newest* epoch, which the
// engine only advances every snapshot_interval_commits — the server
// never forces per-request snapshot creation.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "engine/database.h"
#include "mvcc/intent_table.h"
#include "server/protocol.h"
#include "server/session_loop.h"

namespace anker::server {

class ReplicationMaster;
class ReplicaController;

struct ServerConfig : SessionConfig {
  /// Replication (v3). The heartbeat/ack knobs shape the streamer threads
  /// this server spawns for subscribed replicas (no-ops when durability
  /// is off — REPLICATE_HELLO is then refused).
  int repl_heartbeat_millis = 500;
  int repl_ack_wait_millis = 2000;
  /// Set when this server fronts a replica: write-class requests are
  /// refused with kReadOnlyReplica until promotion, REPLICA_STATUS and
  /// WAIT_LSN consult the controller. Not owned; must outlive the server.
  ReplicaController* replica = nullptr;
};

class Server : private SessionLoop::Handler {
 public:
  /// The database must outlive the server. The server never calls
  /// Database::Stop/Checkpoint itself — shutdown orchestration (drain ->
  /// checkpoint -> exit) belongs to the binary (tools/anker_serve.cc).
  Server(engine::Database* db, ServerConfig config);
  ~Server() override;
  ANKER_DISALLOW_COPY_AND_MOVE(Server);

  /// Binds, listens and spawns the event-loop thread. IoError when the
  /// address is unavailable.
  Status Start();

  /// Graceful shutdown: stop accepting, let every in-flight operation
  /// finish and its response flush, close all sessions, join the loop
  /// thread. Idempotent; also run by the destructor.
  void Shutdown();

  /// The bound port (after Start); useful with config.port = 0.
  uint16_t port() const { return loop_.port(); }

  ServerStats stats() const;

 private:
  /// A session's open OLTP transaction (at most one).
  struct Session;

  // SessionLoop::Handler.
  std::shared_ptr<SessionLoop::Session> NewSession() override;
  HelloOkMsg HelloOk() override;
  /// The engine op switch: cheap ops answer here, blocking ones dispatch.
  SessionLoop::Outcome Inline(SessionLoop::Session& session, Op op,
                              std::string_view body,
                              std::string* out) override;
  SessionLoop::Outcome Dispatched(SessionLoop::Session& session,
                                  const std::string& payload,
                                  std::string* out) override;
  void Closed(SessionLoop::Session& session) override;

  /// REPLICATE_HELLO: hands the session's socket to a streamer thread.
  SessionLoop::Outcome Subscribe(Session& session, std::string_view body,
                                 std::string* out);

  /// Engine helpers (worker or loop thread; engine objects are
  /// thread-safe).
  Status DoWrite(txn::Transaction* txn, const PointWrite& write);
  /// Reads inside `txn` when given, else as an auto-commit read.
  /// `blocking_intent` (optional) is filled when the read is refused
  /// because an unresolved 2PC write intent covers the slot below the
  /// reader's snapshot; the caller bounces the client to the primary.
  Result<uint64_t> DoRead(txn::Transaction* txn, const PointReadMsg& msg,
                          mvcc::IntentInfo* blocking_intent = nullptr);
  /// Appends the response frames for one dispatched request to `out`.
  void DispatchedResponse(Session& session, const std::string& payload,
                          std::string* out);

  engine::Database* db_;
  ServerConfig config_;

  /// Primary-side WAL shipping (created by Start when the database has a
  /// WAL and this server is not fronting a replica).
  std::unique_ptr<ReplicationMaster> replication_;

  /// Serializes BUILD_INDEX ops (worker threads): the exists-check and
  /// the eventual AdoptPrimaryIndex publish must be one atomic step.
  std::mutex build_index_mutex_;

  std::atomic<uint64_t> commits_acked_{0};
  std::atomic<uint64_t> queries_served_{0};

  SessionLoop loop_;
};

}  // namespace anker::server

#endif  // ANKER_SERVER_SERVER_H_
