#ifndef ANKER_SERVER_SESSION_LOOP_H_
#define ANKER_SERVER_SESSION_LOOP_H_

// The wire transport every front-end shares: one epoll event-loop thread
// owns the listening socket and every session socket. It frames the byte
// stream, runs the HELLO/auth gate, bounds the per-session pipeline
// window, admits blocking work onto a worker pool (BUSY beyond
// max_inflight), writes responses back in request order, reaps idle
// sessions and drains on shutdown. What a request *means* belongs to a
// Handler: the engine server (server.h) and the shard router
// (shard/router_server.h) are the two handler sets. docs/SERVER.md
// ("Sessions, ordering, backpressure") states the rules this loop keeps.
//
// Per session, strictly one request executes at a time: frames queue
// behind a dispatched operation and responses always leave in request
// order, so clients may pipeline up to max_pipeline frames.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/protocol.h"

namespace anker::server {

/// Listen address, auth and admission limits of one wire front-end.
struct SessionConfig {
  /// Listen address. Defaults stay loopback-only: exposing a node beyond
  /// the host is an explicit operator decision (docs/OPERATIONS.md).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests, benches) — read the
  /// chosen one back with port().
  uint16_t port = 0;
  /// Shared-secret session auth. Empty = no authentication; otherwise the
  /// HELLO token must match byte-for-byte.
  std::string auth_token;
  /// Accepted connections beyond this are refused at accept time.
  size_t max_sessions = 1024;
  /// Admission control: dispatched operations running on the worker pool
  /// at once, across all sessions. Requests arriving beyond the limit are
  /// answered with BUSY — explicit backpressure instead of an unbounded
  /// queue. 0 rejects every dispatched op (used by tests to pin the BUSY
  /// path).
  size_t max_inflight = 64;
  /// Frames a session may pipeline behind an in-flight operation before
  /// the loop treats it as a protocol violation and closes it.
  size_t max_pipeline = 64;
  /// Sessions idle longer than this are closed; 0 disables the timeout.
  int idle_timeout_millis = 0;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_closed = 0;
  uint64_t frames_received = 0;
  uint64_t busy_rejections = 0;
  uint64_t protocol_errors = 0;
  uint64_t commits_acked = 0;
  uint64_t queries_served = 0;
};

class SessionLoop {
 public:
  /// What the loop does with a session after a handler answered.
  enum class Outcome {
    kKeep,           ///< Answered; the session stays open.
    kClose,          ///< Answered; close once the answer is flushed.
    kProtocolError,  ///< kClose, counted as a protocol error.
    kDispatch,       ///< Inline only: run Dispatched on a worker.
  };

  /// One client connection. Handlers derive from it to carry their own
  /// per-session state (an open transaction, a pinned shard); the loop
  /// thread and the worker running the session's dispatched op touch that
  /// state, never concurrently.
  class Session {
   public:
    Session() = default;
    virtual ~Session() = default;
    ANKER_DISALLOW_COPY_AND_MOVE(Session);

   private:
    friend class SessionLoop;
    using Clock = std::chrono::steady_clock;

    int fd = -1;
    bool ready = false;  ///< HELLO accepted.
    /// Raw bytes read off the socket, not yet framed.
    std::string inbox;
    /// Encoded response frames awaiting write. Loop thread only.
    std::string outbox;
    bool want_write = false;  ///< EPOLLOUT currently registered.
    /// Decoded request payloads awaiting execution (pipelining window).
    std::deque<std::string> pending;
    /// A dispatched operation is running on the worker pool; the pump
    /// stops until it completes so responses keep request order.
    bool busy = false;
    /// Built by the worker; handed to the loop thread through
    /// SessionLoop::completed_ (the mutex orders the memory).
    std::string dispatched_response;
    Outcome dispatched_outcome = Outcome::kKeep;
    bool close_after_flush = false;
    bool closed = false;
    Clock::time_point last_active = Clock::now();
  };

  /// The meaning of requests. Every hook but Dispatched runs on the loop
  /// thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual std::shared_ptr<Session> NewSession() = 0;
    /// The HELLO_OK a successful handshake answers with.
    virtual HelloOkMsg HelloOk() = 0;
    /// A post-handshake request other than HELLO. Appends the response
    /// frames to `out` and returns kKeep/kClose/kProtocolError, or returns
    /// kDispatch (nothing appended) when the work may block; the loop then
    /// admits it or answers BUSY.
    virtual Outcome Inline(Session& session, Op op, std::string_view body,
                           std::string* out) = 0;
    /// Worker-pool side of a dispatched request (opcode + body). Appends
    /// the response frames to `out`; never returns kDispatch.
    virtual Outcome Dispatched(Session& session, const std::string& payload,
                               std::string* out) = 0;
    /// The session is gone (peer closed, idle, drained, protocol error):
    /// release what it holds. Runs once, never while a dispatched op of
    /// the session is still running.
    virtual void Closed(Session& session) = 0;
  };

  /// `handler` and `workers` must outlive the loop.
  SessionLoop(Handler* handler, ThreadPool* workers, SessionConfig config);
  ~SessionLoop();
  ANKER_DISALLOW_COPY_AND_MOVE(SessionLoop);

  /// Binds, listens and spawns the event-loop thread. IoError when the
  /// address is unavailable.
  Status Start();

  /// Graceful shutdown: stop accepting, let every in-flight operation
  /// finish and its response flush, close all sessions, join the loop
  /// thread. Idempotent.
  void Shutdown();

  /// The bound port (after Start); useful with config.port = 0.
  uint16_t port() const { return port_; }

  /// Transport counters; commits_acked and queries_served stay 0.
  ServerStats stats() const;

  /// Loop thread, from Inline only: takes the session's socket out of the
  /// loop for good, made blocking with the outbox flushed. `residual`
  /// receives the bytes the peer sent past the current request (queued
  /// frames re-framed, then the unframed inbox). Returns the fd, now
  /// owned by the caller, or -1 when the peer went away during the flush.
  /// Closed is not called for a detached session.
  int Detach(Session& session, std::string* residual);

  /// Appends a ProtocolError answer; returns kProtocolError.
  static Outcome ProtocolError(std::string_view message, std::string* out);
  /// Appends one ERR (or BUSY) frame.
  static void AppendError(Op op, WireError code, std::string_view message,
                          std::string* out);

 private:
  void EventLoop();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Session>& session);
  /// Decodes complete frames from the inbox into the pending queue.
  void IngestFrames(const std::shared_ptr<Session>& session);
  /// Executes queued requests until empty, a dispatched op starts, or the
  /// session closes.
  void PumpSession(const std::shared_ptr<Session>& session);
  void ExecuteRequest(const std::shared_ptr<Session>& session,
                      std::string payload);
  Outcome Handshake(Session& session, Op op, std::string_view body);
  void Settle(Session& session, Outcome outcome);
  void FlushOutbox(const std::shared_ptr<Session>& session);
  void CloseSession(const std::shared_ptr<Session>& session);
  void WakeLoop();

  Handler* const handler_;
  ThreadPool* const workers_;
  SessionConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::unordered_map<int, std::shared_ptr<Session>> sessions_;

  /// Sessions whose dispatched op finished; drained by the loop thread.
  std::mutex completed_mutex_;
  std::vector<std::shared_ptr<Session>> completed_;

  std::atomic<size_t> inflight_{0};

  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> protocol_errors_{0};

  /// Declared last: runs EventLoop over every member above.
  std::thread loop_;
};

}  // namespace anker::server

#endif  // ANKER_SERVER_SESSION_LOOP_H_
