#ifndef ANKER_SHARD_ROUTER_SERVER_H_
#define ANKER_SHARD_ROUTER_SERVER_H_

// anker_router's wire front-end: the router's handler set on the shared
// wire transport (server/session_loop.h). The session rules — HELLO gate,
// pipeline window, BUSY admission, idle reaping, drain — are the engine
// server's, because they are the same loop. What differs:
//  - HELLO_OK advertises kHelloFlagRouter and the active shard map's
//    digest, so a client can tell a router from a shard and pin the
//    topology it loaded against.
//  - Every post-handshake request except PING dispatches into
//    RouterCore (it may block on backend IO), on a worker pool of
//    max(1, max_inflight) threads owned by this server.
//  - The session owns a RouterCore::SessionState (pinned shard + live
//    backend connection) instead of a transaction; a vanished peer
//    aborts its pinned transaction on the shard.

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/session_loop.h"
#include "shard/router_core.h"

namespace anker::shard {

/// Listen address, auth and admission limits (server/session_loop.h).
using RouterServerConfig = server::SessionConfig;

class RouterServer : private server::SessionLoop::Handler {
 public:
  /// `core` must outlive the server.
  RouterServer(RouterCore* core, RouterServerConfig config);
  ~RouterServer() override;
  ANKER_DISALLOW_COPY_AND_MOVE(RouterServer);

  Status Start() { return loop_.Start(); }
  /// Graceful: stop accepting, drain in-flight work and outboxes,
  /// abort orphaned pinned transactions, join. Idempotent.
  void Shutdown() { loop_.Shutdown(); }

  uint16_t port() const { return loop_.port(); }

 private:
  using Outcome = server::SessionLoop::Outcome;
  struct Session;

  std::shared_ptr<server::SessionLoop::Session> NewSession() override;
  server::HelloOkMsg HelloOk() override;
  Outcome Inline(server::SessionLoop::Session& session, server::Op op,
                 std::string_view body, std::string* out) override;
  Outcome Dispatched(server::SessionLoop::Session& session,
                     const std::string& payload, std::string* out) override;
  void Closed(server::SessionLoop::Session& session) override;

  RouterCore* core_;
  ThreadPool workers_;
  server::SessionLoop loop_;
};

}  // namespace anker::shard

#endif  // ANKER_SHARD_ROUTER_SERVER_H_
