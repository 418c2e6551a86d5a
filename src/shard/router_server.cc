#include "shard/router_server.h"

#include <algorithm>

namespace anker::shard {

using server::Op;

struct RouterServer::Session : server::SessionLoop::Session {
  RouterCore::SessionState routing;
};

RouterServer::RouterServer(RouterCore* core, RouterServerConfig config)
    : core_(core),
      workers_(std::max<size_t>(1, config.max_inflight)),
      loop_(this, &workers_, std::move(config)) {
  ANKER_CHECK(core_ != nullptr);
}

RouterServer::~RouterServer() { Shutdown(); }

std::shared_ptr<server::SessionLoop::Session> RouterServer::NewSession() {
  return std::make_shared<Session>();
}

server::HelloOkMsg RouterServer::HelloOk() {
  server::HelloOkMsg ok;
  ok.server_info = "anker-router";
  ok.flags = server::kHelloFlagRouter;
  ok.shard_map_digest = core_->map().digest();
  return ok;
}

RouterServer::Outcome RouterServer::Inline(server::SessionLoop::Session&,
                                           Op op, std::string_view,
                                           std::string* out) {
  if (op != Op::kPing) return Outcome::kDispatch;
  server::EncodeFrame(std::string(1, static_cast<char>(Op::kPong)), out);
  return Outcome::kKeep;
}

RouterServer::Outcome RouterServer::Dispatched(
    server::SessionLoop::Session& session, const std::string& payload,
    std::string* out) {
  const bool protocol_error =
      core_->Handle(&static_cast<Session&>(session).routing, payload, out);
  return protocol_error ? Outcome::kProtocolError : Outcome::kKeep;
}

void RouterServer::Closed(server::SessionLoop::Session& session) {
  core_->AbandonSession(&static_cast<Session&>(session).routing);
}

}  // namespace anker::shard
