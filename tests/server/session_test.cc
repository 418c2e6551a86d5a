// Session state-machine negatives, driven over real loopback sockets:
// op before HELLO, double HELLO, double BEGIN, commit without a
// transaction, oversized frames, corrupt CRCs, unknown opcodes, malformed
// bodies, BUSY admission, idle reaping, auth rejection and dropped
// connections. Both wire front-ends run every transport case — the
// engine server and a router over one in-process shard share one
// session loop, so they must answer (or close) identically per the
// rules in docs/SERVER.md and survive every abuse.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"

namespace anker::server {
namespace {

enum class Front { kEngine, kRouter };

constexpr size_t kRows = 16;

class SessionTest : public ::testing::TestWithParam<Front> {
 protected:
  /// Starts the front-end under test with `config`. The engine (the
  /// router's only shard, in router runs) holds kv(k, v) with a primary
  /// index on k = row id, partitioned by k.
  void StartServer(SessionConfig config = {}) {
    engine::DatabaseConfig db_config = engine::DatabaseConfig::ForMode(
        txn::ProcessingMode::kHeterogeneousSerializable);
    db_config.worker_threads = 4;
    db_ = std::make_unique<engine::Database>(db_config);
    auto table = db_->CreateTable("kv",
                                  {{"k", storage::ValueType::kInt64},
                                   {"v", storage::ValueType::kInt64}},
                                  kRows);
    ASSERT_TRUE(table.ok());
    table.value()->CreatePrimaryIndex(kRows);
    for (uint64_t row = 0; row < kRows; ++row) {
      ASSERT_TRUE(table.value()->primary_index()->Insert(row, row).ok());
    }
    config.port = 0;
    if (GetParam() == Front::kEngine) {
      ServerConfig server_config;
      static_cast<SessionConfig&>(server_config) = config;
      server_ = std::make_unique<Server>(db_.get(), server_config);
      ASSERT_TRUE(server_->Start().ok());
      port_ = server_->port();
      return;
    }
    server_ = std::make_unique<Server>(db_.get(), ServerConfig{});
    ASSERT_TRUE(server_->Start().ok());
    auto map = shard::ShardMap::Parse(
        "version 1\nshard 127.0.0.1:" + std::to_string(server_->port()) +
        "\ntable kv partition k\n");
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    map_ = std::make_unique<shard::ShardMap>(map.TakeValue());
    pool_ = std::make_unique<shard::BackendPool>(map_->shards(),
                                                 shard::BackendPoolConfig{});
    core_ = std::make_unique<shard::RouterCore>(map_.get(), pool_.get(),
                                                shard::RouterCoreConfig{});
    router_ = std::make_unique<shard::RouterServer>(core_.get(), config);
    ASSERT_TRUE(router_->Start().ok());
    port_ = router_->port();
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Shutdown();
    if (server_ != nullptr) server_->Shutdown();
  }

  bool IsRouter() const { return GetParam() == Front::kRouter; }

  std::unique_ptr<Client> Connect() {
    auto connected = Client::Connect("127.0.0.1", port_);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return connected.ok() ? connected.TakeValue() : nullptr;
  }

  /// Raw client socket (blocking) for protocol-abuse scenarios the
  /// Client library refuses to produce.
  int RawConnect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
  }

  /// A raw socket past a successful handshake.
  int RawConnectReady() {
    const int fd = RawConnect();
    SendFramed(fd, ValidHello());
    bool closed = false;
    const std::string response = ReceiveFramed(fd, &closed);
    EXPECT_FALSE(closed);
    EXPECT_EQ(static_cast<Op>(response[0]), Op::kHelloOk);
    return fd;
  }

  void SendRaw(int fd, std::string_view bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void SendFramed(int fd, std::string_view payload) {
    std::string frame;
    EncodeFrame(payload, &frame);
    SendRaw(fd, frame);
  }

  /// Reads one frame; empty optional-style flag via `closed`.
  std::string ReceiveFramed(int fd, bool* closed) {
    *closed = false;
    std::string buffer;
    char chunk[4096];
    while (true) {
      std::string_view payload;
      size_t consumed = 0;
      if (DecodeFrame(buffer, &payload, &consumed) == FrameStatus::kOk) {
        return std::string(payload);
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        *closed = true;
        return "";
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer closes the connection (EOF) within the timeout.
  bool WaitForClose(int fd) {
    char byte;
    while (true) {
      const ssize_t n = ::recv(fd, &byte, 1, 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  std::string ValidHello() {
    std::string payload;
    EncodeHello(HelloMsg{}, &payload);
    return payload;
  }

  WireError ErrCodeOf(const std::string& payload) {
    EXPECT_FALSE(payload.empty());
    EXPECT_TRUE(static_cast<Op>(payload[0]) == Op::kErr ||
                static_cast<Op>(payload[0]) == Op::kBusy);
    ErrMsg msg;
    EXPECT_TRUE(DecodeErr(std::string_view(payload).substr(1), &msg).ok());
    return msg.code;
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<shard::ShardMap> map_;
  std::unique_ptr<shard::BackendPool> pool_;
  std::unique_ptr<shard::RouterCore> core_;
  std::unique_ptr<shard::RouterServer> router_;
  uint16_t port_ = 0;
};

INSTANTIATE_TEST_SUITE_P(Front, SessionTest,
                         ::testing::Values(Front::kEngine, Front::kRouter),
                         [](const ::testing::TestParamInfo<Front>& info) {
                           return info.param == Front::kEngine ? "Engine"
                                                               : "Router";
                         });

TEST_P(SessionTest, OpBeforeHelloIsRejectedAndClosed) {
  StartServer();
  const int fd = RawConnect();
  SendFramed(fd, std::string(1, static_cast<char>(Op::kBegin)));
  bool closed = false;
  const std::string response = ReceiveFramed(fd, &closed);
  ASSERT_FALSE(closed);
  EXPECT_EQ(ErrCodeOf(response), WireError::kProtocolError);
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_P(SessionTest, SecondHelloIsRejectedAndClosed) {
  StartServer();
  const int fd = RawConnectReady();
  SendFramed(fd, ValidHello());
  bool closed = false;
  const std::string response = ReceiveFramed(fd, &closed);
  ASSERT_FALSE(closed);
  EXPECT_EQ(ErrCodeOf(response), WireError::kProtocolError);
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_P(SessionTest, MalformedBodyIsRejectedAndClosed) {
  StartServer();
  const int fd = RawConnectReady();
  // A WRITE whose body is one byte: too short for any point write.
  std::string payload(1, static_cast<char>(Op::kWrite));
  payload.push_back('\x01');
  SendFramed(fd, payload);
  bool closed = false;
  const std::string response = ReceiveFramed(fd, &closed);
  ASSERT_FALSE(closed);
  EXPECT_EQ(ErrCodeOf(response), WireError::kProtocolError);
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_P(SessionTest, WrongVersionAndBadTokenFailHandshake) {
  SessionConfig config;
  config.auth_token = "sesame";
  StartServer(config);

  {  // Wrong token.
    auto client = Client::Connect("127.0.0.1", port_);
    EXPECT_FALSE(client.ok());
  }
  {  // Right token works.
    ClientOptions options;
    options.auth_token = "sesame";
    auto client = Client::Connect("127.0.0.1", port_, options);
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client.value()->Ping().ok());
  }
  {  // Wrong protocol version.
    const int fd = RawConnect();
    std::string payload;
    HelloMsg hello;
    hello.version = 999;
    hello.auth_token = "sesame";
    EncodeHello(hello, &payload);
    SendFramed(fd, payload);
    bool closed = false;
    const std::string response = ReceiveFramed(fd, &closed);
    ASSERT_FALSE(closed);
    EXPECT_EQ(ErrCodeOf(response), WireError::kBadHandshake);
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
}

TEST_P(SessionTest, DoubleBeginAndTxnlessOpsAreRecoverableErrors) {
  StartServer();
  auto connected = Connect();
  ASSERT_NE(connected, nullptr);
  Client& client = *connected;

  // Ops that need a transaction, without one.
  EXPECT_EQ(client.Commit().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Abort().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Write("kv", "v", 0, 1, /*by_key=*/true).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(client.Begin().ok());
  // Double BEGIN: rejected, session (and the open transaction) survive.
  EXPECT_EQ(client.Begin().code(), StatusCode::kInvalidArgument);
  // ExecTxn while a transaction is open: rejected.
  PointWrite write;
  write.table = "kv";
  write.column = "v";
  write.by_key = true;
  write.key = 0;
  write.raw = 7;
  EXPECT_EQ(client.ExecTxn({write}).code(), StatusCode::kInvalidArgument);
  // The session still works: finish the transaction normally.
  EXPECT_TRUE(client.Write("kv", "v", 0, 7, /*by_key=*/true).ok());
  EXPECT_TRUE(client.Commit().ok());
  auto value = client.Read("kv", "v", 0, /*by_key=*/true);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 7u);
}

/// Engine-only cases: the router answers these from its own routing
/// rules (tests/shard/).
class EngineSessionTest : public SessionTest {};

INSTANTIATE_TEST_SUITE_P(Front, EngineSessionTest,
                         ::testing::Values(Front::kEngine),
                         [](const ::testing::TestParamInfo<Front>&) {
                           return "Engine";
                         });

TEST_P(EngineSessionTest, UnknownTableColumnRowSurfaceTypedErrors) {
  StartServer();
  ASSERT_TRUE(db_->CreateTable("plain", {{"v", storage::ValueType::kInt64}},
                               kRows)
                  .ok());
  auto connected = Connect();
  ASSERT_NE(connected, nullptr);
  Client& client = *connected;
  EXPECT_TRUE(client.Read("nope", "v", 0).status().IsNotFound());
  EXPECT_TRUE(client.Read("kv", "nope", 0).status().IsNotFound());
  EXPECT_EQ(client.Read("kv", "v", 999).status().code(),
            StatusCode::kOutOfRange);
  // by_key without an index.
  EXPECT_EQ(client.Read("plain", "v", 0, /*by_key=*/true).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(SessionTest, OversizedFrameClosesTheSession) {
  StartServer();
  const int fd = RawConnect();
  // A header claiming a payload over the limit: the front-end must drop
  // the connection without trying to read (or allocate) the body.
  std::string header;
  wal::PutU32(&header, kMaxFramePayload + 1);
  wal::PutU32(&header, 0xdeadbeef);
  SendRaw(fd, header);
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_P(SessionTest, CorruptCrcClosesTheSession) {
  StartServer();
  const int fd = RawConnect();
  std::string frame;
  EncodeFrame(ValidHello(), &frame);
  frame[5] = static_cast<char>(frame[5] ^ 0x10);  // Break the CRC word.
  SendRaw(fd, frame);
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_P(SessionTest, UnknownOpcodeIsNotSupportedButSurvivable) {
  StartServer();
  const int fd = RawConnectReady();
  SendFramed(fd, std::string(1, '\x7e'));  // Unassigned request opcode.
  bool closed = false;
  std::string response = ReceiveFramed(fd, &closed);
  ASSERT_FALSE(closed);
  EXPECT_EQ(ErrCodeOf(response), WireError::kNotSupported);
  // Session survives: ping still answers.
  SendFramed(fd, std::string(1, static_cast<char>(Op::kPing)));
  response = ReceiveFramed(fd, &closed);
  ASSERT_FALSE(closed);
  EXPECT_EQ(static_cast<Op>(response[0]), Op::kPong);
  ::close(fd);
}

TEST_P(SessionTest, AdmissionControlAnswersBusy) {
  SessionConfig config;
  config.max_inflight = 0;  // Reject every dispatched op deterministically.
  StartServer(config);
  auto connected = Connect();
  ASSERT_NE(connected, nullptr);
  Client& client = *connected;
  // Inline ops still work under full admission pressure...
  EXPECT_TRUE(client.Ping().ok());
  if (!IsRouter()) {
    ASSERT_TRUE(client.Begin().ok());
    ASSERT_TRUE(client.Write("kv", "v", 1, 42).ok());
    EXPECT_TRUE(client.Commit().IsResourceBusy());
  } else {
    // Everything past PING may block on a shard: the router dispatches it.
    EXPECT_TRUE(client.Begin().IsResourceBusy());
  }
  // ...but dispatched ones get explicit BUSY backpressure.
  query::WireQuery query;
  query.table = "kv";
  query.aggs = {query::Count().As("n")};
  EXPECT_TRUE(client.Query(query, query::Params()).status().IsResourceBusy());
  if (!IsRouter()) {
    EXPECT_EQ(server_->stats().busy_rejections, 2u);
  }
}

TEST_P(SessionTest, IdleSessionsAreReaped) {
  SessionConfig config;
  config.idle_timeout_millis = 200;
  StartServer(config);
  const int fd = RawConnectReady();
  EXPECT_TRUE(WaitForClose(fd));  // No traffic: the front-end hangs up.
  ::close(fd);
}

TEST_P(SessionTest, DroppedConnectionAbortsItsTransaction) {
  StartServer();
  {
    auto connected = Connect();
    ASSERT_NE(connected, nullptr);
    ASSERT_TRUE(connected->Begin().ok());
    ASSERT_TRUE(connected->Write("kv", "v", 2, 99, /*by_key=*/true).ok());
    // Client destructor closes the socket with the transaction open.
  }
  // The engine transaction (the pinned shard transaction, through the
  // router) is aborted, not left to pin the GC watermark.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db_->txn_manager().registry().ActiveCount() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(db_->txn_manager().registry().ActiveCount(), 0u);
  // Read straight from the engine, bypassing the front-end under test.
  auto verify = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(verify.ok());
  auto value = verify.value()->Read("kv", "v", 2, /*by_key=*/true);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 0u) << "uncommitted write leaked";
}

}  // namespace
}  // namespace anker::server
