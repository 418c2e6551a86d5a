// The router's backend round trip over loopback: in-process engine
// shards behind a live RouterServer. Covers the one BUSY rule (only the
// admission BUSY opcode is re-sent, exactly busy_retry_budget times, on
// every kind of router->shard request), the 2PC commit point under a
// sync-ack "commit uncertain" answer (the participants must not be
// aborted when the primary may have committed), and a pinned
// connection lost mid-transaction.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"
#include "storage/value.h"
#include "wal/io_util.h"

namespace anker::shard {
namespace {

using storage::ValueType;

constexpr size_t kShards = 2;
constexpr size_t kKeysPerShard = 2;

class RouterBackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    client_.reset();
    if (router_) router_->Shutdown();
    for (size_t i = 0; i < kShards; ++i) {
      if (servers_[i]) servers_[i]->Shutdown();
      if (dbs_[i]) dbs_[i]->Stop();
    }
    if (!dir_.empty()) wal::RemoveDirRecursive(dir_);
  }

  /// Starts the shards, seeds `acct(id, balance)` (every balance 1000,
  /// primary index on id) through a default server, then serves them
  /// with `config`. `durable` puts each shard on a group-commit WAL.
  void StartShards(const server::ServerConfig& config, bool durable) {
    for (uint64_t key = 1; shard_keys_[0].size() < kKeysPerShard ||
                           shard_keys_[1].size() < kKeysPerShard;
         ++key) {
      std::vector<uint64_t>& owned = shard_keys_[ShardMap::Mix64(key) %
                                                 kShards];
      if (owned.size() < kKeysPerShard) owned.push_back(key);
    }
    if (durable) {
      char tmpl[] = "/tmp/anker_router_backend_XXXXXX";
      ASSERT_NE(::mkdtemp(tmpl), nullptr);
      dir_ = tmpl;
    }
    std::string map_text = "version 1\n";
    for (size_t i = 0; i < kShards; ++i) {
      engine::DatabaseConfig db_config = engine::DatabaseConfig::ForMode(
          txn::ProcessingMode::kHeterogeneousSerializable);
      db_config.worker_threads = 2;
      if (durable) {
        db_config.durability = wal::DurabilityMode::kGroupCommit;
        db_config.data_dir = dir_ + "/shard" + std::to_string(i);
        auto opened = engine::Database::Open(db_config);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        dbs_[i] = opened.TakeValue();
      } else {
        dbs_[i] = std::make_unique<engine::Database>(db_config);
      }
      dbs_[i]->Start();
      Seed(i);
      servers_[i] = std::make_unique<server::Server>(dbs_[i].get(), config);
      ASSERT_TRUE(servers_[i]->Start().ok());
      map_text += "shard 127.0.0.1:" + std::to_string(servers_[i]->port()) +
                  "\n";
    }
    map_text += "table acct partition id\n";
    auto parsed = ShardMap::Parse(map_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    map_ = parsed.TakeValue();
  }

  void StartRouter(const RouterCoreConfig& core_config) {
    pool_ = std::make_unique<BackendPool>(map_.shards(),
                                          BackendPoolConfig{});
    core_ = std::make_unique<RouterCore>(&map_, pool_.get(), core_config);
    router_ = std::make_unique<RouterServer>(core_.get(),
                                             RouterServerConfig{});
    ASSERT_TRUE(router_->Start().ok());
    auto connected = server::Client::Connect("127.0.0.1", router_->port());
    ASSERT_TRUE(connected.ok());
    client_ = connected.TakeValue();
  }

  void Seed(size_t shard) {
    server::Server seeder(dbs_[shard].get(), server::ServerConfig{});
    ASSERT_TRUE(seeder.Start().ok());
    auto connected = server::Client::Connect("127.0.0.1", seeder.port());
    ASSERT_TRUE(connected.ok());
    server::Client& direct = *connected.value();
    const std::vector<uint64_t>& keys = shard_keys_[shard];
    ASSERT_TRUE(direct
                    .CreateTable("acct", keys.size(),
                                 {{"id", ValueType::kInt64},
                                  {"balance", ValueType::kInt64}})
                    .ok());
    std::vector<uint64_t> ids, balances;
    for (uint64_t key : keys) {
      ids.push_back(storage::EncodeInt64(static_cast<int64_t>(key)));
      balances.push_back(storage::EncodeInt64(1000));
    }
    ASSERT_TRUE(direct.Load("acct", "id", 0, ids).ok());
    ASSERT_TRUE(direct.Load("acct", "balance", 0, balances).ok());
    ASSERT_TRUE(direct.BuildIndex("acct", "id").ok());
    connected.value().reset();
    seeder.Shutdown();
  }

  std::unique_ptr<server::Client> DirectClient(size_t shard) {
    auto connected =
        server::Client::Connect("127.0.0.1", servers_[shard]->port());
    EXPECT_TRUE(connected.ok());
    return connected.TakeValue();
  }

  uint64_t BusyRejections(size_t shard) const {
    return servers_[shard]->stats().busy_rejections;
  }

  static server::PointWrite BalanceWrite(uint64_t key, int64_t balance) {
    server::PointWrite write;
    write.table = "acct";
    write.column = "balance";
    write.by_key = true;
    write.key = key;
    write.raw = storage::EncodeInt64(balance);
    return write;
  }

  std::string dir_;
  std::unique_ptr<engine::Database> dbs_[kShards];
  std::unique_ptr<server::Server> servers_[kShards];
  ShardMap map_;
  std::unique_ptr<BackendPool> pool_;
  std::unique_ptr<RouterCore> core_;
  std::unique_ptr<RouterServer> router_;
  std::unique_ptr<server::Client> client_;
  std::vector<uint64_t> shard_keys_[kShards];
};

/// Router busy_retry_budget under test.
class RouterBusyPolicyTest : public RouterBackendTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(RouterBusyPolicyTest, EveryRequestCostsBudgetPlusOneRejections) {
  const int budget = GetParam();
  const uint64_t per_request = static_cast<uint64_t>(budget) + 1;
  // max_inflight = 0: admission answers every dispatched op with BUSY;
  // inline ops (BEGIN, WRITE, READ, ABORT, PING) still run.
  server::ServerConfig busy;
  busy.max_inflight = 0;
  StartShards(busy, /*durable=*/false);
  RouterCoreConfig core_config;
  core_config.busy_retry_budget = budget;
  core_config.busy_backoff_initial_millis = 1;
  core_config.busy_backoff_max_millis = 2;
  StartRouter(core_config);
  const uint64_t on_0 = shard_keys_[0][0];
  const uint64_t on_1 = shard_keys_[1][0];

  // Pass-through EXEC_TXN: one request to shard 0.
  uint64_t before_0 = BusyRejections(0);
  uint64_t before_1 = BusyRejections(1);
  const Status exec = client_->ExecTxn({BalanceWrite(on_0, 1)});
  EXPECT_EQ(exec.code(), StatusCode::kResourceBusy) << exec.ToString();
  EXPECT_EQ(BusyRejections(0) - before_0, per_request);
  EXPECT_EQ(BusyRejections(1) - before_1, 0u);

  // In-transaction COMMIT: BEGIN and WRITE are inline, COMMIT is not.
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(client_
                  ->Write("acct", "balance", on_0, storage::EncodeInt64(2),
                          /*by_key=*/true)
                  .ok());
  before_0 = BusyRejections(0);
  const Status commit = client_->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kResourceBusy) << commit.ToString();
  EXPECT_EQ(BusyRejections(0) - before_0, per_request);
  // BUSY ran nothing: the transaction is still open on its shard.
  ASSERT_TRUE(client_->Abort().ok());

  // Cross-shard EXEC_TXN: the PREPARE to shard 0 (the lowest index) is
  // refused, and the ABORT_PREPARED fan-out to both participants
  // unwinds it — three requests, each paying the same budget.
  before_0 = BusyRejections(0);
  before_1 = BusyRejections(1);
  const Status cross =
      client_->ExecTxn({BalanceWrite(on_0, 900), BalanceWrite(on_1, 1100)});
  EXPECT_EQ(cross.code(), StatusCode::kResourceBusy) << cross.ToString();
  EXPECT_EQ(BusyRejections(0) - before_0, 2 * per_request);
  EXPECT_EQ(BusyRejections(1) - before_1, per_request);

  // passthrough_txns counts EXEC_TXNs forwarded on the pass-through
  // path, answered or refused; the BUSY COMMIT left its transaction
  // open, so the interactive one never counted.
  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().passthrough_txns, 1u);
  EXPECT_EQ(status.value().twopc_txns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, RouterBusyPolicyTest,
                         ::testing::Values(0, 2));

/// Router busy_retry_budget under test.
class RouterCommitPointTest : public RouterBackendTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(RouterCommitPointTest, UncertainPrimaryCommitIsNotUnwound) {
  // Group-commit shards whose sync-ack gate gives up after 200 ms.
  server::ServerConfig config;
  config.repl_ack_wait_millis = 200;
  StartShards(config, /*durable=*/true);
  RouterCoreConfig core_config;
  core_config.busy_retry_budget = GetParam();
  core_config.busy_backoff_initial_millis = 1;
  core_config.busy_backoff_max_millis = 2;
  StartRouter(core_config);
  const uint64_t from = shard_keys_[0][0];
  const uint64_t to = shard_keys_[1][0];

  // A sync subscriber on shard 0 (the primary) that has acked the
  // PREPARE's record — the next one appended — and nothing after it.
  wal::LogWriter* log = dbs_[0]->log_writer();
  ASSERT_NE(log, nullptr);
  const uint64_t base_lsn = log->appended_lsn();
  auto subscriber = DirectClient(0);
  server::ReplicateHelloMsg hello;
  hello.replica_id = "probe";
  hello.start_lsn = base_lsn + 1;
  hello.sync_ack = true;
  std::string payload;
  server::EncodeReplicateHello(hello, &payload);
  ASSERT_TRUE(subscriber->SendOnly(payload).ok());
  auto probe = DirectClient(0);
  bool subscribed = false;
  for (int i = 0; i < 2000 && !subscribed; ++i) {
    auto replica = probe->ReplicaStatus();
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    subscribed = replica.value().stream_connected;
    if (!subscribed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(subscribed);
  server::ReplicaStatusMsg ack;
  ack.durable_lsn = base_lsn + 1;
  ack.applied_lsn = base_lsn + 1;
  payload.clear();
  server::EncodeReplicaStatus(ack, &payload);
  ASSERT_TRUE(subscriber->SendOnly(payload).ok());

  // Phase one passes the gate; the primary's COMMIT_PREPARED record is
  // never acked, so it answers "commit uncertain" — yet that record is
  // durable and applied.
  const Status transfer =
      client_->ExecTxn({BalanceWrite(from, 900), BalanceWrite(to, 1100)});

  // An unconfirmed commit point is reported as "outcome unknown", never
  // as a refusal the client could take for "nothing happened".
  EXPECT_EQ(transfer.code(), StatusCode::kIoError) << transfer.ToString();
  // The primary committed, so the transfer happened on both shards:
  // reading shard 1 through the router resolves its intent via shard 0.
  auto from_val = client_->Read("acct", "balance", from, /*by_key=*/true);
  auto to_val = client_->Read("acct", "balance", to, /*by_key=*/true);
  ASSERT_TRUE(from_val.ok()) << from_val.status().ToString();
  ASSERT_TRUE(to_val.ok()) << to_val.status().ToString();
  EXPECT_EQ(from_val.value(), storage::EncodeInt64(900));
  EXPECT_EQ(to_val.value(), storage::EncodeInt64(1100));
}

INSTANTIATE_TEST_SUITE_P(Budgets, RouterCommitPointTest,
                         ::testing::Values(0, 4));

TEST_F(RouterBackendTest, LostPinnedConnectionEndsTheTransaction) {
  StartShards(server::ServerConfig{}, /*durable=*/false);
  StartRouter(RouterCoreConfig{});
  const uint64_t on_1 = shard_keys_[1][0];

  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(client_
                  ->Write("acct", "balance", on_1, storage::EncodeInt64(5),
                          /*by_key=*/true)
                  .ok());
  // The pinned shard goes away: the next op finds the connection dead,
  // the shard has aborted the transaction, and the session leaves it.
  servers_[1]->Shutdown();
  const Status lost = client_->Write("acct", "balance", on_1,
                                     storage::EncodeInt64(6),
                                     /*by_key=*/true);
  EXPECT_EQ(lost.code(), StatusCode::kResourceBusy) << lost.ToString();
  const Status commit = client_->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kInvalidArgument) << commit.ToString();
}

}  // namespace
}  // namespace anker::shard
