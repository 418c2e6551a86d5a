// Cross-shard 2PC end-to-end over loopback: two in-process engine
// shards behind a live RouterServer. Beyond the happy path (covered in
// router_e2e_test.cc), this drives the protocol's failure surface by
// playing a dead coordinator with direct shard connections: intents
// blocking readers, idempotent duplicate COMMIT_PREPARED, an abort at
// the primary fencing a zombie commit, committed-but-unfanned intents
// healed lazily by a router-side reader, and an undecided transaction
// escalated to a durable abort when its coordinator never returns.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"
#include "storage/value.h"

namespace anker::shard {
namespace {

using storage::ValueType;

constexpr size_t kShards = 2;
constexpr size_t kKeysPerShard = 4;

class Router2pcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string map_text = "version 1\n";
    for (size_t i = 0; i < kShards; ++i) {
      engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
          txn::ProcessingMode::kHeterogeneousSerializable);
      config.worker_threads = 2;
      dbs_[i] = std::make_unique<engine::Database>(config);
      dbs_[i]->Start();
      servers_[i] = std::make_unique<server::Server>(dbs_[i].get(),
                                                     server::ServerConfig{});
      ASSERT_TRUE(servers_[i]->Start().ok());
      map_text += "shard 127.0.0.1:" + std::to_string(servers_[i]->port()) +
                  "\n";
    }
    map_text += "table acct partition id\n";
    auto parsed = ShardMap::Parse(map_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    map_ = parsed.TakeValue();

    pool_ = std::make_unique<BackendPool>(map_.shards(),
                                          BackendPoolConfig{});
    RouterCoreConfig core_config;
    // Short escalation fuse: the undecided-coordinator test should not
    // spin for long before declaring the router dead.
    core_config.intent_resolve_attempts = 3;
    core_config.busy_backoff_initial_millis = 1;
    core_config.busy_backoff_max_millis = 5;
    core_ = std::make_unique<RouterCore>(&map_, pool_.get(), core_config);
    router_ = std::make_unique<RouterServer>(core_.get(),
                                             RouterServerConfig{});
    ASSERT_TRUE(router_->Start().ok());
    auto connected = server::Client::Connect("127.0.0.1", router_->port());
    ASSERT_TRUE(connected.ok());
    client_ = connected.TakeValue();

    for (uint64_t key = 1; shard_keys_[0].size() < kKeysPerShard ||
                           shard_keys_[1].size() < kKeysPerShard;
         ++key) {
      std::vector<uint64_t>& owned = shard_keys_[map_.ShardFor(key)];
      if (owned.size() < kKeysPerShard) owned.push_back(key);
    }

    // Per-shard seed: every key starts with balance 1000.
    for (size_t shard = 0; shard < kShards; ++shard) {
      auto direct = DirectClient(shard);
      const std::vector<uint64_t>& keys = shard_keys_[shard];
      ASSERT_TRUE(direct
                      ->CreateTable("acct", keys.size(),
                                    {{"id", ValueType::kInt64},
                                     {"balance", ValueType::kInt64}})
                      .ok());
      std::vector<uint64_t> ids, balances;
      for (uint64_t key : keys) {
        ids.push_back(storage::EncodeInt64(static_cast<int64_t>(key)));
        balances.push_back(storage::EncodeInt64(1000));
      }
      ASSERT_TRUE(direct->Load("acct", "id", 0, ids).ok());
      ASSERT_TRUE(direct->Load("acct", "balance", 0, balances).ok());
      ASSERT_TRUE(direct->BuildIndex("acct", "id").ok());
    }
  }

  void TearDown() override {
    client_.reset();
    if (router_) router_->Shutdown();
    for (size_t i = 0; i < kShards; ++i) {
      if (servers_[i]) servers_[i]->Shutdown();
      if (dbs_[i]) dbs_[i]->Stop();
    }
  }

  std::unique_ptr<server::Client> DirectClient(size_t shard) {
    auto connected =
        server::Client::Connect("127.0.0.1", servers_[shard]->port());
    EXPECT_TRUE(connected.ok());
    return connected.TakeValue();
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

  std::unique_ptr<engine::Database> dbs_[kShards];
  std::unique_ptr<server::Server> servers_[kShards];
  ShardMap map_;
  std::unique_ptr<BackendPool> pool_;
  std::unique_ptr<RouterCore> core_;
  std::unique_ptr<RouterServer> router_;
  std::unique_ptr<server::Client> client_;
  std::vector<uint64_t> shard_keys_[kShards];
};

TEST_F(Router2pcTest, CrossShardTransferConservesTotalAndCounts) {
  const uint64_t from = shard_keys_[0][0];
  const uint64_t to = shard_keys_[1][0];
  ASSERT_TRUE(
      client_->ExecTxn({BalanceWrite(from, 900), BalanceWrite(to, 1100)})
          .ok());

  auto from_val = client_->Read("acct", "balance", from, /*by_key=*/true);
  auto to_val = client_->Read("acct", "balance", to, /*by_key=*/true);
  ASSERT_TRUE(from_val.ok() && to_val.ok());
  EXPECT_EQ(from_val.value(), storage::EncodeInt64(900));
  EXPECT_EQ(to_val.value(), storage::EncodeInt64(1100));

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().twopc_txns, 1u);
  EXPECT_EQ(status.value().passthrough_txns, 0u);
}

TEST_F(Router2pcTest, ReaderBlockedByIntentUntilCommitAndDuplicateIsIdempotent) {
  const uint64_t key = shard_keys_[0][0];
  auto direct = DirectClient(0);

  // A snapshot taken BEFORE the prepare reads around the intent: the
  // old version is the correct answer at that timestamp.
  auto old_reader = DirectClient(0);
  ASSERT_TRUE(old_reader->Begin().ok());
  auto before = old_reader->Read("acct", "balance", key, /*by_key=*/true);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value(), storage::EncodeInt64(1000));

  uint64_t prepare_ts = 0;
  ASSERT_TRUE(direct
                  ->PrepareTxn(/*gtid=*/777, /*primary_shard=*/0,
                               {BalanceWrite(key, 1), BalanceWrite(
                                                          shard_keys_[0][1],
                                                          1999)},
                               &prepare_ts)
                  .ok());
  ASSERT_GT(prepare_ts, 0u);

  // A fresh reader's snapshot is at/above the prepare stamp: blocked,
  // and the bounce names the transaction and its primary shard.
  server::IntentPendingMsg intent;
  auto blocked = direct->Read("acct", "balance", key, /*by_key=*/true,
                              &intent);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceBusy);
  EXPECT_EQ(intent.gtid, 777u);
  EXPECT_EQ(intent.primary_shard, 0u);

  // An untouched key on the same shard reads fine.
  auto other = direct->Read("acct", "balance", shard_keys_[0][2],
                            /*by_key=*/true);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value(), storage::EncodeInt64(1000));

  // The pre-prepare snapshot still reads the old version, unblocked.
  auto still_old = old_reader->Read("acct", "balance", key, /*by_key=*/true);
  ASSERT_TRUE(still_old.ok());
  EXPECT_EQ(still_old.value(), storage::EncodeInt64(1000));
  ASSERT_TRUE(old_reader->Commit().ok());

  // Phase two: the intent materializes, readers unblock.
  uint64_t lsn = 1;
  ASSERT_TRUE(direct->CommitPrepared(777, prepare_ts + 1, &lsn).ok());
  auto after = direct->Read("acct", "balance", key, /*by_key=*/true);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), storage::EncodeInt64(1));

  // Duplicate COMMIT_PREPARED is an idempotent OK with LSN 0 (no new
  // WAL record; durability is off in this fixture anyway).
  uint64_t dup_lsn = 99;
  ASSERT_TRUE(direct->CommitPrepared(777, prepare_ts + 1, &dup_lsn).ok());
  EXPECT_EQ(dup_lsn, 0u);
  auto unchanged = direct->Read("acct", "balance", key, /*by_key=*/true);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value(), storage::EncodeInt64(1));

  // Aborting a committed transaction is refused: commits are final.
  const Status late_abort = direct->AbortPrepared(777);
  EXPECT_EQ(late_abort.code(), StatusCode::kInvalidArgument);
}

TEST_F(Router2pcTest, PrimaryAbortFencesZombieCommitAndReaderHealsSecondary) {
  const uint64_t on_primary = shard_keys_[0][0];
  const uint64_t on_secondary = shard_keys_[1][0];
  auto primary = DirectClient(0);
  auto secondary = DirectClient(1);

  // A coordinator staged both halves of a transfer, then "decided" to
  // abort at the primary (e.g. a participant refused) and died before
  // telling the secondary.
  ASSERT_TRUE(primary
                  ->PrepareTxn(555, /*primary_shard=*/0,
                               {BalanceWrite(on_primary, 0)})
                  .ok());
  ASSERT_TRUE(secondary
                  ->PrepareTxn(555, /*primary_shard=*/0,
                               {BalanceWrite(on_secondary, 2000)})
                  .ok());
  ASSERT_TRUE(primary->AbortPrepared(555).ok());

  // A zombie COMMIT_PREPARED arriving after the abort is refused — the
  // outcome ledger is authoritative.
  const Status zombie = primary->CommitPrepared(555, 1ull << 40);
  ASSERT_FALSE(zombie.ok());
  EXPECT_EQ(zombie.code(), StatusCode::kAborted);

  // Reading the secondary's key through the router finds the orphaned
  // intent, learns "aborted" from the primary, applies it, and serves
  // the pre-transaction value.
  auto healed = client_->Read("acct", "balance", on_secondary,
                              /*by_key=*/true);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), storage::EncodeInt64(1000));

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status.value().intent_resolutions, 1u);

  // The secondary no longer carries the intent.
  auto direct_read = secondary->Read("acct", "balance", on_secondary,
                                     /*by_key=*/true);
  ASSERT_TRUE(direct_read.ok());
  EXPECT_EQ(direct_read.value(), storage::EncodeInt64(1000));
}

TEST_F(Router2pcTest, CommittedIntentOnSecondaryResolvedLazilyByReader) {
  const uint64_t on_primary = shard_keys_[0][0];
  const uint64_t on_secondary = shard_keys_[1][0];
  auto primary = DirectClient(0);
  auto secondary = DirectClient(1);

  // The coordinator committed at the primary (the commit point) and
  // died before fanning out to the secondary.
  uint64_t prepare_a = 0, prepare_b = 0;
  ASSERT_TRUE(primary
                  ->PrepareTxn(666, /*primary_shard=*/0,
                               {BalanceWrite(on_primary, 800)}, &prepare_a)
                  .ok());
  ASSERT_TRUE(secondary
                  ->PrepareTxn(666, /*primary_shard=*/0,
                               {BalanceWrite(on_secondary, 1200)},
                               &prepare_b)
                  .ok());
  const uint64_t commit_ts = std::max(prepare_a, prepare_b) + 1;
  ASSERT_TRUE(primary->CommitPrepared(666, commit_ts).ok());

  // The transaction IS committed: a router-side reader must see the
  // new value on BOTH shards, healing the secondary on the way.
  auto secondary_val = client_->Read("acct", "balance", on_secondary,
                                     /*by_key=*/true);
  ASSERT_TRUE(secondary_val.ok()) << secondary_val.status().ToString();
  EXPECT_EQ(secondary_val.value(), storage::EncodeInt64(1200));
  auto primary_val = client_->Read("acct", "balance", on_primary,
                                   /*by_key=*/true);
  ASSERT_TRUE(primary_val.ok());
  EXPECT_EQ(primary_val.value(), storage::EncodeInt64(800));

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status.value().intent_resolutions, 1u);
}

TEST_F(Router2pcTest, UndecidedIntentEscalatesToDurableAbort) {
  const uint64_t on_secondary = shard_keys_[1][0];
  auto primary = DirectClient(0);
  auto secondary = DirectClient(1);

  // Both halves prepared, no decision anywhere: the coordinator died
  // between phases. The primary keeps answering "pending" until a
  // reader escalates.
  ASSERT_TRUE(primary
                  ->PrepareTxn(888, /*primary_shard=*/0,
                               {BalanceWrite(shard_keys_[0][0], 0)})
                  .ok());
  ASSERT_TRUE(secondary
                  ->PrepareTxn(888, /*primary_shard=*/0,
                               {BalanceWrite(on_secondary, 9999)})
                  .ok());

  // The router retries resolution, then presumes the coordinator dead
  // and escalates to a durable abort at the primary; the read then
  // serves the pre-transaction value.
  auto resolved = client_->Read("acct", "balance", on_secondary,
                                /*by_key=*/true);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved.value(), storage::EncodeInt64(1000));

  // The escalation fenced the gtid: a zombie coordinator waking up and
  // committing is refused at the primary.
  const Status zombie = primary->CommitPrepared(888, 1ull << 40);
  ASSERT_FALSE(zombie.ok());
  EXPECT_EQ(zombie.code(), StatusCode::kAborted);

  // And the primary's own intent unwound too (its slot reads old).
  auto primary_val = primary->Read("acct", "balance", shard_keys_[0][0],
                                   /*by_key=*/true);
  ASSERT_TRUE(primary_val.ok());
  EXPECT_EQ(primary_val.value(), storage::EncodeInt64(1000));
}

TEST_F(Router2pcTest, SingleShardConflictWithIntentSurfacesBusyThenClears) {
  const uint64_t key = shard_keys_[0][0];
  auto direct = DirectClient(0);
  uint64_t prepare_ts = 0;
  ASSERT_TRUE(direct
                  ->PrepareTxn(444, /*primary_shard=*/0,
                               {BalanceWrite(key, 1)}, &prepare_ts)
                  .ok());

  // A normal single-shard EXEC_TXN against the intent-locked slot is
  // refused with a recoverable ResourceBusy (the commit fails before
  // applying anything), which travels through the router untouched.
  const Status conflicted = client_->ExecTxn({BalanceWrite(key, 5)});
  ASSERT_FALSE(conflicted.ok());
  EXPECT_EQ(conflicted.code(), StatusCode::kResourceBusy);

  // Once the intent resolves, the same transaction goes through.
  ASSERT_TRUE(direct->CommitPrepared(444, prepare_ts + 1).ok());
  ASSERT_TRUE(client_->ExecTxn({BalanceWrite(key, 5)}).ok());
  auto value = client_->Read("acct", "balance", key, /*by_key=*/true);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), storage::EncodeInt64(5));
}

TEST_F(Router2pcTest, PrepareFailureUnwindsStagedIntents) {
  const uint64_t on_primary = shard_keys_[0][1];
  const uint64_t on_secondary = shard_keys_[1][1];
  auto primary = DirectClient(0);
  auto secondary = DirectClient(1);

  // A foreign transaction holds an intent on the shard-1 key.
  ASSERT_TRUE(secondary
                  ->PrepareTxn(999, /*primary_shard=*/1,
                               {BalanceWrite(on_secondary, 1)})
                  .ok());

  // Warm the router's pool with a shard-1 connection, so the frames
  // shard 1 receives below are the transfer's requests and no HELLO.
  ASSERT_TRUE(client_->Read("acct", "balance", shard_keys_[1][2],
                            /*by_key=*/true)
                  .ok());
  const uint64_t frames_before = servers_[1]->stats().frames_received;

  // The router prepares shard 0 first (lowest index), then shard 1
  // refuses: the transfer fails and the router must abort the intent it
  // already staged on shard 0.
  const Status failed = client_->ExecTxn(
      {BalanceWrite(on_primary, 900), BalanceWrite(on_secondary, 1100)});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceBusy) << failed.ToString();
  // An intent conflict is an answer, not admission BUSY: the PREPARE is
  // sent once, followed by the unwinding ABORT_PREPARED.
  EXPECT_EQ(servers_[1]->stats().frames_received - frames_before, 2u);

  // A direct read never resolves intents, so it succeeds only if the
  // unwind already removed shard 0's intent: the balance is unchanged.
  auto unchanged = primary->Read("acct", "balance", on_primary,
                                 /*by_key=*/true);
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_EQ(unchanged.value(), storage::EncodeInt64(1000));

  // The key is free at once for a single-shard transaction.
  ASSERT_TRUE(client_->ExecTxn({BalanceWrite(on_primary, 950)}).ok());
  auto written = primary->Read("acct", "balance", on_primary,
                               /*by_key=*/true);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), storage::EncodeInt64(950));

  // Shard 1 kept nothing of the failed transfer either.
  ASSERT_TRUE(secondary->AbortPrepared(999).ok());
  auto secondary_val = secondary->Read("acct", "balance", on_secondary,
                                       /*by_key=*/true);
  ASSERT_TRUE(secondary_val.ok());
  EXPECT_EQ(secondary_val.value(), storage::EncodeInt64(1000));
}

}  // namespace
}  // namespace anker::shard
