// Router end-to-end over loopback: two in-process engine shards behind
// a live RouterServer, driven through the ordinary client library. The
// routing contract under test: fan-out DDL reaches every shard,
// single-shard transactions pass through (and count as pass-throughs),
// cross-shard EXEC_TXN commits atomically via 2PC (and counts as a
// twopc_txn, NOT a pass-through), scatter-gather queries
// merge to exactly the union of the shard answers, and a down shard
// degrades to BUSY for writes — or a partial answer when the router
// runs with allow_partial.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "query/serialize.h"
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
constexpr size_t kKeysPerShard = 8;

class RouterE2eTest : public ::testing::Test {
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
    map_text += "table part partition id\n";
    auto parsed = ShardMap::Parse(map_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    map_ = parsed.TakeValue();

    pool_ = std::make_unique<BackendPool>(map_.shards(),
                                          BackendPoolConfig{});
    core_ = std::make_unique<RouterCore>(&map_, pool_.get(),
                                         RouterCoreConfig{});
    router_ = std::make_unique<RouterServer>(core_.get(),
                                             RouterServerConfig{});
    ASSERT_TRUE(router_->Start().ok());
    auto connected = server::Client::Connect("127.0.0.1", router_->port());
    ASSERT_TRUE(connected.ok());
    client_ = connected.TakeValue();

    // Deterministic key split: first kKeysPerShard keys owned by each
    // shard, in routing order.
    for (uint64_t key = 1; shard_keys_[0].size() < kKeysPerShard ||
                           shard_keys_[1].size() < kKeysPerShard;
         ++key) {
      std::vector<uint64_t>& owned = shard_keys_[map_.ShardFor(key)];
      if (owned.size() < kKeysPerShard) owned.push_back(key);
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

  /// Creates + loads the partitioned `part` table the way a real loader
  /// would: directly on each shard, rows split by the routing hash.
  void SeedPartitioned(double value_scale) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      auto direct = DirectClient(shard);
      const std::vector<uint64_t>& keys = shard_keys_[shard];
      ASSERT_TRUE(direct
                      ->CreateTable("part", keys.size(),
                                    {{"id", ValueType::kInt64},
                                     {"val", ValueType::kDouble}})
                      .ok());
      std::vector<uint64_t> ids, vals;
      for (size_t row = 0; row < keys.size(); ++row) {
        ids.push_back(storage::EncodeInt64(static_cast<int64_t>(keys[row])));
        // Dyadic rationals keyed on the (globally unique) key: shard
        // sums are exact and every value is distinct, so the merged
        // result must be byte-identical to a single-node run.
        vals.push_back(storage::EncodeDouble(
            value_scale * static_cast<double>(keys[row]) * 0.25));
      }
      ASSERT_TRUE(direct->Load("part", "id", 0, ids).ok());
      ASSERT_TRUE(direct->Load("part", "val", 0, vals).ok());
      ASSERT_TRUE(direct->BuildIndex("part", "id").ok());
    }
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

TEST_F(RouterE2eTest, FanoutReachesEveryShardAndRefusesPartitionedDdl) {
  // Replicated DDL + load through the router lands on both shards.
  ASSERT_TRUE(client_
                  ->CreateTable("dim", 4,
                                {{"k", ValueType::kInt64},
                                 {"w", ValueType::kDouble}})
                  .ok());
  std::vector<uint64_t> ks, ws;
  for (uint64_t row = 0; row < 4; ++row) {
    ks.push_back(storage::EncodeInt64(static_cast<int64_t>(row)));
    ws.push_back(storage::EncodeDouble(0.5 * static_cast<double>(row + 1)));
  }
  ASSERT_TRUE(client_->Load("dim", "k", 0, ks).ok());
  ASSERT_TRUE(client_->Load("dim", "w", 0, ws).ok());
  ASSERT_TRUE(client_->BuildIndex("dim", "k").ok());

  for (size_t shard = 0; shard < kShards; ++shard) {
    auto direct = DirectClient(shard);
    auto tables = direct->ListTables();
    ASSERT_TRUE(tables.ok());
    ASSERT_EQ(tables.value().size(), 1u) << "shard " << shard;
    EXPECT_EQ(tables.value()[0].name, "dim");
    EXPECT_EQ(tables.value()[0].num_rows, 4u);
    EXPECT_TRUE(tables.value()[0].has_primary_index);
  }

  // Inside a transaction a replicated-table read pins the session to
  // any healthy shard; later reads stay on it.
  ASSERT_TRUE(client_->Begin().ok());
  auto in_txn = client_->Read("dim", "w", 1);
  ASSERT_TRUE(in_txn.ok()) << in_txn.status().ToString();
  EXPECT_EQ(in_txn.value(), storage::EncodeDouble(1.0));
  auto again = client_->Read("dim", "w", 3);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), storage::EncodeDouble(2.0));
  ASSERT_TRUE(client_->Commit().ok());

  // Replicated-only query: served by ONE shard, not scattered.
  query::WireQuery sum;
  sum.table = "dim";
  sum.aggs.push_back(query::Sum(query::Col("w")).As("s"));
  auto result = client_->Query(sum, query::Params());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().Value("s"), 0.5 + 1.0 + 1.5 + 2.0);

  // Partitioned-table DDL/load through the router is the loader's job.
  const Status refused = client_->CreateTable(
      "part", 16, {{"id", ValueType::kInt64}, {"val", ValueType::kDouble}});
  EXPECT_EQ(refused.code(), StatusCode::kNotSupported) << refused.ToString();

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().shard_count, 2u);
  EXPECT_EQ(status.value().healthy_shards, 2u);
  EXPECT_EQ(status.value().shard_map_digest, map_.digest());
  EXPECT_GE(status.value().fanout_ops, 4u);  // create + 2 loads + index.
  EXPECT_GE(status.value().single_shard_queries, 1u);
  EXPECT_EQ(status.value().scatter_queries, 0u);
}

TEST_F(RouterE2eTest, SingleShardTxnsPassThroughAndCrossShardIsRefused) {
  SeedPartitioned(1.0);
  const uint64_t mine = shard_keys_[0][0];
  const uint64_t theirs = shard_keys_[1][0];

  // Auto-commit EXEC_TXN on one shard's keys: the pass-through path.
  std::vector<server::PointWrite> batch;
  for (size_t i = 0; i < 2; ++i) {
    server::PointWrite write;
    write.table = "part";
    write.column = "val";
    write.by_key = true;
    write.key = shard_keys_[0][i];
    write.raw = storage::EncodeDouble(100.0 + static_cast<double>(i));
    batch.push_back(std::move(write));
  }
  ASSERT_TRUE(client_->ExecTxn(batch).ok());

  // The write is visible through the router and on the owning shard.
  auto via_router = client_->Read("part", "val", mine, /*by_key=*/true);
  ASSERT_TRUE(via_router.ok());
  EXPECT_EQ(via_router.value(), storage::EncodeDouble(100.0));
  auto direct = DirectClient(0);
  auto on_shard = direct->Read("part", "val", mine, /*by_key=*/true);
  ASSERT_TRUE(on_shard.ok());
  EXPECT_EQ(on_shard.value(), storage::EncodeDouble(100.0));

  // A batch spanning both shards commits atomically via 2PC; both
  // writes are visible on their owning shards afterwards.
  std::vector<server::PointWrite> spanning = batch;
  spanning[1].key = theirs;
  spanning[0].raw = storage::EncodeDouble(200.0);
  spanning[1].raw = storage::EncodeDouble(201.0);
  const Status cross = client_->ExecTxn(spanning);
  ASSERT_TRUE(cross.ok()) << cross.ToString();
  auto mine_after = client_->Read("part", "val", mine, /*by_key=*/true);
  ASSERT_TRUE(mine_after.ok());
  EXPECT_EQ(mine_after.value(), storage::EncodeDouble(200.0));
  auto theirs_after = DirectClient(1)->Read("part", "val", theirs,
                                            /*by_key=*/true);
  ASSERT_TRUE(theirs_after.ok());
  EXPECT_EQ(theirs_after.value(), storage::EncodeDouble(201.0));

  // Interactive transaction: BEGIN pins lazily, sees its own write,
  // COMMIT forwards to the pinned shard.
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(client_
                  ->Write("part", "val", mine, storage::EncodeDouble(7.25),
                          /*by_key=*/true)
                  .ok());
  auto own = client_->Read("part", "val", mine, /*by_key=*/true);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own.value(), storage::EncodeDouble(7.25));
  // Touching the other shard mid-transaction is refused; the pinned
  // transaction survives the refusal.
  const Status pinned = client_->Write("part", "val", theirs,
                                       storage::EncodeDouble(1.0),
                                       /*by_key=*/true);
  EXPECT_EQ(pinned.code(), StatusCode::kNotSupported);
  // So is one batch spanning both shards; an empty batch writes nothing.
  server::PointWrite other = batch[0];
  other.key = theirs;
  const Status spans = client_->WriteBatch({batch[0], other});
  EXPECT_EQ(spans.code(), StatusCode::kNotSupported);
  ASSERT_TRUE(client_->WriteBatch({}).ok());
  ASSERT_TRUE(client_->Commit().ok());
  auto committed = client_->Read("part", "val", mine, /*by_key=*/true);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), storage::EncodeDouble(7.25));

  // An untouched transaction and an empty batch commit locally.
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(client_->Commit().ok());
  ASSERT_TRUE(client_->ExecTxn({}).ok());

  // Writes outside a transaction are refused (EXEC_TXN is the
  // auto-commit path through the router).
  const Status naked = client_->Write("part", "val", mine,
                                      storage::EncodeDouble(0.0),
                                      /*by_key=*/true);
  EXPECT_EQ(naked.code(), StatusCode::kInvalidArgument);

  // Row-id addressing cannot route on a partitioned table.
  ASSERT_TRUE(client_->Begin().ok());
  const Status row_id = client_->Write("part", "val", 0,
                                       storage::EncodeDouble(0.0),
                                       /*by_key=*/false);
  EXPECT_EQ(row_id.code(), StatusCode::kNotSupported);
  ASSERT_TRUE(client_->Abort().ok());

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  // EXEC_TXN + the committed interactive txn (empty ones stay local).
  // The cross-shard 2PC transaction counts under twopc_txns, not here:
  // the pass-through counter moves exactly once per single-shard txn.
  EXPECT_EQ(status.value().passthrough_txns, 2u);
  EXPECT_EQ(status.value().twopc_txns, 1u);
}

TEST_F(RouterE2eTest, ScatterGatherMatchesUnionOfShards) {
  SeedPartitioned(1.0);

  // Global SUM via the router == the sum of per-shard direct answers
  // (exact by construction: dyadic values).
  query::WireQuery sum;
  sum.table = "part";
  sum.aggs.push_back(query::Sum(query::Col("val")).As("s"));
  sum.aggs.push_back(query::Avg(query::Col("val")).As("a"));
  sum.aggs.push_back(query::Count().As("n"));
  double expect_sum = 0.0;
  uint64_t expect_rows = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto direct = DirectClient(shard);
    query::WireQuery local;
    local.table = "part";
    local.aggs.push_back(query::Sum(query::Col("val")).As("s"));
    local.aggs.push_back(query::Count().As("n"));
    auto part = direct->Query(local, query::Params());
    ASSERT_TRUE(part.ok());
    expect_sum += part.value().Value("s");
    expect_rows += static_cast<uint64_t>(part.value().Value("n"));
  }
  auto merged = client_->Query(sum, query::Params());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().rows.size(), 1u);
  EXPECT_EQ(merged.value().shards_missing, 0u);  // Complete answer.
  EXPECT_EQ(merged.value().Value("s"), expect_sum);
  EXPECT_EQ(merged.value().Value("n"), static_cast<double>(expect_rows));
  EXPECT_EQ(merged.value().Value("a"),
            expect_sum / static_cast<double>(expect_rows));

  // Concat + router-side top-k: group by the partition key, order by
  // the aggregate. Values are key * 0.25 (all distinct), so the global
  // top-3 are the three largest keys across both shards — a set that
  // straddles the shard split, which is exactly what per-shard top-k
  // plus router re-sort must get right.
  std::vector<uint64_t> all_keys;
  for (size_t shard = 0; shard < kShards; ++shard) {
    all_keys.insert(all_keys.end(), shard_keys_[shard].begin(),
                    shard_keys_[shard].end());
  }
  std::sort(all_keys.rbegin(), all_keys.rend());
  query::WireQuery topk;
  topk.table = "part";
  topk.aggs.push_back(query::Sum(query::Col("val")).As("s"));
  topk.group_by.push_back("id");
  topk.order_by.push_back({"s", /*desc=*/true});
  topk.limit = 3;
  auto top = client_->Query(topk, query::Params());
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top.value().rows.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top.value().rows[i].values[0],
              static_cast<double>(all_keys[i]) * 0.25)
        << "rank " << i;
  }

  // Genuinely cross-shard: recoverable refusal, the session survives.
  query::WireQuery distinct;
  distinct.table = "part";
  distinct.aggs.push_back(
      query::CountDistinct(query::Col("val")).As("d"));
  auto refused = client_->Query(distinct, query::Params());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotSupported);
  EXPECT_TRUE(client_->Ping().ok());

  auto status = client_->RouterStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status.value().scatter_queries, 2u);
}

TEST_F(RouterE2eTest, DownShardMeansBusyWritesAndPartialQueriesOptIn) {
  SeedPartitioned(1.0);

  // Compute the live shard's expected partial before the kill.
  double shard0_sum = 0.0;
  {
    auto direct = DirectClient(0);
    query::WireQuery local;
    local.table = "part";
    local.aggs.push_back(query::Sum(query::Col("val")).As("s"));
    auto part = direct->Query(local, query::Params());
    ASSERT_TRUE(part.ok());
    shard0_sum = part.value().Value("s");
  }

  // A second router over the SAME pool, with allow_partial on.
  RouterCoreConfig partial_config;
  partial_config.allow_partial = true;
  RouterCore partial_core(&map_, pool_.get(), partial_config);
  RouterServer partial_router(&partial_core, RouterServerConfig{});
  ASSERT_TRUE(partial_router.Start().ok());
  auto partial_connected =
      server::Client::Connect("127.0.0.1", partial_router.port());
  ASSERT_TRUE(partial_connected.ok());
  auto partial_client = partial_connected.TakeValue();

  servers_[1]->Shutdown();
  servers_[1].reset();

  // Writes that must reach the dead shard: every attempt fails; once
  // the stale pooled connections drain, the failure is BUSY (the pool's
  // reconnect backoff). A fresh client retries and moves on.
  server::PointWrite write;
  write.table = "part";
  write.column = "val";
  write.by_key = true;
  write.key = shard_keys_[1][0];
  write.raw = storage::EncodeDouble(9.0);
  bool saw_busy = false;
  for (int attempt = 0; attempt < 12 && !saw_busy; ++attempt) {
    const Status s = client_->ExecTxn({write});
    ASSERT_FALSE(s.ok());
    saw_busy = s.IsResourceBusy();
  }
  EXPECT_TRUE(saw_busy);

  // The live shard's keys still write through the same router.
  write.key = shard_keys_[0][0];
  write.raw = storage::EncodeDouble(11.0);
  ASSERT_TRUE(client_->ExecTxn({write}).ok());

  // Strict router: scatter queries refuse while a shard is missing.
  query::WireQuery sum;
  sum.table = "part";
  sum.aggs.push_back(query::Sum(query::Col("val")).As("s"));
  bool query_busy = false;
  for (int attempt = 0; attempt < 12 && !query_busy; ++attempt) {
    auto blocked = client_->Query(sum, query::Params());
    ASSERT_FALSE(blocked.ok());
    query_busy = blocked.status().IsResourceBusy();
  }
  EXPECT_TRUE(query_busy);

  // allow_partial router: answers from the reachable subset. The write
  // above bumped shard 0's sum by (11.0 - original val of that key);
  // re-read the live shard for the fresh expectation.
  {
    auto direct = DirectClient(0);
    query::WireQuery local;
    local.table = "part";
    local.aggs.push_back(query::Sum(query::Col("val")).As("s"));
    auto part = direct->Query(local, query::Params());
    ASSERT_TRUE(part.ok());
    shard0_sum = part.value().Value("s");
  }
  query::QueryResult partial_result;
  bool partial_ok = false;
  for (int attempt = 0; attempt < 12 && !partial_ok; ++attempt) {
    auto answered = partial_client->Query(sum, query::Params());
    if (!answered.ok()) {
      // Stale pooled connection to the dead shard can poison the
      // probing client mid-stream; reconnect and retry.
      auto reconnected =
          server::Client::Connect("127.0.0.1", partial_router.port());
      ASSERT_TRUE(reconnected.ok());
      partial_client = reconnected.TakeValue();
      continue;
    }
    partial_result = answered.TakeValue();
    partial_ok = true;
  }
  ASSERT_TRUE(partial_ok);
  EXPECT_EQ(partial_result.Value("s"), shard0_sum);
  // The degraded result is wire-marked: one shard's rows are absent.
  EXPECT_EQ(partial_result.shards_missing, 1u);

  partial_client.reset();
  partial_router.Shutdown();
}

TEST_F(RouterE2eTest, OperationsSurfaceIsRefusedByTheRouter) {
  // Per-node operator actions are meaningless through a router.
  EXPECT_EQ(client_->DecommissionReplica("replica-x").code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(client_->CheckpointNow().code(), StatusCode::kNotSupported);
  EXPECT_EQ(client_->Promote().code(), StatusCode::kNotSupported);
  ASSERT_FALSE(client_->Digest().ok());
  // ...while a plain engine server refuses ROUTER_STATUS symmetrically.
  auto direct = DirectClient(0);
  auto probe = direct->RouterStatus();
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace anker::shard
