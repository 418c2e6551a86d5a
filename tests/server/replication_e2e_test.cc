// Full replication loop over real sockets: a primary server, a replica
// bootstrapped from its checkpoint via FETCH_CHECKPOINT, WAL shipping
// with read-your-writes (COMMIT_OK token -> WAIT_LSN), the read-only
// gate, simulated partitions through the fault injector, controlled
// promotion, and the client's opt-in BUSY retry budget.
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "engine/database.h"
#include "server/client.h"
#include "server/replication.h"
#include "server/server.h"
#include "storage/value.h"
#include "wal/checkpoint.h"
#include "wal/io_util.h"

namespace anker::server {
namespace {

class ReplicationE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/anker_repl_e2e_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    FaultInjector::Instance().ArmForTest("", 0);
    replica_server_.reset();
    controller_.reset();
    if (replica_db_ != nullptr) replica_db_->Stop();
    replica_db_.reset();
    primary_server_.reset();
    if (primary_db_ != nullptr) primary_db_->Stop();
    primary_db_.reset();
    wal::RemoveDirRecursive(dir_);
  }

  engine::DatabaseConfig DbConfig(const std::string& subdir) const {
    engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(
        txn::ProcessingMode::kHeterogeneousSerializable);
    config.durability = wal::DurabilityMode::kGroupCommit;
    config.data_dir = dir_ + "/" + subdir;
    config.wal_segment_bytes = 1 << 14;  // Exercise rotation under load.
    config.worker_threads = 6;
    return config;
  }

  void StartPrimary(size_t max_inflight = 64) {
    auto opened = engine::Database::Open(DbConfig("primary"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    primary_db_ = opened.TakeValue();
    primary_db_->Start();
    ServerConfig config;
    config.max_inflight = max_inflight;
    config.repl_heartbeat_millis = 50;  // Tight loop for test speed.
    config.repl_ack_wait_millis = 300;
    primary_server_ = std::make_unique<Server>(primary_db_.get(), config);
    ASSERT_TRUE(primary_server_->Start().ok());
  }

  ReplicaConfig MakeReplicaConfig(bool sync_ack = false) const {
    ReplicaConfig config;
    config.primary_port = primary_server_->port();
    config.replica_id = "r1";
    config.sync_ack = sync_ack;
    config.stream_timeout_millis = 2000;
    config.ack_interval_millis = 20;
    config.backoff_initial_millis = 30;
    config.backoff_max_millis = 300;
    return config;
  }

  /// Bootstrap + open + stream + serve: the anker_serve replica path.
  void StartReplica(bool sync_ack = false) {
    const ReplicaConfig config = MakeReplicaConfig(sync_ack);
    ASSERT_TRUE(
        ReplicaController::Bootstrap(config, dir_ + "/replica").ok());
    auto opened = engine::Database::Open(DbConfig("replica"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    replica_db_ = opened.TakeValue();
    replica_db_->Start();
    controller_ =
        std::make_unique<ReplicaController>(replica_db_.get(), config);
    controller_->Start();
    ServerConfig server_config;
    server_config.replica = controller_.get();
    replica_server_ =
        std::make_unique<Server>(replica_db_.get(), server_config);
    ASSERT_TRUE(replica_server_->Start().ok());
  }

  std::unique_ptr<Client> Dial(uint16_t port, ClientOptions options = {}) {
    auto connected = Client::Connect("127.0.0.1", port, options);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return connected.ok() ? connected.TakeValue() : nullptr;
  }

  std::string dir_;
  std::unique_ptr<engine::Database> primary_db_;
  std::unique_ptr<Server> primary_server_;
  std::unique_ptr<engine::Database> replica_db_;
  std::unique_ptr<ReplicaController> controller_;
  std::unique_ptr<Server> replica_server_;
};

TEST_F(ReplicationE2eTest, BootstrapStreamReadYourWritesPromote) {
  StartPrimary();
  auto primary = Dial(primary_server_->port());
  ASSERT_NE(primary, nullptr);

  // Schema + bulk load BEFORE the replica exists: loads are not
  // WAL-logged, so only the bootstrap checkpoint can carry them.
  ASSERT_TRUE(primary
                  ->CreateTable("acct", 256,
                                {{"bal", storage::ValueType::kInt64}})
                  .ok());
  std::vector<uint64_t> init(256);
  for (size_t i = 0; i < init.size(); ++i) {
    init[i] = storage::EncodeInt64(static_cast<int64_t>(1000 + i));
  }
  ASSERT_TRUE(primary->Load("acct", "bal", 0, init).ok());

  StartReplica();
  auto replica = Dial(replica_server_->port());
  ASSERT_NE(replica, nullptr);

  // The bootstrap checkpoint carried the load.
  auto seeded = replica->Read("acct", "bal", 7);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_EQ(seeded.value(), storage::EncodeInt64(1007));

  // Commit on the primary; the COMMIT_OK token gates the replica read.
  ASSERT_TRUE(primary->Begin().ok());
  ASSERT_TRUE(
      primary->Write("acct", "bal", 7, storage::EncodeInt64(4242)).ok());
  ASSERT_TRUE(primary->Commit().ok());
  const uint64_t token = primary->last_commit_lsn();
  ASSERT_GT(token, 0u);

  ASSERT_TRUE(replica->WaitLsn(token, 5000).ok());
  auto shipped = replica->Read("acct", "bal", 7);
  ASSERT_TRUE(shipped.ok());
  EXPECT_EQ(shipped.value(), storage::EncodeInt64(4242));

  // Status surfaces on both ends.
  auto pstat = primary->ReplicaStatus();
  ASSERT_TRUE(pstat.ok());
  EXPECT_EQ(pstat.value().role, NodeRole::kPrimary);
  EXPECT_TRUE(pstat.value().stream_connected);
  auto rstat = replica->ReplicaStatus();
  ASSERT_TRUE(rstat.ok());
  EXPECT_EQ(rstat.value().role, NodeRole::kReplica);
  EXPECT_GE(rstat.value().applied_lsn, token);

  // Content converges (quiesced on both sides at this point).
  auto pdigest = primary->Digest();
  auto rdigest = replica->Digest();
  ASSERT_TRUE(pdigest.ok());
  ASSERT_TRUE(rdigest.ok());
  EXPECT_EQ(pdigest.value(), rdigest.value());

  // Read-only gate: a write-class request is refused recoverably.
  ASSERT_TRUE(replica->Begin().ok());
  const Status refused =
      replica->Write("acct", "bal", 1, storage::EncodeInt64(1));
  EXPECT_TRUE(refused.IsResourceBusy()) << refused.ToString();
  ASSERT_TRUE(replica->Abort().ok());
  // ...and PROMOTE on the primary is refused outright.
  EXPECT_FALSE(primary->Promote().ok());

  // Controlled failover: promote, then write locally.
  ASSERT_TRUE(replica->Promote().ok());
  auto promoted = replica->ReplicaStatus();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value().role, NodeRole::kPromoted);
  ASSERT_TRUE(replica->Begin().ok());
  ASSERT_TRUE(
      replica->Write("acct", "bal", 9, storage::EncodeInt64(777)).ok());
  ASSERT_TRUE(replica->Commit().ok());
  auto after = replica->Read("acct", "bal", 9);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), storage::EncodeInt64(777));
}

TEST_F(ReplicationE2eTest, ReplicaBootstrapsFromAColdTierCheckpoint) {
  // Every primary column lives in extents, so its checkpoint references
  // them by id instead of carrying column bytes: the transfer must ship
  // the referenced extent files next to the checkpoint directory.
  engine::DatabaseConfig config = DbConfig("primary");
  config.cold_budget_bytes = 1;
  config.cold_segment_rows = 1024;
  auto opened = engine::Database::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  primary_db_ = opened.TakeValue();
  auto created = primary_db_->CreateTable(
      "acct", {{"bal", storage::ValueType::kInt64}}, 5000);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  for (size_t row = 0; row < 5000; ++row) {
    created.value()->GetColumn("bal")->LoadValue(
        row, storage::EncodeInt64(static_cast<int64_t>(row * 7 % 1000)));
  }
  primary_db_->Start();
  ASSERT_TRUE(primary_db_->SpillColdData().ok());
  ASSERT_TRUE(primary_db_->Checkpoint().ok());
  ServerConfig server_config;
  primary_server_ = std::make_unique<Server>(primary_db_.get(), server_config);
  ASSERT_TRUE(primary_server_->Start().ok());

  ASSERT_TRUE(
      ReplicaController::Bootstrap(MakeReplicaConfig(), dir_ + "/replica")
          .ok());
  auto manifest =
      wal::CheckpointReader::ReadManifest(dir_ + "/replica", nullptr);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_FALSE(manifest.value().extents.empty())
      << "the bootstrap checkpoint should reference extents";

  auto replica = engine::Database::Open(DbConfig("replica"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  replica_db_ = replica.TakeValue();
  replica_db_->Start();
  EXPECT_EQ(replica_db_->ContentDigest(), primary_db_->ContentDigest());
}

TEST_F(ReplicationE2eTest, TransferShipsOnlyWhatTheVerifiedManifestNames) {
  engine::DatabaseConfig config = DbConfig("primary");
  config.cold_budget_bytes = 1;
  config.cold_segment_rows = 1024;
  auto opened = engine::Database::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  primary_db_ = opened.TakeValue();
  auto created = primary_db_->CreateTable(
      "acct", {{"bal", storage::ValueType::kInt64}}, 3000);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  created.value()->CreatePrimaryIndex(16);
  ASSERT_TRUE(created.value()->primary_index()->Insert(7, 7).ok());
  primary_db_->Start();
  ASSERT_TRUE(primary_db_->SpillColdData().ok());
  ASSERT_TRUE(primary_db_->Checkpoint().ok());
  // Files the manifest does not name stay home: an unreferenced extent
  // and an in-flight publication.
  const std::string data_dir = config.data_dir;
  ASSERT_TRUE(
      wal::AtomicWriteFile(data_dir + "/extents/ext-999.ext", "x").ok());
  ASSERT_TRUE(
      wal::AtomicWriteFile(data_dir + "/extents/ext-1000.ext.tmp", "x").ok());

  std::string wire;
  ASSERT_TRUE(EncodeCheckpointStream(data_dir, &wire).ok());
  std::vector<std::string> files;
  std::string_view rest(wire);
  while (!rest.empty()) {
    std::string_view payload;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(rest, &payload, &consumed), FrameStatus::kOk);
    rest.remove_prefix(consumed);
    if (static_cast<Op>(payload[0]) != Op::kCkptChunk) continue;
    CkptChunkMsg chunk;
    ASSERT_TRUE(DecodeCkptChunk(payload.substr(1), &chunk).ok());
    if (files.empty() || files.back() != chunk.file) {
      files.push_back(chunk.file);
    }
  }
  std::string ckpt_path;
  auto manifest = wal::CheckpointReader::ReadManifest(data_dir, &ckpt_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::string ckpt = ckpt_path.substr(data_dir.size() + 1);
  std::vector<std::string> expected = {ckpt + "/MANIFEST", ckpt + "/t0.c0",
                                       ckpt + "/t0.idx"};
  for (const uint64_t id : manifest.value().extents) {
    expected.push_back("extents/ext-" + std::to_string(id) + ".ext");
  }
  expected.push_back("CURRENT");
  EXPECT_EQ(files, expected);
  EXPECT_FALSE(manifest.value().extents.empty());

  // A manifest that fails its CRC is never shipped.
  std::string bytes;
  ASSERT_TRUE(wal::ReadFile(ckpt_path + "/MANIFEST", &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(wal::AtomicWriteFile(ckpt_path + "/MANIFEST", bytes).ok());
  std::string refused;
  EXPECT_EQ(EncodeCheckpointStream(data_dir, &refused).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(refused.empty());
}

TEST_F(ReplicationE2eTest, PartitionDegradesToStaleReadsThenHeals) {
  StartPrimary();
  auto primary = Dial(primary_server_->port());
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary
                  ->CreateTable("acct", 64,
                                {{"bal", storage::ValueType::kInt64}})
                  .ok());
  StartReplica();
  auto replica = Dial(replica_server_->port());
  ASSERT_NE(replica, nullptr);

  ASSERT_TRUE(primary->ExecTxn({{"acct", "bal", false, 3,
                                 storage::EncodeInt64(11)}}).ok());
  ASSERT_TRUE(replica->WaitLsn(primary->last_commit_lsn(), 5000).ok());

  // Partition: every replica-side receive "fails" — the stream drops and
  // every reconnect dies the same way. The replica must keep serving
  // (stale) reads the whole time.
  FaultInjector::Instance().ArmForTest("repl.recv:fail:1.0", 7);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(primary->ExecTxn({{"acct", "bal", false, 4,
                                 storage::EncodeInt64(22)}}).ok());
  const uint64_t fenced_token = primary->last_commit_lsn();
  auto stale = replica->Read("acct", "bal", 3);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale.value(), storage::EncodeInt64(11));
  // The partitioned commit is not readable yet.
  EXPECT_FALSE(replica->WaitLsn(fenced_token, 150).ok());

  // Heal: reconnect-with-backoff catches the replica up on its own.
  FaultInjector::Instance().ArmForTest("", 0);
  ASSERT_TRUE(replica->WaitLsn(fenced_token, 10000).ok());
  auto healed = replica->Read("acct", "bal", 4);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value(), storage::EncodeInt64(22));
}

TEST_F(ReplicationE2eTest, SyncAckGatesCommitsOnReplicaDurability) {
  StartPrimary();
  auto primary = Dial(primary_server_->port());
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary
                  ->CreateTable("acct", 64,
                                {{"bal", storage::ValueType::kInt64}})
                  .ok());
  StartReplica(/*sync_ack=*/true);
  auto replica = Dial(replica_server_->port());
  ASSERT_NE(replica, nullptr);

  // With the sync replica connected and acking, commits flow.
  ASSERT_TRUE(primary->ExecTxn({{"acct", "bal", false, 1,
                                 storage::EncodeInt64(5)}}).ok());
  ASSERT_TRUE(replica->WaitLsn(primary->last_commit_lsn(), 5000).ok());

  // Kill the replica's fetcher: the next commit is durable locally but
  // its ack times out as "commit uncertain" (ResourceBusy), not lost.
  controller_->Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Status uncertain = primary->ExecTxn(
      {{"acct", "bal", false, 2, storage::EncodeInt64(6)}});
  EXPECT_TRUE(uncertain.IsResourceBusy()) << uncertain.ToString();
  // Locally durable regardless: the engine applied and logged it.
  auto read_back = primary->Read("acct", "bal", 2);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), storage::EncodeInt64(6));
}

TEST_F(ReplicationE2eTest, FetchBeforeAnyCheckpointIsRefused) {
  StartPrimary();
  auto primary = Dial(primary_server_->port());
  ASSERT_NE(primary, nullptr);
  // The refusal arrives in place of the chunk stream and surfaces as
  // the primary's status; the connection stays usable.
  const Status early = FetchCheckpointInto(primary.get(), dir_ + "/early");
  EXPECT_EQ(early.code(), StatusCode::kNotFound) << early.ToString();
  EXPECT_TRUE(primary->Ping().ok());
}

TEST_F(ReplicationE2eTest, DecommissionReleasesDepartedReplicaRetention) {
  StartPrimary();
  auto primary = Dial(primary_server_->port());
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary
                  ->CreateTable("acct", 64,
                                {{"bal", storage::ValueType::kInt64}})
                  .ok());
  StartReplica();
  auto replica = Dial(replica_server_->port());
  ASSERT_NE(replica, nullptr);

  ASSERT_TRUE(primary->ExecTxn({{"acct", "bal", false, 1,
                                 storage::EncodeInt64(9)}}).ok());
  ASSERT_TRUE(replica->WaitLsn(primary->last_commit_lsn(), 5000).ok());

  // Unknown id: the registry only knows replicas that ever subscribed.
  const Status unknown = primary->DecommissionReplica("never-registered");
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound) << unknown.ToString();

  // While the stream is live the retention pin is load-bearing: refused.
  const Status live = primary->DecommissionReplica("r1");
  EXPECT_EQ(live.code(), StatusCode::kInvalidArgument) << live.ToString();

  // The op lives on the primary; a replica has no retention registry.
  const Status wrong_node = replica->DecommissionReplica("r1");
  EXPECT_EQ(wrong_node.code(), StatusCode::kNotSupported)
      << wrong_node.ToString();

  // Permanently retire the replica (fetcher gone, never coming back).
  controller_->Stop();
  // The streamer notices the dropped socket on its next heartbeat; poll
  // until the subscriber flips to disconnected and the erase succeeds.
  Status gone = Status::OK();
  for (int attempt = 0; attempt < 100; ++attempt) {
    gone = primary->DecommissionReplica("r1");
    if (gone.ok() || gone.code() != StatusCode::kInvalidArgument) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(gone.ok()) << gone.ToString();

  // Idempotence check: the id is really gone from the registry.
  const Status again = primary->DecommissionReplica("r1");
  EXPECT_EQ(again.code(), StatusCode::kNotFound) << again.ToString();
  auto pstat = primary->ReplicaStatus();
  ASSERT_TRUE(pstat.ok());
  EXPECT_FALSE(pstat.value().stream_connected);

  // The floor is released: with no subscribers pinning the WAL, the
  // primary keeps committing and checkpoint truncation may reclaim
  // segments the departed replica would have needed. Commits must not
  // block or trip over the erased registry entry.
  for (uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(primary->ExecTxn({{"acct", "bal", false, i % 64,
                                   storage::EncodeInt64(100 + i)}}).ok());
  }
  ASSERT_TRUE(primary->CheckpointNow().ok());
  auto read_back = primary->Read("acct", "bal", 31);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), storage::EncodeInt64(131));
}

TEST_F(ReplicationE2eTest, BusyRetryBudgetRetriesThenSurfaces) {
  // max_inflight=0 pins every dispatched op to the BUSY path.
  StartPrimary(/*max_inflight=*/0);
  ClientOptions options;
  options.busy_retry_budget = 3;
  options.busy_backoff_initial_millis = 1;
  options.busy_backoff_max_millis = 4;
  auto client = Dial(primary_server_->port(), options);
  ASSERT_NE(client, nullptr);

  const Status busy = client->ExecTxn(
      {{"acct", "bal", false, 0, storage::EncodeInt64(1)}});
  EXPECT_TRUE(busy.IsResourceBusy()) << busy.ToString();
  // 1 initial attempt + 3 retries all hit admission control.
  EXPECT_GE(primary_server_->stats().busy_rejections, 4u);
  // The connection is not poisoned: BUSY is backpressure, not transport
  // failure.
  EXPECT_TRUE(client->Ping().ok());
}

}  // namespace
}  // namespace anker::server
