// Engine-level WAL shipping: a primary Database's log tailed into a
// replica Database via ApplyReplicated. This is the replication data
// plane without any sockets — the server wraps exactly this loop.
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "storage/value.h"
#include "wal/checkpoint.h"
#include "wal/io_util.h"
#include "wal/wal_tail.h"

namespace anker::engine {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/anker_repl_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { wal::RemoveDirRecursive(dir_); }

  DatabaseConfig Config(const std::string& subdir) const {
    DatabaseConfig config =
        DatabaseConfig::ForMode(txn::ProcessingMode::kHeterogeneousSerializable);
    config.durability = wal::DurabilityMode::kGroupCommit;
    config.data_dir = dir_ + "/" + subdir;
    config.wal_segment_bytes = 4096;  // Exercise rotation.
    return config;
  }

  static void MakeTable(Database* db) {
    auto table = db->CreateTable(
        "acct", {{"bal", storage::ValueType::kInt64}}, 64);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
  }

  static void CommitN(Database* db, int n, uint64_t base) {
    storage::Table* table = db->catalog().GetTable("acct");
    ASSERT_NE(table, nullptr);
    storage::Column* bal = table->GetColumn("bal");
    for (int i = 0; i < n; ++i) {
      auto txn = db->BeginOltp();
      txn->Write(bal, static_cast<uint64_t>(i % 64), base + i);
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
  }

  /// Ships everything durable on `primary` into `replica`; returns the
  /// number of records applied.
  static int ShipAll(Database* primary, Database* replica) {
    wal::WalTailer tail(primary->wal_dir());
    wal::LogWriter* log = primary->log_writer();
    EXPECT_TRUE(log->Sync().ok());
    EXPECT_TRUE(
        tail.Seek(replica->applied_lsn() + 1, log->durable_lsn() + 1).ok());
    int applied = 0;
    for (;;) {
      std::vector<wal::TailRecord> batch;
      EXPECT_TRUE(tail.Poll(log->durable_lsn(), SIZE_MAX, &batch).ok());
      if (batch.empty()) break;
      for (const wal::TailRecord& r : batch) {
        const Status s = replica->ApplyReplicated(r.lsn, r.payload);
        EXPECT_TRUE(s.ok()) << s.ToString();
        ++applied;
      }
    }
    return applied;
  }

  std::string dir_;
};

TEST_F(ReplicationTest, ShipsSchemaAndCommitsAndConverges) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 200, 1000);

  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();
  const int applied = ShipAll(primary.get(), replica.get());
  EXPECT_GT(applied, 200);  // create-table + commits

  EXPECT_EQ(primary->ContentDigest(), replica->ContentDigest());
  EXPECT_EQ(replica->applied_lsn(), primary->log_writer()->appended_lsn());
}

TEST_F(ReplicationTest, ReplicaRestartResumesFromItsOwnLog) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 50, 1000);

  uint64_t applied_before = 0;
  {
    auto replica_r = Database::Open(Config("replica"));
    ASSERT_TRUE(replica_r.ok());
    auto replica = replica_r.TakeValue();
    ShipAll(primary.get(), replica.get());
    // The local mirror is flushed before "crash": only durable local
    // records survive, exactly like the primary's own log.
    ASSERT_TRUE(replica->log_writer()->Sync().ok());
    applied_before = replica->applied_lsn();
  }

  CommitN(primary.get(), 50, 5000);

  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();
  // Recovery replayed the mirrored log: the watermark is where it was.
  EXPECT_EQ(replica->applied_lsn(), applied_before);
  ShipAll(primary.get(), replica.get());
  EXPECT_EQ(primary->ContentDigest(), replica->ContentDigest());
}

TEST_F(ReplicationTest, ReplicaTakesItsOwnCheckpointsAndRecoversFromThem) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 80, 1000);

  {
    auto replica_r = Database::Open(Config("replica"));
    ASSERT_TRUE(replica_r.ok());
    auto replica = replica_r.TakeValue();
    ShipAll(primary.get(), replica.get());
    auto ckpt = replica->Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    // Deliberately do NOT sync the local log after the checkpoint: the
    // manifest's wal_lsn alone must carry the watermark forward.
  }

  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();
  EXPECT_EQ(primary->ContentDigest(), replica->ContentDigest());
  // And the stream resumes without a gap.
  CommitN(primary.get(), 20, 9000);
  ShipAll(primary.get(), replica.get());
  EXPECT_EQ(primary->ContentDigest(), replica->ContentDigest());
}

TEST_F(ReplicationTest, BootstrapFromFetchedCheckpoint) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 120, 1000);
  auto ckpt = primary->Checkpoint();
  ASSERT_TRUE(ckpt.ok());
  CommitN(primary.get(), 30, 7000);  // Tail past the checkpoint.

  // Simulate FETCH_CHECKPOINT: copy the checkpoint directory + CURRENT
  // into an empty replica data_dir (no WAL files travel).
  const std::string replica_dir = dir_ + "/replica";
  ASSERT_TRUE(wal::EnsureDir(replica_dir).ok());
  const std::string ckpt_name =
      ckpt.value().directory.substr(ckpt.value().directory.rfind('/') + 1);
  ASSERT_EQ(::system(("cp -r '" + ckpt.value().directory + "' '" +
                      replica_dir + "/" + ckpt_name + "' && cp '" +
                      primary->config().data_dir + "/CURRENT' '" +
                      replica_dir + "/CURRENT'")
                         .c_str()),
            0);

  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok()) << replica_r.status().ToString();
  auto replica = replica_r.TakeValue();
  // The manifest watermark positions the stream resume point.
  EXPECT_GT(replica->applied_lsn(), 0u);
  ShipAll(primary.get(), replica.get());
  EXPECT_EQ(primary->ContentDigest(), replica->ContentDigest());
}

TEST_F(ReplicationTest, ReplicatedCommitsAdvanceSnapshotsAndCheckpoints) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 10, 1000);

  DatabaseConfig config = Config("replica");
  config.snapshot_interval_commits = 5;
  config.checkpoint_interval_commits = 5;
  auto replica_r = Database::Open(config);
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();
  ShipAll(primary.get(), replica.get());
  storage::Column* bal = replica->catalog().GetTable("acct")->GetColumn("bal");
  auto olap_read_row0 = [&] {
    auto ctx = replica->BeginOlap({bal});
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    const uint64_t raw = ctx.value()->Reader(bal).Get(0);
    EXPECT_TRUE(replica->FinishOlap(ctx.TakeValue()).ok());
    return raw;
  };
  EXPECT_EQ(olap_read_row0(), 1000u);

  // Row 0 is rewritten by the 1st and the 65th of these commits; the
  // replica's 110th commit triggers an epoch after both.
  CommitN(primary.get(), 100, 5000);
  ShipAll(primary.get(), replica.get());
  EXPECT_EQ(replica->ContentDigest(), primary->ContentDigest());
  EXPECT_EQ(olap_read_row0(), 5064u);

  auto manifest = wal::CheckpointReader::ReadManifest(config.data_dir, nullptr);
  for (int i = 0; i < 1000 && !manifest.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    manifest = wal::CheckpointReader::ReadManifest(config.data_dir, nullptr);
  }
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_GT(manifest.value().checkpoint_ts, 0u);
}

TEST_F(ReplicationTest, WaitAppliedLsnGatesReadYourWrites) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());
  CommitN(primary.get(), 10, 1000);

  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();

  const uint64_t token = primary->log_writer()->appended_lsn();
  // Not shipped yet: the wait must time out recoverably, not block.
  const Status timeout = replica->WaitAppliedLsn(token, /*timeout_millis=*/20);
  EXPECT_TRUE(timeout.IsResourceBusy()) << timeout.ToString();

  ShipAll(primary.get(), replica.get());
  EXPECT_TRUE(replica->WaitAppliedLsn(token, /*timeout_millis=*/1000).ok());
}

TEST_F(ReplicationTest, HostileStreamBytesAreRecoverable) {
  auto replica_r = Database::Open(Config("replica"));
  ASSERT_TRUE(replica_r.ok());
  auto replica = replica_r.TakeValue();

  // Garbage payload at the expected LSN: recoverable decode error.
  EXPECT_FALSE(replica->ApplyReplicated(1, "\x07garbage").ok());
  // LSN gap (stream skipped ahead): refused, not applied.
  std::string payload;
  wal::EncodeCommit(5, {{0, 0, 0, 1}}, &payload);
  EXPECT_FALSE(replica->ApplyReplicated(40, payload).ok());
  // Redo against a table that does not exist: recoverable.
  EXPECT_FALSE(replica->ApplyReplicated(1, payload).ok());
  EXPECT_EQ(replica->applied_lsn(), 0u);
}

TEST_F(ReplicationTest, SyncAckWaiterGatesCommitAcks) {
  auto primary_r = Database::Open(Config("primary"));
  ASSERT_TRUE(primary_r.ok());
  auto primary = primary_r.TakeValue();
  MakeTable(primary.get());

  // A waiter that refuses: commits report the uncertainty instead of
  // acknowledging (the record IS durable locally — only the ack is
  // withheld).
  primary->SetReplicationWaiter([](uint64_t) {
    return Status::ResourceBusy("no replica ack");
  });
  storage::Table* table = primary->catalog().GetTable("acct");
  storage::Column* bal = table->GetColumn("bal");
  {
    auto txn = primary->BeginOltp();
    txn->Write(bal, 0, 42);
    const Status s = primary->Commit(txn.get());
    EXPECT_TRUE(s.IsResourceBusy()) << s.ToString();
    EXPECT_GT(txn->durable_lsn(), 0u);
  }
  // Cleared: acks flow again, and the token is the commit's LSN.
  primary->SetReplicationWaiter(nullptr);
  {
    auto txn = primary->BeginOltp();
    txn->Write(bal, 1, 43);
    ASSERT_TRUE(primary->Commit(txn.get()).ok());
    EXPECT_EQ(txn->durable_lsn(), primary->log_writer()->appended_lsn());
  }
}

}  // namespace
}  // namespace anker::engine
