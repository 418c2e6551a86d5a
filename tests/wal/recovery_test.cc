// End-to-end durability: checkpoint + WAL replay must reproduce, bit for
// bit, the state an uninterrupted in-memory run reaches. Every test drives
// a durable Database and a twin with durability off through identical
// transactions and compares ContentDigest after recovery.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/io_util.h"
#include "wal/wal_format.h"
#include "wal/wal_tail.h"

namespace anker::engine {
namespace {

constexpr size_t kRows = 512;

std::vector<storage::ColumnDef> TestSchema() {
  return {{"balance", storage::ValueType::kInt64},
          {"price", storage::ValueType::kDouble},
          {"tag", storage::ValueType::kDict32}};
}

class RecoveryTest : public ::testing::TestWithParam<txn::ProcessingMode> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/anker_recovery_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { wal::RemoveDirRecursive(dir_); }

  DatabaseConfig DurableConfig(wal::DurabilityMode mode) {
    DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
    config.durability = mode;
    config.data_dir = dir_;
    config.wal_segment_bytes = 1 << 12;  // Tiny segments: exercise rotation.
    return config;
  }

  static storage::Table* MakeTable(Database* db) {
    auto table = db->CreateTable("ledger", TestSchema(), kRows);
    EXPECT_TRUE(table.ok());
    return table.value();
  }

  static void LoadBase(storage::Table* table) {
    storage::Dictionary* dict = table->GetDictionary("tag");
    const uint32_t codes[] = {dict->GetOrAdd("red"), dict->GetOrAdd("green"),
                              dict->GetOrAdd("blue")};
    table->CreatePrimaryIndex(kRows);
    for (size_t row = 0; row < kRows; ++row) {
      table->GetColumn("balance")->LoadValue(
          row, storage::EncodeInt64(static_cast<int64_t>(1000 + row)));
      table->GetColumn("price")->LoadValue(
          row, storage::EncodeDouble(0.5 * static_cast<double>(row)));
      table->GetColumn("tag")->LoadValue(
          row, storage::EncodeDict(codes[row % 3]));
      EXPECT_TRUE(table->primary_index()
                      ->Insert(row * 7 + 1, row)
                      .ok());
    }
  }

  /// Deterministic update stream: transaction i rewrites three slots.
  static void RunTxns(Database* db, storage::Table* table, int from,
                      int to) {
    storage::Column* balance = table->GetColumn("balance");
    storage::Column* price = table->GetColumn("price");
    for (int i = from; i < to; ++i) {
      auto txn = db->BeginOltp();
      const uint64_t row = static_cast<uint64_t>(i * 31 % kRows);
      const uint64_t row2 = static_cast<uint64_t>((i * 17 + 5) % kRows);
      txn->Write(balance, row, storage::EncodeInt64(1'000'000 + i));
      txn->Write(balance, row2, storage::EncodeInt64(2'000'000 - i));
      txn->Write(price, row, storage::EncodeDouble(static_cast<double>(i)));
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
  }

  /// The reference: same load, same transactions, no durability.
  uint64_t ReferenceDigest(int txns) {
    DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
    Database db(config);
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    RunTxns(&db, table, 0, txns);
    return db.ContentDigest();
  }

  std::string dir_;
};

TEST_P(RecoveryTest, CheckpointThenReplayEquivalence) {
  const uint64_t expected = ReferenceDigest(300);
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());  // Bootstrap: makes the load durable.
    RunTxns(&db, table, 0, 120);
    ASSERT_TRUE(db.Checkpoint().ok());  // Mid-stream checkpoint.
    RunTxns(&db, table, 120, 300);      // Tail only in the WAL.
  }
  auto reopened = Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->ContentDigest(), expected);
}

TEST_P(RecoveryTest, TornTailRecoversToLastIntactCommit) {
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());
    RunTxns(&db, table, 0, 200);
  }
  // Simulate a crash mid-append: garbage on the newest segment's tail.
  std::vector<std::string> names;
  ASSERT_TRUE(wal::ListDir(dir_ + "/wal", &names).ok());
  std::sort(names.begin(), names.end());
  const std::string newest = dir_ + "/wal/" + names.back();
  std::string data;
  ASSERT_TRUE(wal::ReadFile(newest, &data).ok());
  data.append("\x13\x00\x00\x00garbage-half-record", 23);
  FILE* f = fopen(newest.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(data.data(), 1, data.size(), f), data.size());
  fclose(f);

  auto reopened =
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // All 200 commits were intact; the garbage was a never-acknowledged tail.
  EXPECT_EQ(reopened.value()->ContentDigest(), ReferenceDigest(200));
}

TEST_P(RecoveryTest, RecoversWithoutAnyCheckpoint) {
  // A table created after the last checkpoint (here: no checkpoint at
  // all) is rebuilt from its kCreateTable record; transactional writes
  // replay on the zero-initialized image.
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    storage::Column* balance = table->GetColumn("balance");
    for (size_t row = 0; row < kRows; ++row) {
      auto txn = db.BeginOltp();
      txn->Write(balance, row, storage::EncodeInt64(static_cast<int64_t>(row)));
      ASSERT_TRUE(db.Commit(txn.get()).ok());
    }
  }
  auto reopened =
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database* db = reopened.value().get();
  ASSERT_TRUE(db->catalog().HasTable("ledger"));
  storage::Column* balance =
      db->catalog().GetTable("ledger")->GetColumn("balance");
  for (size_t row = 0; row < kRows; ++row) {
    EXPECT_EQ(storage::DecodeInt64(balance->ReadLatestRaw(row)),
              static_cast<int64_t>(row));
  }
}

TEST_P(RecoveryTest, OracleAndWatermarkRestored) {
  mvcc::Timestamp pre_crash_ts = 0;
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());
    RunTxns(&db, table, 0, 50);
    pre_crash_ts = db.txn_manager().oracle().Current();
  }
  auto reopened =
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(reopened.ok());
  Database* db = reopened.value().get();
  // New transactions must start above everything that was replayed…
  EXPECT_GE(db->txn_manager().oracle().Current(), pre_crash_ts);
  auto txn = db->BeginOltp();
  EXPECT_GE(txn->start_ts(), pre_crash_ts);
  // …and still be able to read and commit.
  storage::Table* table = db->catalog().GetTable("ledger");
  txn->Write(table->GetColumn("balance"), 0, storage::EncodeInt64(-1));
  EXPECT_TRUE(db->Commit(txn.get()).ok());
  EXPECT_EQ(storage::DecodeInt64(
                table->GetColumn("balance")->ReadLatestRaw(0)),
            -1);
}

TEST_P(RecoveryTest, CheckpointTruncatesCoveredSegments) {
  Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
  storage::Table* table = MakeTable(&db);
  LoadBase(table);
  ASSERT_TRUE(db.Checkpoint().ok());
  RunTxns(&db, table, 0, 400);  // Tiny segments: many rotations.
  std::vector<std::string> before;
  ASSERT_TRUE(wal::ListDir(dir_ + "/wal", &before).ok());
  ASSERT_GT(before.size(), 2u);

  auto ckpt = db.Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  std::vector<std::string> after;
  ASSERT_TRUE(wal::ListDir(dir_ + "/wal", &after).ok());
  EXPECT_LT(after.size(), before.size())
      << "checkpoint must delete fully covered segments";

  // Only the latest checkpoint directory survives.
  std::vector<std::string> top;
  ASSERT_TRUE(wal::ListDir(dir_, &top).ok());
  int checkpoints = 0;
  for (const std::string& name : top) {
    if (name.rfind("ckpt-", 0) == 0) ++checkpoints;
  }
  EXPECT_EQ(checkpoints, 1);
}

TEST_P(RecoveryTest, CheckpointAfterReopenTruncatesPreCrashSegments) {
  // Segments written before a crash must be adopted by the recovered
  // writer: the first post-recovery checkpoint covers all their records
  // and deletes them, instead of letting the log grow across restarts.
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());
    RunTxns(&db, table, 0, 300);  // Tiny segments: several files.
  }
  std::vector<std::string> before;
  ASSERT_TRUE(wal::ListDir(dir_ + "/wal", &before).ok());
  ASSERT_GT(before.size(), 2u);

  auto reopened =
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value()->Checkpoint().ok());
  std::vector<std::string> after;
  ASSERT_TRUE(wal::ListDir(dir_ + "/wal", &after).ok());
  // Everything the checkpoint covers is gone; only the writer's fresh
  // segments remain.
  EXPECT_LE(after.size(), 2u)
      << "pre-crash segments survived a covering checkpoint";
}

TEST_P(RecoveryTest, LazyModeRecoversSyncedPrefix) {
  const uint64_t expected = ReferenceDigest(100);
  {
    Database db(DurableConfig(wal::DurabilityMode::kLazy));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());
    RunTxns(&db, table, 0, 100);
    // Lazy commits do not wait; force the flush the background cadence
    // would have done, then "crash" (destructor also drains, but the test
    // wants the sync explicit).
    ASSERT_TRUE(db.log_writer()->Sync().ok());
  }
  auto reopened = Database::Open(DurableConfig(wal::DurabilityMode::kLazy));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->ContentDigest(), expected);
}

TEST_P(RecoveryTest, RepeatedReopenIsStable) {
  const uint64_t expected = ReferenceDigest(150);
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    storage::Table* table = MakeTable(&db);
    LoadBase(table);
    ASSERT_TRUE(db.Checkpoint().ok());
    RunTxns(&db, table, 0, 150);
  }
  for (int round = 0; round < 3; ++round) {
    auto reopened =
        Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
    ASSERT_TRUE(reopened.ok()) << "round " << round;
    EXPECT_EQ(reopened.value()->ContentDigest(), expected)
        << "round " << round;
  }
}

TEST_P(RecoveryTest, OpenEmptyDirectoryYieldsEmptyDatabase) {
  auto opened =
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value()->catalog().num_tables(), 0u);
  // And it is immediately usable.
  storage::Table* table = MakeTable(opened.value().get());
  ASSERT_NE(table, nullptr);
}

TEST_P(RecoveryTest, FreshConstructorRefusesExistingState) {
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    MakeTable(&db);
  }
  EXPECT_DEATH(
      { Database db2(DurableConfig(wal::DurabilityMode::kGroupCommit)); },
      "Database::Open");
  // The validating factory reports the same condition recoverably.
  auto created = Database::Create(DurableConfig(wal::DurabilityMode::kGroupCommit));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(RecoveryTest, ValidateRejectsDurabilityWithoutDataDir) {
  DatabaseConfig config = DatabaseConfig::ForMode(GetParam());
  config.durability = wal::DurabilityMode::kGroupCommit;
  EXPECT_FALSE(config.Validate().ok());
  config.data_dir = dir_;
  EXPECT_TRUE(config.Validate().ok());
  config.durability = wal::DurabilityMode::kOff;
  config.data_dir.clear();
  config.checkpoint_interval_commits = 100;
  EXPECT_FALSE(config.Validate().ok());
}

TEST_P(RecoveryTest, AutoCheckpointIsWhereRecoveryStarts) {
  constexpr int kInterval = 40;
  constexpr int kTxns = 100;
  const uint64_t expected = ReferenceDigest(kTxns);
  DatabaseConfig config = DurableConfig(wal::DurabilityMode::kGroupCommit);
  config.checkpoint_interval_commits = kInterval;
  {
    Database db(config);
    storage::Table* table = MakeTable(&db);
    // No explicit Checkpoint(): the bulk load bypasses the WAL, so only a
    // background checkpoint can make it durable.
    LoadBase(table);
    ASSERT_TRUE(wal::CheckpointReader::ReadManifest(dir_, nullptr)
                    .status()
                    .IsNotFound());
    RunTxns(&db, table, 0, kTxns);
    auto manifest = wal::CheckpointReader::ReadManifest(dir_, nullptr);
    for (int i = 0; i < 1000 && !manifest.ok(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      manifest = wal::CheckpointReader::ReadManifest(dir_, nullptr);
    }
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_GT(manifest.value().checkpoint_ts, 0u);
    EXPECT_GE(manifest.value().commit_count, static_cast<uint64_t>(kInterval));
  }  // Teardown joins a background checkpoint that is still running.
  auto manifest = wal::CheckpointReader::ReadManifest(dir_, nullptr);
  ASSERT_TRUE(manifest.ok());
  EXPECT_GE(manifest.value().commit_count, static_cast<uint64_t>(kInterval));
  // The reopened state matches only if recovery loaded the background
  // checkpoint (the loaded base values exist nowhere else) and replayed
  // the commits after it from the WAL.
  auto reopened = Database::Open(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->ContentDigest(), expected);
}

TEST_P(RecoveryTest, V2ManifestIsRejectedAsMalformed) {
  {
    Database db(DurableConfig(wal::DurabilityMode::kGroupCommit));
    LoadBase(MakeTable(&db));
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string ckpt_path;
  auto manifest = wal::CheckpointReader::ReadManifest(dir_, &ckpt_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(manifest.value().extents.empty());

  // Rewrite the published manifest as a well-formed v2 one: the retired
  // "ANKRMFT2" magic, no cold-tier section (u64 extent-id watermark + u32
  // count of an empty list), under a valid frame checksum.
  std::string framed;
  ASSERT_TRUE(wal::ReadFile(ckpt_path + "/MANIFEST", &framed).ok());
  constexpr size_t kFrameHeader = 4 + 4;  // u32 length, u32 masked CRC.
  constexpr size_t kColdTierSection = 8 + 4;
  ASSERT_GT(framed.size(), kFrameHeader + 8 + kColdTierSection);
  std::string payload = framed.substr(
      kFrameHeader, framed.size() - kFrameHeader - kColdTierSection);
  payload.replace(0, 8, "ANKRMFT2");
  std::string v2;
  wal::PutU32(&v2, static_cast<uint32_t>(payload.size()));
  wal::PutU32(&v2, wal::MaskCrc(wal::Crc32c(0, payload.data(),
                                            payload.size())));
  v2 += payload;
  ASSERT_TRUE(wal::AtomicWriteFile(ckpt_path + "/MANIFEST", v2).ok());

  manifest = wal::CheckpointReader::ReadManifest(dir_, nullptr);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kIoError);
  EXPECT_NE(manifest.status().ToString().find("malformed checkpoint manifest"),
            std::string::npos);
  EXPECT_FALSE(
      Database::Open(DurableConfig(wal::DurabilityMode::kGroupCommit)).ok());
}

/// Ships every durable record of `primary` that `replica` has not applied.
void ShipLog(Database* primary, Database* replica) {
  wal::LogWriter* log = primary->log_writer();
  ASSERT_TRUE(log->Sync().ok());
  wal::WalTailer tail(primary->wal_dir());
  ASSERT_TRUE(
      tail.Seek(replica->applied_lsn() + 1, log->durable_lsn() + 1).ok());
  for (;;) {
    std::vector<wal::TailRecord> batch;
    ASSERT_TRUE(tail.Poll(log->durable_lsn(), SIZE_MAX, &batch).ok());
    if (batch.empty()) return;
    for (const wal::TailRecord& r : batch) {
      const Status applied = replica->ApplyReplicated(r.lsn, r.payload);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
  }
}

TEST_P(RecoveryTest, TwoPhaseCommitStateSurvivesReopenAndReplicaApply) {
  DatabaseConfig primary_config =
      DurableConfig(wal::DurabilityMode::kGroupCommit);
  primary_config.data_dir = dir_ + "/primary";
  DatabaseConfig replica_config = primary_config;
  replica_config.data_dir = dir_ + "/replica";
  auto replica_r = Database::Open(replica_config);
  ASSERT_TRUE(replica_r.ok()) << replica_r.status().ToString();
  std::unique_ptr<Database> replica = replica_r.TakeValue();

  // Each prepared transaction writes two slots no local commit touches.
  enum Gtid : uint64_t {
    kPendingBeforeCheckpoint = 11,  // Restored from the manifest.
    kCommittedBeforeCheckpoint,     // Outcome in the manifest ledger.
    kAbortedAfterCheckpoint,        // Manifest intent, WAL abort.
    kCommittedAfterCheckpoint,      // Manifest intent, WAL commit.
    kPendingAfterCheckpoint,        // WAL prepare only.
  };
  const std::vector<uint64_t> gtids = {
      kPendingBeforeCheckpoint, kCommittedBeforeCheckpoint,
      kAbortedAfterCheckpoint, kCommittedAfterCheckpoint,
      kPendingAfterCheckpoint};
  std::vector<mvcc::Timestamp> commit_ts(gtids.size(), 0);
  uint64_t expected_digest = 0;
  {
    Database primary(primary_config);
    storage::Table* table = MakeTable(&primary);
    txn::TransactionManager& tm = primary.txn_manager();
    auto prepare = [&](uint64_t gtid) {
      const uint64_t row = 400 + 2 * gtid;
      const std::vector<mvcc::SlotWrite> writes = {
          {table->GetColumn("balance"), row, storage::EncodeInt64(gtid)},
          {table->GetColumn("price"), row + 1,
           storage::EncodeDouble(static_cast<double>(gtid))}};
      mvcc::Timestamp prepare_ts = 0;
      uint64_t lsn = 0;
      EXPECT_TRUE(tm.PrepareDistributed(gtid, /*primary_shard=*/0, writes,
                                        &prepare_ts, &lsn)
                      .ok());
      return prepare_ts;
    };
    auto commit = [&](uint64_t gtid, mvcc::Timestamp prepare_ts) {
      uint64_t lsn = 0;
      commit_ts[gtid - kPendingBeforeCheckpoint] = prepare_ts + 1;
      ASSERT_TRUE(tm.CommitPrepared(gtid, prepare_ts + 1, &lsn).ok());
    };

    RunTxns(&primary, table, 0, 10);
    prepare(kPendingBeforeCheckpoint);
    commit(kCommittedBeforeCheckpoint, prepare(kCommittedBeforeCheckpoint));
    prepare(kAbortedAfterCheckpoint);
    const mvcc::Timestamp late_commit = prepare(kCommittedAfterCheckpoint);
    ShipLog(&primary, replica.get());
    ASSERT_TRUE(primary.Checkpoint().ok());

    uint64_t lsn = 0;
    ASSERT_TRUE(tm.AbortPrepared(kAbortedAfterCheckpoint, &lsn).ok());
    commit(kCommittedAfterCheckpoint, late_commit);
    prepare(kPendingAfterCheckpoint);
    RunTxns(&primary, table, 10, 20);
    ShipLog(&primary, replica.get());
    expected_digest = primary.ContentDigest();
  }

  auto reopened = Database::Open(primary_config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (Database* db : {reopened.value().get(), replica.get()}) {
    SCOPED_TRACE(db->config().data_dir);
    EXPECT_EQ(db->ContentDigest(), expected_digest);
    EXPECT_EQ(db->txn_manager().intents().PendingCount(), 2u);
    for (size_t i = 0; i < gtids.size(); ++i) {
      mvcc::TxnOutcome outcome = mvcc::TxnOutcome::kPending;
      mvcc::Timestamp ts = 0;
      ASSERT_TRUE(db->txn_manager()
                      .ResolveOutcome(gtids[i], /*abort_pending=*/false,
                                      &outcome, &ts)
                      .ok());
      const mvcc::TxnOutcome expected =
          commit_ts[i] != 0 ? mvcc::TxnOutcome::kCommitted
          : gtids[i] == kAbortedAfterCheckpoint ? mvcc::TxnOutcome::kAborted
                                                : mvcc::TxnOutcome::kPending;
      EXPECT_EQ(outcome, expected) << "gtid " << gtids[i];
      EXPECT_EQ(ts, commit_ts[i]) << "gtid " << gtids[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RecoveryTest,
    ::testing::Values(txn::ProcessingMode::kHeterogeneousSerializable,
                      txn::ProcessingMode::kHomogeneousSerializable),
    [](const ::testing::TestParamInfo<txn::ProcessingMode>& info) {
      return info.param == txn::ProcessingMode::kHeterogeneousSerializable
                 ? "heterogeneous"
                 : "homogeneous";
    });

}  // namespace
}  // namespace anker::engine
