// WAL tailing under the conditions replication actually meets: live
// appends, segment rotation mid-tail, resume points landing mid-segment,
// and checkpoint truncation racing an active tail (the retention floor
// is what keeps the race benign).
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "wal/io_util.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_tail.h"

namespace anker::wal {
namespace {

class WalTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/anker_tail_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    wal_dir_ = dir_ + "/wal";
  }
  void TearDown() override { RemoveDirRecursive(dir_); }

  static std::string Payload(int i) {
    std::string payload;
    EncodeCommit(static_cast<mvcc::Timestamp>(i),
                 {{0, 0, static_cast<uint64_t>(i), 1000ULL + i}}, &payload);
    return payload;
  }

  /// Appends records ts/value = lo..hi and syncs.
  static void AppendRange(LogWriter* writer, int lo, int hi) {
    for (int i = lo; i <= hi; ++i) {
      writer->Append(Payload(i), static_cast<mvcc::Timestamp>(i));
    }
    ASSERT_TRUE(writer->Sync().ok());
  }

  std::string dir_;
  std::string wal_dir_;
};

TEST_F(WalTailTest, DeliversDurableRecordsInOrder) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 20);

  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(1, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  ASSERT_EQ(got.size(), 20u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].lsn, i + 1);
    EXPECT_EQ(got[i].payload, Payload(static_cast<int>(i) + 1));
  }
  // Caught up: another poll delivers nothing.
  got.clear();
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  EXPECT_TRUE(got.empty());
  writer.Stop();
}

TEST_F(WalTailTest, NeverShipsBeyondTheDurableWatermark) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kLazy;
  options.flush_interval_millis = 10000;  // Effectively never.
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  for (int i = 1; i <= 5; ++i) {
    writer.Append(Payload(i), static_cast<mvcc::Timestamp>(i));
  }
  // Buffered but not flushed: nothing is durable, nothing ships.
  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(1, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  EXPECT_TRUE(got.empty());

  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  EXPECT_EQ(got.size(), 5u);
  writer.Stop();
}

TEST_F(WalTailTest, FollowsAcrossSegmentRotation) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  options.segment_bytes = 256;  // Tiny: rotate every few records.
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());

  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(1, writer.durable_lsn() + 1).ok());

  // Interleave appends with polls so the tail crosses rotation points
  // while the writer is live — exactly the replication steady state.
  uint64_t delivered = 0;
  for (int batch = 0; batch < 10; ++batch) {
    AppendRange(&writer, batch * 20 + 1, batch * 20 + 20);
    std::vector<TailRecord> got;
    ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
    for (const TailRecord& r : got) {
      EXPECT_EQ(r.lsn, delivered + 1);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 200u);

  std::vector<std::string> names;
  ASSERT_TRUE(ListDir(wal_dir_, &names).ok());
  EXPECT_GT(names.size(), 3u) << "expected multiple segments";
  writer.Stop();
}

TEST_F(WalTailTest, ResumeLandsMidSegment) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 10);  // One segment, ten records.

  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(6, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.front().lsn, 6u);
  EXPECT_EQ(got.back().lsn, 10u);
  writer.Stop();
}

TEST_F(WalTailTest, ResumeInMiddleSegmentOfRotatedLog) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  options.segment_bytes = 256;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 100);

  // Resume from every tenth LSN: each lands in some interior segment.
  for (uint64_t start = 11; start <= 91; start += 10) {
    WalTailer tail(wal_dir_);
    ASSERT_TRUE(tail.Seek(start, writer.durable_lsn() + 1).ok())
        << "start " << start;
    std::vector<TailRecord> got;
    ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
    ASSERT_EQ(got.size(), 100 - start + 1) << "start " << start;
    EXPECT_EQ(got.front().lsn, start);
    EXPECT_EQ(got.back().lsn, 100u);
  }
  writer.Stop();
}

TEST_F(WalTailTest, ResumeAtLiveEndAndAheadOfWriter) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 4);

  // Exactly at the live end: fine, waits for new records.
  WalTailer at_end(wal_dir_);
  ASSERT_TRUE(at_end.Seek(5, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(at_end.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  EXPECT_TRUE(got.empty());
  AppendRange(&writer, 5, 6);
  ASSERT_TRUE(at_end.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  EXPECT_EQ(got.size(), 2u);

  // Beyond the live end: the follower claims history this log never
  // wrote — divergence, not a wait.
  WalTailer ahead(wal_dir_);
  EXPECT_EQ(ahead.Seek(42, writer.durable_lsn() + 1).code(),
            StatusCode::kOutOfRange);
  writer.Stop();
}

TEST_F(WalTailTest, TruncationRespectsTheRetentionFloor) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  options.segment_bytes = 256;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 100);

  // A replica acked through LSN 30: truncation must keep every segment
  // holding records past 30, no matter how far the checkpoint got.
  writer.SetRetainLsn(30);
  ASSERT_TRUE(writer.TruncateThrough(/*ckpt_ts=*/100).ok());

  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(31, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().lsn, 31u);
  EXPECT_EQ(got.back().lsn, 100u);

  // Floor lifted (replica caught up / unregistered): the next truncation
  // is free to drop history, and a stale resume point must be refused —
  // the subscriber re-bootstraps from a checkpoint instead of limping on
  // with a hole.
  writer.SetRetainLsn(UINT64_MAX);
  ASSERT_TRUE(writer.TruncateThrough(/*ckpt_ts=*/100).ok());
  WalTailer stale(wal_dir_);
  EXPECT_EQ(stale.Seek(1, writer.durable_lsn() + 1).code(),
            StatusCode::kOutOfRange);
  writer.Stop();
}

TEST_F(WalTailTest, TruncationRacingAnActiveTail) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  options.segment_bytes = 256;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());
  AppendRange(&writer, 1, 50);

  // The tail has consumed half the log when a checkpoint truncates. The
  // floor (its acked LSN) keeps everything it still needs on disk.
  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(1, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), 25 * 64, &got).ok());
  ASSERT_FALSE(got.empty());
  const uint64_t acked = got.back().lsn;
  ASSERT_LT(acked, 50u);

  writer.SetRetainLsn(acked);
  ASSERT_TRUE(writer.TruncateThrough(/*ckpt_ts=*/50).ok());
  AppendRange(&writer, 51, 60);

  // The tail continues across the truncation without a gap.
  for (;;) {
    std::vector<TailRecord> more;
    ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &more).ok());
    if (more.empty()) break;
    for (const TailRecord& r : more) {
      EXPECT_EQ(r.lsn, got.back().lsn + 1);
      got.push_back(r);
    }
  }
  EXPECT_EQ(got.back().lsn, 60u);
  writer.Stop();
}

TEST_F(WalTailTest, EmptyLogSeeksOnlyAtTheLiveEnd) {
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1).ok());  // Segment exists, zero records.

  WalTailer tail(wal_dir_);
  EXPECT_TRUE(tail.Seek(1, writer.durable_lsn() + 1).ok());
  // Claiming older history against an empty log is a truncation hole.
  WalTailer stale(wal_dir_);
  EXPECT_EQ(stale.Seek(1, /*durable_next_lsn=*/7).code(),
            StatusCode::kOutOfRange);
  writer.Stop();
}

TEST_F(WalTailTest, ReplicatedAppendsPreserveForeignLsns) {
  // A replica's log mirrors the primary's LSNs; a tail over *that* log
  // (cascading reads, promotion) must see the original numbering.
  LogWriterOptions options;
  options.mode = DurabilityMode::kGroupCommit;
  LogWriter writer(wal_dir_, options);
  ASSERT_TRUE(writer.Open(1, {}, /*first_lsn=*/41).ok());
  for (int i = 0; i < 5; ++i) {
    writer.AppendReplicated(Payload(i + 1),
                            static_cast<mvcc::Timestamp>(i + 1),
                            /*lsn=*/41 + static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(writer.appended_lsn(), 45u);

  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(41, writer.durable_lsn() + 1).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(writer.durable_lsn(), SIZE_MAX, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.front().lsn, 41u);
  EXPECT_EQ(got.back().lsn, 45u);
  writer.Stop();
}

// The tail and recovery read one frame format through one decoder, but
// each keeps its own policy for a bad frame: recovery stops at it, the
// tail fails with IoError when the frame is durable and due, and waits
// when it is not. These drive every such branch on a hand-damaged log.
class DamagedTailTest : public WalTailTest {
 protected:
  static constexpr size_t kPayloadBytes = 37;  // Payload(i): one write.
  static constexpr size_t kFrameBytes = kRecordFrameBytes + kPayloadBytes;

  /// Byte offset of record `lsn`'s frame in the one segment WriteLog
  /// makes.
  static size_t FrameOffset(uint64_t lsn) {
    return kSegmentHeaderBytes + (lsn - 1) * kFrameBytes;
  }

  /// Writes records with the given LSNs into segment 1 and returns the
  /// segment's path.
  std::string WriteLog(const std::vector<uint64_t>& lsns) {
    LogWriterOptions options;
    options.mode = DurabilityMode::kGroupCommit;
    LogWriter writer(wal_dir_, options);
    EXPECT_TRUE(writer.Open(1).ok());
    for (const uint64_t lsn : lsns) {
      EXPECT_EQ(Payload(static_cast<int>(lsn)).size(), kPayloadBytes);
      writer.AppendReplicated(Payload(static_cast<int>(lsn)),
                              static_cast<mvcc::Timestamp>(lsn), lsn);
    }
    EXPECT_TRUE(writer.Sync().ok());
    writer.Stop();
    return wal_dir_ + "/" + SegmentFileName(1);
  }

  /// Overwrites the segment with `edit` applied to its bytes.
  static void Damage(const std::string& path,
                     const std::function<void(std::string*)>& edit) {
    std::string data;
    ASSERT_TRUE(ReadFile(path, &data).ok());
    edit(&data);
    ASSERT_TRUE(AtomicWriteFile(path, data).ok());
  }

  /// Seeks to LSN 1 and polls once up to `durable_limit`; returns the
  /// delivered LSNs, the Poll status in `*status`.
  std::vector<uint64_t> TailLsns(uint64_t durable_limit, Status* status) {
    WalTailer tail(wal_dir_);
    *status = tail.Seek(1, durable_limit + 1);
    std::vector<uint64_t> lsns;
    if (!status->ok()) return lsns;
    std::vector<TailRecord> got;
    *status = tail.Poll(durable_limit, SIZE_MAX, &got);
    for (const TailRecord& r : got) lsns.push_back(r.lsn);
    return lsns;
  }

  /// The LSNs recovery's scan delivers (no repair).
  std::vector<uint64_t> ScanLsns() {
    std::vector<uint64_t> lsns;
    auto scanned = LogReader::Scan(
        wal_dir_,
        [&](uint64_t lsn, const WalRecord&) {
          lsns.push_back(lsn);
          return Status::OK();
        },
        /*repair=*/false);
    EXPECT_TRUE(scanned.ok()) << scanned.status().ToString();
    return lsns;
  }
};

TEST_F(DamagedTailTest, BadSegmentHeaderIsAnIoError) {
  const std::string path = WriteLog({1, 2, 3});
  Damage(path, [](std::string* d) { (*d)[0] ^= 0x01; });  // Magic.
  WalTailer tail(wal_dir_);
  EXPECT_EQ(tail.Seek(1, 4).code(), StatusCode::kIoError);
  WalTailer unpositioned(wal_dir_);
  std::vector<TailRecord> got;
  EXPECT_EQ(unpositioned.Poll(3, SIZE_MAX, &got).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(got.empty());
}

TEST_F(DamagedTailTest, ImplausibleLengthAtADurableLsnIsAnIoError) {
  const std::string path = WriteLog({1, 2, 3});
  Damage(path, [](std::string* d) {
    const uint32_t huge = kMaxRecordBytes + 1;
    std::memcpy(d->data() + FrameOffset(2), &huge, sizeof(huge));
  });
  Status status;
  EXPECT_EQ(TailLsns(3, &status), (std::vector<uint64_t>{1}));
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST_F(DamagedTailTest, ChecksumMismatchAtTheNextLsnIsAnIoError) {
  const std::string path = WriteLog({1, 2, 3});
  Damage(path, [](std::string* d) {
    (*d)[FrameOffset(2) + kRecordFrameBytes + 3] ^= 0x10;
  });
  Status status;
  EXPECT_EQ(TailLsns(3, &status), (std::vector<uint64_t>{1}));
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST_F(DamagedTailTest, RecordsAboveTheDurableLimitWaitForALaterPoll) {
  WriteLog({1, 2, 3, 4, 5});  // All five are on disk.
  WalTailer tail(wal_dir_);
  ASSERT_TRUE(tail.Seek(1, 4).ok());
  std::vector<TailRecord> got;
  ASSERT_TRUE(tail.Poll(3, SIZE_MAX, &got).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.back().lsn, 3u);
  got.clear();
  ASSERT_TRUE(tail.Poll(3, SIZE_MAX, &got).ok());
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(tail.Poll(5, SIZE_MAX, &got).ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.front().lsn, 4u);
  EXPECT_EQ(got.back().lsn, 5u);
  EXPECT_EQ(tail.next_lsn(), 6u);
}

TEST_F(DamagedTailTest, LsnGapIsAnIoError) {
  WriteLog({1, 2, 4});
  Status status;
  EXPECT_EQ(TailLsns(4, &status), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST_F(DamagedTailTest, RecoveryAndTailDeliverTheSamePrefix) {
  const std::vector<std::pair<std::string,
                              std::function<void(std::string*)>>>
      damages = {
          {"flipped payload byte",
           [](std::string* d) {
             (*d)[FrameOffset(3) + kRecordFrameBytes + 5] ^= 0x04;
           }},
          {"flipped LSN byte",
           [](std::string* d) { (*d)[FrameOffset(3) + 8] ^= 0x01; }},
          {"implausible length",
           [](std::string* d) {
             const uint32_t huge = 0xFFFFFFFFu;
             std::memcpy(d->data() + FrameOffset(3), &huge, sizeof(huge));
           }},
          {"truncated frame",
           [](std::string* d) { d->resize(FrameOffset(3) + 20); }},
      };
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    RemoveDirRecursive(wal_dir_);
    const std::string path = WriteLog({1, 2, 3, 4, 5});
    Damage(path, damage);
    Status tail_status;
    const std::vector<uint64_t> tailed = TailLsns(5, &tail_status);
    EXPECT_EQ(ScanLsns(), (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(tailed, (std::vector<uint64_t>{1, 2}))
        << tail_status.ToString();
  }
}

}  // namespace
}  // namespace anker::wal
