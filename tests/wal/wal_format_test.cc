#include "wal/wal_format.h"

#include <gtest/gtest.h>

#include "wal/crc32c.h"

namespace anker::wal {
namespace {

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C check value: crc of the ASCII digits 1..9.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(0, digits, 9), 0xE3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 37));
  const uint32_t whole = Crc32c(0, data.data(), data.size());
  uint32_t split = Crc32c(0, data.data(), 123);
  split = Crc32c(split, data.data() + 123, data.size() - 123);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

TEST(WalFormatTest, CommitRoundTrip) {
  std::vector<RedoWrite> writes = {
      {0, 3, 17, 0xDEADBEEFULL},
      {2, 0, 9999999, ~0ULL},
      {1, 1, 0, 0},
  };
  std::string payload;
  EncodeCommit(/*commit_ts=*/4242, writes, &payload);

  WalRecord record;
  ASSERT_TRUE(DecodeRecord(payload, &record).ok());
  EXPECT_EQ(record.type, RecordType::kCommit);
  EXPECT_EQ(record.commit_ts, 4242u);
  ASSERT_EQ(record.writes.size(), writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(record.writes[i].table_id, writes[i].table_id);
    EXPECT_EQ(record.writes[i].column_id, writes[i].column_id);
    EXPECT_EQ(record.writes[i].row, writes[i].row);
    EXPECT_EQ(record.writes[i].value, writes[i].value);
  }
}

TEST(WalFormatTest, CreateTableRoundTrip) {
  std::vector<storage::ColumnDef> schema = {
      {"balance", storage::ValueType::kInt64},
      {"price", storage::ValueType::kDouble},
      {"flag", storage::ValueType::kDict32},
  };
  std::string payload;
  EncodeCreateTable(7, "accounts", 4096, schema, &payload);

  WalRecord record;
  ASSERT_TRUE(DecodeRecord(payload, &record).ok());
  EXPECT_EQ(record.type, RecordType::kCreateTable);
  EXPECT_EQ(record.table_id, 7u);
  EXPECT_EQ(record.table_name, "accounts");
  EXPECT_EQ(record.num_rows, 4096u);
  ASSERT_EQ(record.schema.size(), schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    EXPECT_EQ(record.schema[i].name, schema[i].name);
    EXPECT_EQ(record.schema[i].type, schema[i].type);
  }
}

TEST(WalFormatTest, DecodeRejectsUnknownColumnTypeTag) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(RecordType::kCreateTable));
  PutU32(&payload, 0);
  PutString(&payload, "t");
  PutU64(&payload, 8);
  PutU32(&payload, 1);
  PutString(&payload, "c");
  PutU8(&payload, 7);  // One past kDict32.
  WalRecord record;
  EXPECT_FALSE(DecodeRecord(payload, &record).ok());
}

TEST(WalFormatTest, DecodeRejectsTruncationAtEveryOffset) {
  std::vector<RedoWrite> writes = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  std::string payload;
  EncodeCommit(99, writes, &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WalRecord record;
    EXPECT_FALSE(
        DecodeRecord(std::string_view(payload.data(), cut), &record).ok())
        << "prefix of length " << cut << " decoded";
  }
}

TEST(WalFormatTest, DecodeRejectsTrailingGarbage) {
  std::string payload;
  EncodeCommit(1, {{0, 0, 0, 0}}, &payload);
  payload.push_back('\0');
  WalRecord record;
  EXPECT_FALSE(DecodeRecord(payload, &record).ok());
}

TEST(WalFormatTest, DecodeRejectsUnknownType) {
  std::string payload;
  PutU8(&payload, 0x7F);
  WalRecord record;
  EXPECT_FALSE(DecodeRecord(payload, &record).ok());
}

TEST(WalFormatTest, DecodeRejectsInflatedCounts) {
  // A count field inconsistent with the actual payload bytes must fail as
  // a malformed record, never size an allocation (a crafted CRC-valid
  // record must not crash recovery with bad_alloc).
  std::string commit;
  PutU8(&commit, static_cast<uint8_t>(RecordType::kCommit));
  PutU64(&commit, 1);
  PutU32(&commit, 0xFFFFFFFFu);  // Claims 4B writes, carries none.
  WalRecord record;
  EXPECT_FALSE(DecodeRecord(commit, &record).ok());

  std::string create;
  PutU8(&create, static_cast<uint8_t>(RecordType::kCreateTable));
  PutU32(&create, 0);
  PutString(&create, "t");
  PutU64(&create, 8);
  PutU32(&create, 0x40000000u);  // Claims a billion columns.
  EXPECT_FALSE(DecodeRecord(create, &record).ok());
}

TEST(WalFormatTest, PrimitivesRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0x12345678u);
  PutU64(&buf, 0xDEADBEEFCAFEF00DULL);
  PutString(&buf, "hello");
  std::string_view in(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  std::string s;
  ASSERT_TRUE(GetU8(&in, &u8));
  ASSERT_TRUE(GetU32(&in, &u32));
  ASSERT_TRUE(GetU64(&in, &u64));
  ASSERT_TRUE(GetString(&in, &s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace anker::wal
