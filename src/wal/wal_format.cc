#include "wal/wal_format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "wal/crc32c.h"
#include "wal/io_util.h"

namespace anker::wal {

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kLazy:
      return "lazy";
    case DurabilityMode::kGroupCommit:
      return "group_commit";
  }
  return "unknown";
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 8);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool GetU8(std::string_view* in, uint8_t* v) {
  if (in->size() < 1) return false;
  *v = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  return true;
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>((*in)[i])) << (8 * i);
  }
  *v = r;
  in->remove_prefix(4);
  return true;
}

bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>((*in)[i])) << (8 * i);
  }
  *v = r;
  in->remove_prefix(8);
  return true;
}

bool GetString(std::string_view* in, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(in, &len)) return false;
  if (in->size() < len) return false;
  s->assign(in->data(), len);
  in->remove_prefix(len);
  return true;
}

void PutRedoWrites(const std::vector<RedoWrite>& writes, std::string* out) {
  PutU32(out, static_cast<uint32_t>(writes.size()));
  for (const RedoWrite& w : writes) {
    PutU32(out, w.table_id);
    PutU32(out, w.column_id);
    PutU64(out, w.row);
    PutU64(out, w.value);
  }
}

bool GetRedoWrites(std::string_view* in, std::vector<RedoWrite>* writes) {
  uint32_t n = 0;
  if (!GetU32(in, &n)) return false;
  // Bound the count by the bytes that actually follow (24 per write)
  // before it sizes an allocation: a corrupt count that slips past a CRC
  // must fail as IoError, not as bad_alloc.
  if (static_cast<size_t>(n) * 24 > in->size()) return false;
  writes->clear();
  writes->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RedoWrite w;
    if (!GetU32(in, &w.table_id) || !GetU32(in, &w.column_id) ||
        !GetU64(in, &w.row) || !GetU64(in, &w.value)) {
      return false;
    }
    writes->push_back(w);
  }
  return true;
}

void PutSchema(const std::vector<storage::ColumnDef>& schema,
               std::string* out) {
  PutU32(out, static_cast<uint32_t>(schema.size()));
  for (const storage::ColumnDef& def : schema) {
    PutString(out, def.name);
    PutU8(out, static_cast<uint8_t>(def.type));
  }
}

bool GetSchema(std::string_view* in, std::vector<storage::ColumnDef>* schema) {
  uint32_t n = 0;
  if (!GetU32(in, &n)) return false;
  // Each column is at least 5 bytes (length-prefixed name + type).
  if (static_cast<size_t>(n) * 5 > in->size()) return false;
  schema->clear();
  schema->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    storage::ColumnDef def;
    uint8_t type = 0;
    if (!GetString(in, &def.name) || !GetU8(in, &type) ||
        type > static_cast<uint8_t>(storage::ValueType::kDict32)) {
      return false;
    }
    def.type = static_cast<storage::ValueType>(type);
    schema->push_back(std::move(def));
  }
  return true;
}

void EncodeCommit(mvcc::Timestamp commit_ts,
                  const std::vector<RedoWrite>& writes, std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kCommit));
  PutU64(out, commit_ts);
  PutRedoWrites(writes, out);
}

void EncodeCreateTable(uint32_t table_id, const std::string& name,
                       uint64_t num_rows,
                       const std::vector<storage::ColumnDef>& schema,
                       std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kCreateTable));
  PutU32(out, table_id);
  PutString(out, name);
  PutU64(out, num_rows);
  PutSchema(schema, out);
}

void EncodePrepare(uint64_t gtid, uint32_t primary_shard,
                   mvcc::Timestamp start_ts, mvcc::Timestamp prepare_ts,
                   const std::vector<RedoWrite>& writes, std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kPrepare));
  PutU64(out, gtid);
  PutU32(out, primary_shard);
  PutU64(out, start_ts);
  PutU64(out, prepare_ts);
  PutRedoWrites(writes, out);
}

void EncodeCommitPrepared(uint64_t gtid, mvcc::Timestamp commit_ts,
                          mvcc::Timestamp apply_ts,
                          const std::vector<RedoWrite>& writes,
                          std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kCommitPrepared));
  PutU64(out, gtid);
  PutU64(out, commit_ts);
  PutU64(out, apply_ts);
  PutRedoWrites(writes, out);
}

void EncodeAbortPrepared(uint64_t gtid, mvcc::Timestamp abort_ts,
                         std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kAbortPrepared));
  PutU64(out, gtid);
  PutU64(out, abort_ts);
}

Status DecodeRecord(std::string_view payload, WalRecord* record) {
  const Status malformed = Status::IoError("malformed WAL record payload");
  uint8_t type = 0;
  if (!GetU8(&payload, &type)) return malformed;
  switch (static_cast<RecordType>(type)) {
    case RecordType::kCommit: {
      record->type = RecordType::kCommit;
      if (!GetU64(&payload, &record->commit_ts)) return malformed;
      if (!GetRedoWrites(&payload, &record->writes)) return malformed;
      break;
    }
    case RecordType::kPrepare: {
      record->type = RecordType::kPrepare;
      if (!GetU64(&payload, &record->gtid) ||
          !GetU32(&payload, &record->primary_shard) ||
          !GetU64(&payload, &record->start_ts) ||
          !GetU64(&payload, &record->prepare_ts)) {
        return malformed;
      }
      if (!GetRedoWrites(&payload, &record->writes)) return malformed;
      break;
    }
    case RecordType::kCommitPrepared: {
      record->type = RecordType::kCommitPrepared;
      if (!GetU64(&payload, &record->gtid) ||
          !GetU64(&payload, &record->commit_ts) ||
          !GetU64(&payload, &record->apply_ts)) {
        return malformed;
      }
      if (!GetRedoWrites(&payload, &record->writes)) return malformed;
      break;
    }
    case RecordType::kAbortPrepared: {
      record->type = RecordType::kAbortPrepared;
      if (!GetU64(&payload, &record->gtid) ||
          !GetU64(&payload, &record->apply_ts)) {
        return malformed;
      }
      break;
    }
    case RecordType::kCreateTable: {
      record->type = RecordType::kCreateTable;
      if (!GetU32(&payload, &record->table_id) ||
          !GetString(&payload, &record->table_name) ||
          !GetU64(&payload, &record->num_rows) ||
          !GetSchema(&payload, &record->schema)) {
        return malformed;
      }
      break;
    }
    default:
      return Status::IoError("unknown WAL record type " +
                             std::to_string(type));
  }
  // Trailing bytes (a write-set count below what follows): not our record.
  if (!payload.empty()) return malformed;
  return Status::OK();
}

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

Status ListSegments(const std::string& wal_dir,
                    std::vector<SegmentFile>* out) {
  out->clear();
  if (!PathExists(wal_dir)) return Status::OK();
  std::vector<std::string> names;
  ANKER_RETURN_IF_ERROR(ListDir(wal_dir, &names));
  for (const std::string& name : names) {
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%llu.log%n", &seq, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      out->push_back(SegmentFile{seq, wal_dir + "/" + name});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  return Status::OK();
}

void EncodeSegmentHeader(uint64_t seq, std::string* out) {
  PutU64(out, kSegmentMagic);
  PutU32(out, kWalFormatVersion);
  PutU32(out, 0);  // padding / reserved
  PutU64(out, seq);
}

bool SegmentHeaderValid(std::string_view bytes, uint64_t seq) {
  uint64_t magic = 0, header_seq = 0;
  uint32_t version = 0, pad = 0;
  return GetU64(&bytes, &magic) && GetU32(&bytes, &version) &&
         GetU32(&bytes, &pad) && GetU64(&bytes, &header_seq) &&
         magic == kSegmentMagic && version == kWalFormatVersion &&
         header_seq == seq;
}

void AppendFrameHeader(uint32_t payload_bytes, uint64_t lsn,
                       std::string* out) {
  PutU32(out, payload_bytes);
  PutU32(out, 0);  // CRC, sealed at flush time.
  PutU64(out, lsn);
}

void SealFrame(char* frame, size_t frame_bytes) {
  // The CRC covers the LSN word and the payload (bytes 8.. of the frame).
  const uint32_t crc = MaskCrc(Crc32c(0, frame + 8, frame_bytes - 8));
  for (int i = 0; i < 4; ++i) frame[4 + i] = static_cast<char>(crc >> (8 * i));
}

FrameCheck DecodeFrame(std::string_view in, WalFrame* frame) {
  std::string_view rest = in;
  uint32_t masked_crc = 0;
  if (!GetU32(&rest, &frame->payload_bytes) || !GetU32(&rest, &masked_crc) ||
      !GetU64(&rest, &frame->lsn)) {
    return FrameCheck::kTruncated;
  }
  if (frame->payload_bytes > kMaxRecordBytes) return FrameCheck::kBadLength;
  if (rest.size() < frame->payload_bytes) return FrameCheck::kTruncated;
  if (Crc32c(0, in.data() + 8, 8 + frame->payload_bytes) !=
      UnmaskCrc(masked_crc)) {
    return FrameCheck::kBadCrc;
  }
  frame->payload = rest.substr(0, frame->payload_bytes);
  return FrameCheck::kOk;
}

}  // namespace anker::wal
