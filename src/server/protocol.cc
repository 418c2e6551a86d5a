#include "server/protocol.h"

#include <algorithm>
#include <cstring>

#include "wal/crc32c.h"
#include "wal/wal_format.h"

namespace anker::server {

namespace {

using wal::GetString;
using wal::GetU32;
using wal::GetU64;
using wal::GetU8;
using wal::PutString;
using wal::PutU32;
using wal::PutU64;
using wal::PutU8;

Status Truncated() { return Status::InvalidArgument("truncated message"); }

/// CREATE_TABLE and TABLES carry schemas in the WAL's encoding
/// (wal::PutSchema / wal::GetSchema); the wire also caps the column count.
constexpr size_t kMaxSchemaColumns = 4096;

Status ExpectDrained(std::string_view in) {
  if (!in.empty()) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return Status::OK();
}

bool GetBool(std::string_view* in, bool* v) {
  uint8_t byte = 0;
  if (!GetU8(in, &byte) || byte > 1) return false;
  *v = byte == 1;
  return true;
}

}  // namespace

std::string OpOnly(Op op) { return std::string(1, static_cast<char>(op)); }

bool IsRequestOp(uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kHello:
    case Op::kPing:
    case Op::kBegin:
    case Op::kCommit:
    case Op::kAbort:
    case Op::kRead:
    case Op::kWrite:
    case Op::kWriteBatch:
    case Op::kExecTxn:
    case Op::kQuery:
    case Op::kCreateTable:
    case Op::kLoad:
    case Op::kBuildIndex:
    case Op::kListTables:
    case Op::kDictDefine:
    case Op::kReplicateHello:
    case Op::kFetchCheckpoint:
    case Op::kReplicaStatus:
    case Op::kWaitLsn:
    case Op::kPromote:
    case Op::kCheckpointNow:
    case Op::kDigest:
    case Op::kRouterStatus:
    case Op::kDecommissionReplica:
    case Op::kPrepareTxn:
    case Op::kCommitPrepared:
    case Op::kAbortPrepared:
    case Op::kResolveIntent:
      return true;
    default:
      return false;
  }
}

WireError WireErrorFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireError::kOk;
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireError::kAlreadyExists;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kIoError:
      return WireError::kIoError;
    case StatusCode::kAborted:
      return WireError::kAborted;
    case StatusCode::kResourceBusy:
      return WireError::kResourceBusy;
    case StatusCode::kNotSupported:
      return WireError::kNotSupported;
    case StatusCode::kInternal:
      return WireError::kInternal;
  }
  return WireError::kInternal;
}

Status StatusFromWire(WireError code, std::string message) {
  switch (code) {
    case WireError::kOk:
      return Status::OK();
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireError::kNotFound:
      return Status::NotFound(std::move(message));
    case WireError::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case WireError::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case WireError::kIoError:
      return Status::IoError(std::move(message));
    case WireError::kAborted:
      return Status::Aborted(std::move(message));
    case WireError::kResourceBusy:
      return Status::ResourceBusy(std::move(message));
    case WireError::kNotSupported:
      return Status::NotSupported(std::move(message));
    case WireError::kInternal:
      return Status::Internal(std::move(message));
    case WireError::kBadHandshake:
      return Status::InvalidArgument("handshake: " + message);
    case WireError::kProtocolError:
      return Status::InvalidArgument("protocol: " + message);
    case WireError::kReadOnlyReplica:
      // Retryable by reconnecting to the primary; kResourceBusy keeps it
      // in the "try elsewhere / try later" class rather than a hard fail.
      return Status::ResourceBusy("read-only replica: " + message);
  }
  return Status::Internal(std::move(message));
}

void EncodeFrame(std::string_view payload, std::string* out) {
  ANKER_CHECK_MSG(payload.size() <= kMaxFramePayload,
                  "frame payload exceeds kMaxFramePayload");
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, wal::MaskCrc(wal::Crc32c(0, payload.data(), payload.size())));
  out->append(payload);
}

FrameStatus DecodeFrame(std::string_view buffer, std::string_view* payload,
                        size_t* consumed) {
  if (buffer.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  uint32_t len = 0, masked = 0;
  std::string_view header = buffer.substr(0, kFrameHeaderBytes);
  GetU32(&header, &len);
  GetU32(&header, &masked);
  if (len > kMaxFramePayload) return FrameStatus::kCorrupt;
  if (buffer.size() < kFrameHeaderBytes + len) return FrameStatus::kNeedMore;
  std::string_view body = buffer.substr(kFrameHeaderBytes, len);
  const uint32_t crc = wal::Crc32c(0, body.data(), body.size());
  if (wal::MaskCrc(crc) != masked) return FrameStatus::kCorrupt;
  *payload = body;
  *consumed = kFrameHeaderBytes + len;
  return FrameStatus::kOk;
}

void EncodeHello(const HelloMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kHello));
  PutU64(out, kHelloMagic);
  PutU32(out, msg.version);
  PutString(out, msg.auth_token);
}

Status DecodeHello(std::string_view in, HelloMsg* msg) {
  uint64_t magic = 0;
  if (!GetU64(&in, &magic) || !GetU32(&in, &msg->version) ||
      !GetString(&in, &msg->auth_token)) {
    return Truncated();
  }
  if (magic != kHelloMagic) {
    return Status::InvalidArgument("bad HELLO magic");
  }
  return ExpectDrained(in);
}

void EncodeHelloOk(const HelloOkMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kHelloOk));
  PutU32(out, msg.version);
  PutString(out, msg.server_info);
  PutU32(out, msg.flags);
  PutU64(out, msg.shard_map_digest);
}

Status DecodeHelloOk(std::string_view in, HelloOkMsg* msg) {
  if (!GetU32(&in, &msg->version) || !GetString(&in, &msg->server_info) ||
      !GetU32(&in, &msg->flags) || !GetU64(&in, &msg->shard_map_digest)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

void EncodeErr(Op op, const ErrMsg& msg, std::string* out) {
  ANKER_CHECK(op == Op::kErr || op == Op::kBusy);
  PutU8(out, static_cast<uint8_t>(op));
  PutU8(out, static_cast<uint8_t>(msg.code));
  PutString(out, msg.message);
}

Status DecodeErr(std::string_view in, ErrMsg* msg) {
  uint8_t code = 0;
  if (!GetU8(&in, &code) || !GetString(&in, &msg->message)) {
    return Truncated();
  }
  msg->code = static_cast<WireError>(code);
  return ExpectDrained(in);
}

void EncodePointRead(const PointReadMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kRead));
  PutString(out, msg.table);
  PutString(out, msg.column);
  PutU8(out, msg.by_key ? 1 : 0);
  PutU64(out, msg.key);
}

Status DecodePointRead(std::string_view in, PointReadMsg* msg) {
  if (!GetString(&in, &msg->table) || !GetString(&in, &msg->column) ||
      !GetBool(&in, &msg->by_key) || !GetU64(&in, &msg->key)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

namespace {

void PutWriteBody(const PointWrite& write, std::string* out) {
  PutString(out, write.table);
  PutString(out, write.column);
  PutU8(out, write.by_key ? 1 : 0);
  PutU64(out, write.key);
  PutU64(out, write.raw);
}

bool GetWriteBody(std::string_view* in, PointWrite* write) {
  return GetString(in, &write->table) && GetString(in, &write->column) &&
         GetBool(in, &write->by_key) && GetU64(in, &write->key) &&
         GetU64(in, &write->raw);
}

}  // namespace

void EncodeWrite(const PointWrite& write, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kWrite));
  PutWriteBody(write, out);
}

Status DecodeWrite(std::string_view in, PointWrite* write) {
  if (!GetWriteBody(&in, write)) return Truncated();
  return ExpectDrained(in);
}

void EncodeWriteBatch(Op op, const std::vector<PointWrite>& writes,
                      std::string* out) {
  ANKER_CHECK(op == Op::kWriteBatch || op == Op::kExecTxn);
  ANKER_CHECK(writes.size() <= kMaxWritesPerBatch);
  PutU8(out, static_cast<uint8_t>(op));
  PutU32(out, static_cast<uint32_t>(writes.size()));
  for (const PointWrite& write : writes) PutWriteBody(write, out);
}

Status DecodeWriteBatch(std::string_view in, std::vector<PointWrite>* writes) {
  uint32_t count = 0;
  if (!GetU32(&in, &count)) return Truncated();
  if (count > kMaxWritesPerBatch) {
    return Status::InvalidArgument("write batch too large");
  }
  writes->clear();
  writes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PointWrite write;
    if (!GetWriteBody(&in, &write)) return Truncated();
    writes->push_back(std::move(write));
  }
  return ExpectDrained(in);
}

void EncodeReadOk(uint64_t raw, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kReadOk));
  PutU64(out, raw);
}

Status DecodeReadOk(std::string_view in, uint64_t* raw) {
  if (!GetU64(&in, raw)) return Truncated();
  return ExpectDrained(in);
}

Status EncodeQuery(const QueryMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kQuery));
  ANKER_RETURN_IF_ERROR(query::EncodeWireQuery(msg.query, out));
  query::EncodeParams(msg.params, out);
  return Status::OK();
}

Status DecodeQuery(std::string_view in, QueryMsg* msg) {
  ANKER_RETURN_IF_ERROR(query::DecodeWireQuery(&in, &msg->query));
  ANKER_RETURN_IF_ERROR(query::DecodeParams(&in, &msg->params));
  return ExpectDrained(in);
}

void EncodeQueryBatch(const query::QueryResult& result, size_t row_begin,
                      size_t row_end, std::string* out) {
  ANKER_CHECK(row_begin <= row_end && row_end <= result.rows.size());
  PutU8(out, static_cast<uint8_t>(Op::kQueryBatch));
  PutU32(out, static_cast<uint32_t>(row_end - row_begin));
  for (size_t r = row_begin; r < row_end; ++r) {
    const query::QueryResult::Row& row = result.rows[r];
    PutU32(out, static_cast<uint32_t>(row.keys.size()));
    for (uint64_t key : row.keys) PutU64(out, key);
    PutU32(out, static_cast<uint32_t>(row.values.size()));
    for (double value : row.values) {
      PutU64(out, storage::EncodeDouble(value));
    }
  }
}

Status DecodeQueryBatch(std::string_view in, query::QueryResult* result) {
  uint32_t nrows = 0;
  if (!GetU32(&in, &nrows)) return Truncated();
  if (nrows > kMaxFramePayload / 8) {
    return Status::InvalidArgument("query batch row count implausible");
  }
  for (uint32_t r = 0; r < nrows; ++r) {
    query::QueryResult::Row row;
    uint32_t nkeys = 0;
    if (!GetU32(&in, &nkeys) || nkeys > in.size() / 8 + 1) return Truncated();
    row.keys.reserve(nkeys);
    for (uint32_t k = 0; k < nkeys; ++k) {
      uint64_t raw = 0;
      if (!GetU64(&in, &raw)) return Truncated();
      row.keys.push_back(raw);
    }
    uint32_t nvals = 0;
    if (!GetU32(&in, &nvals) || nvals > in.size() / 8 + 1) return Truncated();
    row.values.reserve(nvals);
    for (uint32_t v = 0; v < nvals; ++v) {
      uint64_t raw = 0;
      if (!GetU64(&in, &raw)) return Truncated();
      row.values.push_back(storage::DecodeDouble(raw));
    }
    result->rows.push_back(std::move(row));
  }
  return ExpectDrained(in);
}

void EncodeQueryDone(const query::QueryResult& result, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kQueryDone));
  PutU32(out, static_cast<uint32_t>(result.columns.size()));
  for (const std::string& name : result.columns) PutString(out, name);
  PutU32(out, static_cast<uint32_t>(result.key_names.size()));
  for (const std::string& name : result.key_names) PutString(out, name);
  // One type tag per key column (v2: keys are typed 64-bit raws, not
  // bare dictionary codes).
  for (const query::ExprType type : result.key_types) {
    PutU8(out, static_cast<uint8_t>(type));
  }
  PutU64(out, result.rows_scanned);
  PutU64(out, static_cast<uint64_t>(result.rows.size()));
  // v4: the output schema's key/value interleave (one byte per output
  // column in DAG schema order; 0 = key slot, 1 = value slot). Empty
  // means "keys then values" — the pre-v4 assumption.
  PutU32(out, static_cast<uint32_t>(result.interleave.size()));
  for (const uint8_t tag : result.interleave) PutU8(out, tag);
  // v4: shards that did not contribute (router --allow_partial with a
  // shard down). 0 = complete; a plain engine server always sends 0.
  PutU32(out, result.shards_missing);
}

Status DecodeQueryDone(std::string_view in, query::QueryResult* result) {
  uint32_t ncols = 0;
  if (!GetU32(&in, &ncols) || ncols > query::kMaxWireQueryLists) {
    return Truncated();
  }
  result->columns.clear();
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name;
    if (!GetString(&in, &name)) return Truncated();
    result->columns.push_back(std::move(name));
  }
  uint32_t nkeys = 0;
  if (!GetU32(&in, &nkeys) || nkeys > query::kMaxWireQueryLists) {
    return Truncated();
  }
  result->key_names.clear();
  for (uint32_t i = 0; i < nkeys; ++i) {
    std::string name;
    if (!GetString(&in, &name)) return Truncated();
    result->key_names.push_back(std::move(name));
  }
  result->key_types.clear();
  for (uint32_t i = 0; i < nkeys; ++i) {
    uint8_t tag = 0;
    if (!GetU8(&in, &tag)) return Truncated();
    if (tag > static_cast<uint8_t>(query::ExprType::kBool)) {
      return Status::InvalidArgument("unknown key type tag");
    }
    result->key_types.push_back(static_cast<query::ExprType>(tag));
  }
  uint64_t total_rows = 0;
  if (!GetU64(&in, &result->rows_scanned) || !GetU64(&in, &total_rows)) {
    return Truncated();
  }
  if (total_rows != result->rows.size()) {
    return Status::InvalidArgument("query stream lost rows in transit");
  }
  uint32_t ninter = 0;
  if (!GetU32(&in, &ninter)) return Truncated();
  if (ninter != 0 && ninter != ncols + nkeys) {
    return Status::InvalidArgument("interleave length mismatch");
  }
  result->interleave.clear();
  uint32_t value_tags = 0;
  for (uint32_t i = 0; i < ninter; ++i) {
    uint8_t tag = 0;
    if (!GetU8(&in, &tag)) return Truncated();
    if (tag > 1) return Status::InvalidArgument("bad interleave tag");
    value_tags += tag;
    result->interleave.push_back(tag);
  }
  if (ninter != 0 && (value_tags != ncols || ninter - value_tags != nkeys)) {
    return Status::InvalidArgument("interleave tag counts mismatch");
  }
  if (!GetU32(&in, &result->shards_missing)) return Truncated();
  return ExpectDrained(in);
}

void EncodeQueryResultFrames(const query::QueryResult& result,
                             std::string* out) {
  std::string response;
  for (size_t begin = 0; begin < result.rows.size();
       begin += kQueryBatchRows) {
    const size_t end = std::min(begin + kQueryBatchRows, result.rows.size());
    response.clear();
    EncodeQueryBatch(result, begin, end, &response);
    EncodeFrame(response, out);
  }
  response.clear();
  EncodeQueryDone(result, &response);
  EncodeFrame(response, out);
}

void EncodeCreateTable(const CreateTableMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kCreateTable));
  PutString(out, msg.name);
  PutU64(out, msg.num_rows);
  wal::PutSchema(msg.schema, out);
}

Status DecodeCreateTable(std::string_view in, CreateTableMsg* msg) {
  if (!GetString(&in, &msg->name) || !GetU64(&in, &msg->num_rows)) {
    return Truncated();
  }
  if (msg->num_rows > kMaxWireTableRows) {
    return Status::InvalidArgument(
        "table row count exceeds the wire limit");
  }
  if (!wal::GetSchema(&in, &msg->schema) ||
      msg->schema.size() > kMaxSchemaColumns) {
    return Status::InvalidArgument("bad schema");
  }
  return ExpectDrained(in);
}

void EncodeLoad(const LoadMsg& msg, std::string* out) {
  ANKER_CHECK(msg.values.size() <= kMaxLoadValues);
  PutU8(out, static_cast<uint8_t>(Op::kLoad));
  PutString(out, msg.table);
  PutString(out, msg.column);
  PutU64(out, msg.start_row);
  PutU32(out, static_cast<uint32_t>(msg.values.size()));
  for (uint64_t value : msg.values) PutU64(out, value);
}

Status DecodeLoad(std::string_view in, LoadMsg* msg) {
  if (!GetString(&in, &msg->table) || !GetString(&in, &msg->column) ||
      !GetU64(&in, &msg->start_row)) {
    return Truncated();
  }
  uint32_t count = 0;
  if (!GetU32(&in, &count) || count > kMaxLoadValues) {
    return Status::InvalidArgument("bad load value count");
  }
  msg->values.clear();
  msg->values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    if (!GetU64(&in, &value)) return Truncated();
    msg->values.push_back(value);
  }
  return ExpectDrained(in);
}

void EncodeBuildIndex(const BuildIndexMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kBuildIndex));
  PutString(out, msg.table);
  PutString(out, msg.key_column);
}

Status DecodeBuildIndex(std::string_view in, BuildIndexMsg* msg) {
  if (!GetString(&in, &msg->table) || !GetString(&in, &msg->key_column)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

void EncodeDictDefine(const DictDefineMsg& msg, std::string* out) {
  ANKER_CHECK(msg.values.size() <= kMaxLoadValues);
  PutU8(out, static_cast<uint8_t>(Op::kDictDefine));
  PutString(out, msg.table);
  PutString(out, msg.column);
  PutU32(out, static_cast<uint32_t>(msg.values.size()));
  for (const std::string& value : msg.values) PutString(out, value);
}

Status DecodeDictDefine(std::string_view in, DictDefineMsg* msg) {
  if (!GetString(&in, &msg->table) || !GetString(&in, &msg->column)) {
    return Truncated();
  }
  uint32_t count = 0;
  if (!GetU32(&in, &count) || count > kMaxLoadValues) {
    return Status::InvalidArgument("bad dictionary entry count");
  }
  msg->values.clear();
  msg->values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string value;
    if (!GetString(&in, &value)) return Truncated();
    msg->values.push_back(std::move(value));
  }
  return ExpectDrained(in);
}

void EncodeTables(const std::vector<TableInfo>& tables, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kTables));
  PutU32(out, static_cast<uint32_t>(tables.size()));
  for (const TableInfo& info : tables) {
    PutString(out, info.name);
    PutU64(out, info.num_rows);
    PutU8(out, info.has_primary_index ? 1 : 0);
    wal::PutSchema(info.schema, out);
  }
}

Status DecodeTables(std::string_view in, std::vector<TableInfo>* tables) {
  uint32_t ntables = 0;
  if (!GetU32(&in, &ntables) || ntables > 65536) {
    return Status::InvalidArgument("bad table count");
  }
  tables->clear();
  for (uint32_t t = 0; t < ntables; ++t) {
    TableInfo info;
    if (!GetString(&in, &info.name) || !GetU64(&in, &info.num_rows) ||
        !GetBool(&in, &info.has_primary_index)) {
      return Truncated();
    }
    if (!wal::GetSchema(&in, &info.schema) ||
        info.schema.size() > kMaxSchemaColumns) {
      return Status::InvalidArgument("bad schema");
    }
    tables->push_back(std::move(info));
  }
  return ExpectDrained(in);
}

void EncodeReplicateHello(const ReplicateHelloMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kReplicateHello));
  PutString(out, msg.replica_id);
  PutU64(out, msg.start_lsn);
  PutU8(out, msg.sync_ack ? 1 : 0);
}

Status DecodeReplicateHello(std::string_view in, ReplicateHelloMsg* msg) {
  if (!GetString(&in, &msg->replica_id) || !GetU64(&in, &msg->start_lsn) ||
      !GetBool(&in, &msg->sync_ack)) {
    return Truncated();
  }
  if (msg->replica_id.empty() || msg->replica_id.size() > 256) {
    return Status::InvalidArgument("bad replica id");
  }
  if (msg->start_lsn == 0) {
    return Status::InvalidArgument("replication start LSN must be >= 1");
  }
  return ExpectDrained(in);
}

void EncodeReplicaStatus(const ReplicaStatusMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kReplicaStatus));
  PutU64(out, msg.durable_lsn);
  PutU64(out, msg.applied_lsn);
}

Status DecodeReplicaStatus(std::string_view in, ReplicaStatusMsg* msg) {
  if (!GetU64(&in, &msg->durable_lsn) || !GetU64(&in, &msg->applied_lsn)) {
    return Truncated();
  }
  if (msg->applied_lsn > msg->durable_lsn) {
    // A record becomes visible only after it was mirrored; a claim to
    // have applied past its own durable watermark is lying or corrupt —
    // and would drag the primary's retention floor forward incorrectly.
    return Status::InvalidArgument("replica ack: applied > durable");
  }
  return ExpectDrained(in);
}

void EncodeLogStream(uint64_t primary_durable_lsn,
                     const std::vector<StreamRecord>& records,
                     std::string* out) {
  ANKER_CHECK(records.size() <= kMaxLogStreamRecords);
  PutU8(out, static_cast<uint8_t>(Op::kLogStream));
  PutU64(out, primary_durable_lsn);
  PutU32(out, static_cast<uint32_t>(records.size()));
  for (const StreamRecord& record : records) {
    PutU64(out, record.lsn);
    PutString(out, record.payload);
  }
}

Status DecodeLogStream(std::string_view in, uint64_t* primary_durable_lsn,
                       std::vector<StreamRecord>* records) {
  uint32_t count = 0;
  if (!GetU64(&in, primary_durable_lsn) || !GetU32(&in, &count)) {
    return Truncated();
  }
  if (count > kMaxLogStreamRecords) {
    return Status::InvalidArgument("log stream record count implausible");
  }
  records->clear();
  records->reserve(count);
  uint64_t prev_lsn = 0;
  for (uint32_t i = 0; i < count; ++i) {
    StreamRecord record;
    if (!GetU64(&in, &record.lsn) || !GetString(&in, &record.payload)) {
      return Truncated();
    }
    if (record.lsn == 0 || record.lsn <= prev_lsn) {
      return Status::InvalidArgument("log stream LSNs not increasing");
    }
    if (record.lsn > *primary_durable_lsn) {
      return Status::InvalidArgument(
          "log stream record beyond the durable watermark");
    }
    if (record.payload.size() > wal::kMaxRecordBytes) {
      return Status::InvalidArgument("log stream record implausibly large");
    }
    prev_lsn = record.lsn;
    records->push_back(std::move(record));
  }
  return ExpectDrained(in);
}

namespace {

/// A checkpoint file travels as a relative path ("ckpt-12/MANIFEST",
/// "extents/ext-3.ext", the CURRENT pointer). Reject anything that could
/// escape the replica's data_dir.
bool SafeRelativePath(const std::string& path) {
  if (path.empty() || path.size() > 4096 || path.front() == '/') return false;
  size_t begin = 0;
  while (begin <= path.size()) {
    const size_t end = std::min(path.find('/', begin), path.size());
    const std::string_view part(path.data() + begin, end - begin);
    if (part.empty() || part == "." || part == "..") return false;
    begin = end + 1;
  }
  return true;
}

}  // namespace

void EncodeCkptChunk(const CkptChunkMsg& msg, std::string* out) {
  ANKER_CHECK(msg.data.size() <= kMaxCkptChunkBytes);
  PutU8(out, static_cast<uint8_t>(Op::kCkptChunk));
  PutString(out, msg.file);
  PutU64(out, msg.offset);
  PutU8(out, msg.last ? 1 : 0);
  PutString(out, msg.data);
}

Status DecodeCkptChunk(std::string_view in, CkptChunkMsg* msg) {
  if (!GetString(&in, &msg->file) || !GetU64(&in, &msg->offset) ||
      !GetBool(&in, &msg->last) || !GetString(&in, &msg->data)) {
    return Truncated();
  }
  if (!SafeRelativePath(msg->file)) {
    return Status::InvalidArgument("unsafe checkpoint file path");
  }
  if (msg->data.size() > kMaxCkptChunkBytes) {
    return Status::InvalidArgument("checkpoint chunk too large");
  }
  return ExpectDrained(in);
}

void EncodeCkptDone(uint32_t file_count, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kCkptDone));
  PutU32(out, file_count);
}

Status DecodeCkptDone(std::string_view in, uint32_t* file_count) {
  if (!GetU32(&in, file_count)) return Truncated();
  return ExpectDrained(in);
}

void EncodeWaitLsn(const WaitLsnMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kWaitLsn));
  PutU64(out, msg.lsn);
  PutU32(out, msg.timeout_millis);
}

Status DecodeWaitLsn(std::string_view in, WaitLsnMsg* msg) {
  if (!GetU64(&in, &msg->lsn) || !GetU32(&in, &msg->timeout_millis)) {
    return Truncated();
  }
  if (msg->timeout_millis > 60'000) {
    // A remote peer must not be able to park a server slot for hours.
    msg->timeout_millis = 60'000;
  }
  return ExpectDrained(in);
}

void EncodeCommitOk(uint64_t lsn, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kCommitOk));
  PutU64(out, lsn);
}

Status DecodeCommitOk(std::string_view in, uint64_t* lsn) {
  if (!GetU64(&in, lsn)) return Truncated();
  return ExpectDrained(in);
}

void EncodeReplicaStatusOk(const ReplicaStatusOkMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kReplicaStatusOk));
  PutU8(out, static_cast<uint8_t>(msg.role));
  PutU8(out, msg.stream_connected ? 1 : 0);
  PutU64(out, msg.applied_lsn);
  PutU64(out, msg.durable_lsn);
  PutU64(out, msg.staleness_millis);
  PutString(out, msg.primary_addr);
  PutU64(out, msg.pending_intents);
}

Status DecodeReplicaStatusOk(std::string_view in, ReplicaStatusOkMsg* msg) {
  uint8_t role = 0;
  if (!GetU8(&in, &role) || !GetBool(&in, &msg->stream_connected) ||
      !GetU64(&in, &msg->applied_lsn) || !GetU64(&in, &msg->durable_lsn) ||
      !GetU64(&in, &msg->staleness_millis) ||
      !GetString(&in, &msg->primary_addr) ||
      !GetU64(&in, &msg->pending_intents)) {
    return Truncated();
  }
  if (role > static_cast<uint8_t>(NodeRole::kPromoted)) {
    return Status::InvalidArgument("unknown node role");
  }
  msg->role = static_cast<NodeRole>(role);
  return ExpectDrained(in);
}

void EncodeDigestOk(uint64_t digest, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kDigestOk));
  PutU64(out, digest);
}

Status DecodeDigestOk(std::string_view in, uint64_t* digest) {
  if (!GetU64(&in, digest)) return Truncated();
  return ExpectDrained(in);
}

void EncodeDecommissionReplica(const DecommissionReplicaMsg& msg,
                               std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kDecommissionReplica));
  PutString(out, msg.replica_id);
}

Status DecodeDecommissionReplica(std::string_view in,
                                 DecommissionReplicaMsg* msg) {
  if (!GetString(&in, &msg->replica_id)) return Truncated();
  if (msg->replica_id.empty() || msg->replica_id.size() > 256) {
    return Status::InvalidArgument("bad replica id");
  }
  return ExpectDrained(in);
}

void EncodeRouterStatusOk(const RouterStatusOkMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kRouterStatusOk));
  PutU32(out, msg.shard_count);
  PutU32(out, msg.healthy_shards);
  PutU32(out, msg.shard_map_version);
  PutU64(out, msg.shard_map_digest);
  PutU8(out, msg.allow_partial ? 1 : 0);
  PutU64(out, msg.passthrough_txns);
  PutU64(out, msg.scatter_queries);
  PutU64(out, msg.single_shard_queries);
  PutU64(out, msg.fanout_ops);
  PutU64(out, msg.twopc_txns);
  PutU64(out, msg.intent_resolutions);
}

Status DecodeRouterStatusOk(std::string_view in, RouterStatusOkMsg* msg) {
  if (!GetU32(&in, &msg->shard_count) || !GetU32(&in, &msg->healthy_shards) ||
      !GetU32(&in, &msg->shard_map_version) ||
      !GetU64(&in, &msg->shard_map_digest) ||
      !GetBool(&in, &msg->allow_partial) ||
      !GetU64(&in, &msg->passthrough_txns) ||
      !GetU64(&in, &msg->scatter_queries) ||
      !GetU64(&in, &msg->single_shard_queries) ||
      !GetU64(&in, &msg->fanout_ops) || !GetU64(&in, &msg->twopc_txns) ||
      !GetU64(&in, &msg->intent_resolutions)) {
    return Truncated();
  }
  if (msg->healthy_shards > msg->shard_count) {
    return Status::InvalidArgument("healthy shard count exceeds shard count");
  }
  return ExpectDrained(in);
}

void EncodePrepareTxn(const PrepareTxnMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kPrepareTxn));
  PutU64(out, msg.gtid);
  PutU32(out, msg.primary_shard);
  PutU32(out, static_cast<uint32_t>(msg.writes.size()));
  for (const PointWrite& write : msg.writes) PutWriteBody(write, out);
}

Status DecodePrepareTxn(std::string_view in, PrepareTxnMsg* msg) {
  uint32_t count = 0;
  if (!GetU64(&in, &msg->gtid) || !GetU32(&in, &msg->primary_shard) ||
      !GetU32(&in, &count)) {
    return Truncated();
  }
  if (count == 0 || count > kMaxWritesPerBatch) {
    return Status::InvalidArgument("bad prepare write count");
  }
  msg->writes.clear();
  msg->writes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PointWrite write;
    if (!GetWriteBody(&in, &write)) return Truncated();
    msg->writes.push_back(std::move(write));
  }
  return ExpectDrained(in);
}

void EncodePreparedOk(const PreparedOkMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kPreparedOk));
  PutU64(out, msg.prepare_ts);
  PutU64(out, msg.lsn);
}

Status DecodePreparedOk(std::string_view in, PreparedOkMsg* msg) {
  if (!GetU64(&in, &msg->prepare_ts) || !GetU64(&in, &msg->lsn)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

void EncodeCommitPrepared(const CommitPreparedMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kCommitPrepared));
  PutU64(out, msg.gtid);
  PutU64(out, msg.commit_ts);
}

Status DecodeCommitPrepared(std::string_view in, CommitPreparedMsg* msg) {
  if (!GetU64(&in, &msg->gtid) || !GetU64(&in, &msg->commit_ts)) {
    return Truncated();
  }
  if (msg->commit_ts == 0) {
    return Status::InvalidArgument("commit_ts must be nonzero");
  }
  return ExpectDrained(in);
}

void EncodeAbortPrepared(const AbortPreparedMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kAbortPrepared));
  PutU64(out, msg.gtid);
}

Status DecodeAbortPrepared(std::string_view in, AbortPreparedMsg* msg) {
  if (!GetU64(&in, &msg->gtid)) return Truncated();
  return ExpectDrained(in);
}

void EncodeResolveIntent(const ResolveIntentMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kResolveIntent));
  PutU64(out, msg.gtid);
  PutU8(out, msg.abort_pending ? 1 : 0);
}

Status DecodeResolveIntent(std::string_view in, ResolveIntentMsg* msg) {
  if (!GetU64(&in, &msg->gtid) || !GetBool(&in, &msg->abort_pending)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

void EncodeResolvedOk(const ResolvedOkMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kResolvedOk));
  PutU8(out, msg.outcome);
  PutU64(out, msg.commit_ts);
}

Status DecodeResolvedOk(std::string_view in, ResolvedOkMsg* msg) {
  if (!GetU8(&in, &msg->outcome) || !GetU64(&in, &msg->commit_ts)) {
    return Truncated();
  }
  if (msg->outcome > 2) {
    return Status::InvalidArgument("unknown txn outcome");
  }
  return ExpectDrained(in);
}

void EncodeIntentPending(const IntentPendingMsg& msg, std::string* out) {
  PutU8(out, static_cast<uint8_t>(Op::kIntentPending));
  PutU64(out, msg.gtid);
  PutU32(out, msg.primary_shard);
}

Status DecodeIntentPending(std::string_view in, IntentPendingMsg* msg) {
  if (!GetU64(&in, &msg->gtid) || !GetU32(&in, &msg->primary_shard)) {
    return Truncated();
  }
  return ExpectDrained(in);
}

}  // namespace anker::server
