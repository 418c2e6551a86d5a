#ifndef ANKER_SERVER_PROTOCOL_H_
#define ANKER_SERVER_PROTOCOL_H_

// The anker wire protocol: CRC-framed, length-prefixed binary messages
// over TCP. One frame carries one request or one response; the first
// payload byte is the opcode. Framing reuses the WAL's integrity idiom —
// little-endian fields (wal/wal_format.h) and masked CRC32C
// (wal/crc32c.h) — so a torn or corrupted frame is detected before any
// payload byte is interpreted. The full specification (frame layout,
// opcode table, error codes, versioning rules) lives in docs/SERVER.md;
// this header is its executable form.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/serialize.h"
#include "storage/table.h"

namespace anker::server {

/// ---- frame layout --------------------------------------------------------
/// | u32 payload_len | u32 masked CRC32C(payload) | payload bytes |
/// A frame is only acted on once complete and checksum-verified.

inline constexpr size_t kFrameHeaderBytes = 8;
/// Upper bound on one frame's payload. Large enough for a maximal result
/// batch or bulk load slice, small enough that a torn/hostile length
/// field cannot drive a gigabyte allocation (same reasoning as
/// wal::kMaxRecordBytes).
inline constexpr uint32_t kMaxFramePayload = 4u << 20;

/// Protocol version exchanged in HELLO. The server refuses other
/// versions; see docs/SERVER.md for the compatibility rules.
/// v2: QUERY carries operator-DAG forms (joins, order/limit, window,
/// select); QUERY_BATCH key slots widened to typed 64-bit raws and
/// QUERY_DONE gained per-key type tags.
/// v3: replication surface (REPLICATE_HELLO / FETCH_CHECKPOINT /
/// LOG_STREAM / REPLICA_STATUS, plus WAIT_LSN / PROMOTE / CHECKPOINT_NOW
/// / DIGEST); COMMIT and EXEC_TXN now acknowledge with COMMIT_OK
/// carrying the commit's WAL LSN (the read-your-writes token); writes on
/// a replica fail with the READ_ONLY_REPLICA error code.
/// v4: sharding surface. HELLO_OK gained a flags word (bit 0 = "this
/// endpoint is a shard router") and the router's shard-map digest;
/// QUERY_DONE gained the result's column interleave (DAG schema order of
/// key/value outputs, so a router can re-sort merged rows exactly);
/// ROUTER_STATUS exposes routing counters; DECOMMISSION_REPLICA drops a
/// permanently-departed replica from the primary's retention registry.
/// v5: cross-shard 2PC surface (PREPARE_TXN / COMMIT_PREPARED /
/// ABORT_PREPARED / RESOLVE_INTENT with the PREPARED_OK / RESOLVED_OK /
/// INTENT_PENDING responses); READ can now answer INTENT_PENDING when
/// the slot carries an unresolved write intent; REPLICA_STATUS_OK grew
/// the node's pending-intent count and ROUTER_STATUS_OK its 2PC
/// counters (both appended fields — safe, handshakes require exact
/// version equality).
inline constexpr uint32_t kProtocolVersion = 5;

/// Magic the client opens HELLO with ("ANKRNET1", little-endian), so a
/// stray connection speaking another protocol is rejected on byte one.
inline constexpr uint64_t kHelloMagic = 0x3154454E524B4E41ULL;

/// ---- opcodes -------------------------------------------------------------
/// Requests occupy 0x01..0x7f, responses 0x80..0xff: a peer can always
/// tell which direction a frame belongs to.
enum class Op : uint8_t {
  // Session setup / liveness.
  kHello = 0x01,  ///< magic, version, auth token. First frame, exactly once.
  kPing = 0x02,

  // Transaction control (one open OLTP transaction per session).
  kBegin = 0x10,
  kCommit = 0x11,
  kAbort = 0x12,

  // Point operations against the open transaction. `by_key` routes the
  // row through the table's primary HashIndex; otherwise the key is the
  // row id itself.
  kRead = 0x13,
  kWrite = 0x14,
  kWriteBatch = 0x15,  ///< n writes in one frame (amortizes round trips).
  kExecTxn = 0x16,     ///< BEGIN + n writes + COMMIT in one frame (1 RTT).

  // Declarative queries (query/serialize.h payloads).
  kQuery = 0x20,

  // Schema / load surface (bootstrap and tooling).
  kCreateTable = 0x30,
  kLoad = 0x31,        ///< Unversioned bulk load of consecutive slots.
  kBuildIndex = 0x32,  ///< Build the primary index over a key column.
  kListTables = 0x33,
  kDictDefine = 0x34,  ///< Append dictionary entries (code = position).

  // Replication / operations surface (v3).
  kReplicateHello = 0x40,   ///< Subscribe this connection to the WAL stream.
  kFetchCheckpoint = 0x41,  ///< Stream the newest checkpoint's files.
  kReplicaStatus = 0x42,    ///< Stream ack (replica -> primary) or probe.
  kWaitLsn = 0x43,          ///< Block until applied_lsn >= lsn (replica).
  kPromote = 0x44,          ///< Flip a replica writable (operator action).
  kCheckpointNow = 0x45,    ///< Force a checkpoint (pre-bootstrap).
  kDigest = 0x46,           ///< Content digest of all visible data.

  // Sharding / operations surface (v4).
  kRouterStatus = 0x47,        ///< Routing counters + shard map health.
  kDecommissionReplica = 0x48, ///< Drop a departed replica's retention pin.

  // Cross-shard 2PC surface (v5; router -> shard, docs/SERVER.md).
  kPrepareTxn = 0x49,      ///< Stage a write set as intents (phase one).
  kCommitPrepared = 0x4a,  ///< Materialize a prepared write set (phase two).
  kAbortPrepared = 0x4b,   ///< Discard a prepared write set (phase two).
  kResolveIntent = 0x4c,   ///< Ask the primary shard for a txn's outcome.

  // Responses.
  kHelloOk = 0x81,
  kOk = 0x82,          ///< Generic success ack (BEGIN/COMMIT/WRITE/...).
  kErr = 0x83,         ///< Error code + message; session usually survives.
  kBusy = 0x84,        ///< Admission control: retry later.
  kReadOk = 0x85,      ///< One raw slot value.
  kQueryBatch = 0x86,  ///< A slice of result rows (0..n per query).
  kQueryDone = 0x87,   ///< Result metadata + scan stats; ends the stream.
  kPong = 0x88,
  kTables = 0x89,      ///< ListTables response.

  // Replication / operations responses (v3).
  kLogStream = 0x8a,        ///< A batch of WAL records (empty = heartbeat).
  kCkptChunk = 0x8b,        ///< One slice of one checkpoint file.
  kCkptDone = 0x8c,         ///< Checkpoint transfer complete.
  kCommitOk = 0x8d,         ///< Commit ack carrying the commit's WAL LSN.
  kReplicaStatusOk = 0x8e,  ///< Role, watermarks, staleness.
  kDigestOk = 0x8f,         ///< Content digest value.

  // Sharding / operations responses (v4).
  kRouterStatusOk = 0x90,   ///< Routing counters + shard map health.

  // Cross-shard 2PC responses (v5).
  kPreparedOk = 0x91,      ///< Prepare ack: local prepare_ts + durable LSN.
  kResolvedOk = 0x92,      ///< RESOLVE_INTENT answer: outcome + commit_ts.
  kIntentPending = 0x93,   ///< READ hit an unresolved intent; go resolve it.
};

/// True iff `op` is a known request opcode (client -> server).
bool IsRequestOp(uint8_t op);

/// ---- wire error codes ----------------------------------------------------
/// StatusCode travels as its underlying value (stable, documented in
/// docs/SERVER.md); protocol-level failures get their own range so a
/// client can distinguish "your transaction aborted" from "you broke the
/// protocol".
enum class WireError : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kIoError = 5,
  kAborted = 6,
  kResourceBusy = 7,
  kNotSupported = 8,
  kInternal = 9,
  // Protocol-level (no StatusCode equivalent).
  kBadHandshake = 32,  ///< Malformed/missing HELLO, wrong magic or version.
  kProtocolError = 33, ///< Op sequencing violation (e.g. op before HELLO).
  /// Write-class op sent to a read replica. Recoverable: the session
  /// survives and reads keep working — redirect writes to the primary.
  kReadOnlyReplica = 34,
};

WireError WireErrorFor(const Status& status);
Status StatusFromWire(WireError code, std::string message);

/// ---- framing -------------------------------------------------------------

/// Appends one complete frame (header + payload) to `out`.
/// CHECK-fails on a payload over kMaxFramePayload — building an
/// oversized frame is a programming error on the sending side.
void EncodeFrame(std::string_view payload, std::string* out);

enum class FrameStatus {
  kOk,       ///< One frame decoded; *consumed bytes were used.
  kNeedMore, ///< Buffer holds a valid prefix; read more bytes.
  kCorrupt,  ///< Oversized length or checksum mismatch; close the peer.
};

/// Attempts to decode one frame from the front of `buffer`. On kOk,
/// `*payload` receives the payload bytes and `*consumed` the total frame
/// size; on kNeedMore/kCorrupt both outputs are untouched.
FrameStatus DecodeFrame(std::string_view buffer, std::string_view* payload,
                        size_t* consumed);

/// ---- message payloads ----------------------------------------------------
/// Every message is `opcode byte + body`. Encoders append to a string;
/// decoders consume a string_view positioned *after* the opcode byte and
/// fail with InvalidArgument on malformed input (wire input is
/// untrusted; nothing here CHECKs).

/// A message with no body (BEGIN, COMMIT, PING, DIGEST, ...).
std::string OpOnly(Op op);

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string auth_token;
};
void EncodeHello(const HelloMsg& msg, std::string* out);
Status DecodeHello(std::string_view in, HelloMsg* msg);

/// HELLO_OK flags word (v4).
inline constexpr uint32_t kHelloFlagRouter = 1u << 0;

struct HelloOkMsg {
  uint32_t version = kProtocolVersion;
  std::string server_info;
  /// kHelloFlag* bits; 0 for a plain engine server.
  uint32_t flags = 0;
  /// Router only: digest of the active shard map, so clients (and the
  /// smoke harness) can pin the topology they loaded against.
  uint64_t shard_map_digest = 0;
};
void EncodeHelloOk(const HelloOkMsg& msg, std::string* out);
Status DecodeHelloOk(std::string_view in, HelloOkMsg* msg);

struct ErrMsg {
  WireError code = WireError::kInternal;
  std::string message;
};
void EncodeErr(Op op, const ErrMsg& msg, std::string* out);  ///< kErr/kBusy.
Status DecodeErr(std::string_view in, ErrMsg* msg);

/// One point write (kWrite carries one, kWriteBatch/kExecTxn carry n).
struct PointWrite {
  std::string table;
  std::string column;
  bool by_key = false;
  uint64_t key = 0;
  uint64_t raw = 0;
};

struct PointReadMsg {
  std::string table;
  std::string column;
  bool by_key = false;
  uint64_t key = 0;
};
void EncodePointRead(const PointReadMsg& msg, std::string* out);
Status DecodePointRead(std::string_view in, PointReadMsg* msg);

void EncodeWrite(const PointWrite& write, std::string* out);
Status DecodeWrite(std::string_view in, PointWrite* write);

/// kWriteBatch and kExecTxn share one body shape.
inline constexpr uint32_t kMaxWritesPerBatch = 4096;
void EncodeWriteBatch(Op op, const std::vector<PointWrite>& writes,
                      std::string* out);
Status DecodeWriteBatch(std::string_view in, std::vector<PointWrite>* writes);

void EncodeReadOk(uint64_t raw, std::string* out);
Status DecodeReadOk(std::string_view in, uint64_t* raw);

struct QueryMsg {
  query::WireQuery query;
  query::Params params;
};
Status EncodeQuery(const QueryMsg& msg, std::string* out);
Status DecodeQuery(std::string_view in, QueryMsg* msg);

/// Result rows stream in batches; doubles travel as raw IEEE bits so the
/// client reassembles aggregates byte-identically to an in-process Run.
inline constexpr size_t kQueryBatchRows = 256;
void EncodeQueryBatch(const query::QueryResult& result, size_t row_begin,
                      size_t row_end, std::string* out);
Status DecodeQueryBatch(std::string_view in, query::QueryResult* result);

void EncodeQueryDone(const query::QueryResult& result, std::string* out);
/// Fills names/stats; rows must already have arrived via batches.
Status DecodeQueryDone(std::string_view in, query::QueryResult* result);

/// Appends a complete result as frames: QUERY_BATCH frames of
/// kQueryBatchRows rows, then QUERY_DONE.
void EncodeQueryResultFrames(const query::QueryResult& result,
                             std::string* out);

/// Row-count ceiling for remotely created tables: 2^28 rows = 2 GiB per
/// column. A bigger claim in a CREATE_TABLE frame is rejected at decode
/// time — a remote peer must not be able to dictate an allocation that
/// takes the process down (embedded callers are not subject to this cap).
inline constexpr uint64_t kMaxWireTableRows = 1ull << 28;

struct CreateTableMsg {
  std::string name;
  uint64_t num_rows = 0;
  std::vector<storage::ColumnDef> schema;
};
void EncodeCreateTable(const CreateTableMsg& msg, std::string* out);
Status DecodeCreateTable(std::string_view in, CreateTableMsg* msg);

struct LoadMsg {
  std::string table;
  std::string column;
  uint64_t start_row = 0;
  std::vector<uint64_t> values;
};
inline constexpr size_t kMaxLoadValues = 65536;
void EncodeLoad(const LoadMsg& msg, std::string* out);
Status DecodeLoad(std::string_view in, LoadMsg* msg);

struct BuildIndexMsg {
  std::string table;
  std::string key_column;
};
void EncodeBuildIndex(const BuildIndexMsg& msg, std::string* out);
Status DecodeBuildIndex(std::string_view in, BuildIndexMsg* msg);

/// Dictionary entries for a kDict32 column, appended in order (the code
/// of each string is its position at insert time; re-sent strings keep
/// their existing code). Group-by packing sizes its key domain from the
/// dictionary, so remote loaders must define entries before grouping on
/// a column they filled with raw codes.
struct DictDefineMsg {
  std::string table;
  std::string column;
  std::vector<std::string> values;
};
void EncodeDictDefine(const DictDefineMsg& msg, std::string* out);
Status DecodeDictDefine(std::string_view in, DictDefineMsg* msg);

struct TableInfo {
  std::string name;
  uint64_t num_rows = 0;
  std::vector<storage::ColumnDef> schema;
  bool has_primary_index = false;
};
void EncodeTables(const std::vector<TableInfo>& tables, std::string* out);
Status DecodeTables(std::string_view in, std::vector<TableInfo>* tables);

/// ---- replication messages (v3) -------------------------------------------
/// The subscription handshake, checkpoint transfer and record stream for
/// WAL shipping. All of these decoders face a network peer — a hostile
/// or corrupt frame must come back as InvalidArgument, never abort.

/// kReplicateHello: turns the connection into a log-stream subscription.
struct ReplicateHelloMsg {
  std::string replica_id;   ///< Stable name for logs and the ack registry.
  uint64_t start_lsn = 1;   ///< First LSN the subscriber still needs.
  bool sync_ack = false;    ///< Gate primary commit acks on this replica.
};
void EncodeReplicateHello(const ReplicateHelloMsg& msg, std::string* out);
Status DecodeReplicateHello(std::string_view in, ReplicateHelloMsg* msg);

/// kReplicaStatus: as a request on a streaming connection it is the
/// replica's ack (both watermarks); as a plain session request it probes
/// a node's role and staleness (fields ignored).
struct ReplicaStatusMsg {
  uint64_t durable_lsn = 0;  ///< Highest LSN fsynced into the local mirror.
  uint64_t applied_lsn = 0;  ///< Highest LSN visible to reads.
};
void EncodeReplicaStatus(const ReplicaStatusMsg& msg, std::string* out);
Status DecodeReplicaStatus(std::string_view in, ReplicaStatusMsg* msg);

/// kLogStream: one batch of shipped records. `primary_durable_lsn` lets
/// an empty batch double as a heartbeat that still advances the
/// replica's view of how far behind it is.
struct StreamRecord {
  uint64_t lsn = 0;
  std::string payload;
};
inline constexpr uint32_t kMaxLogStreamRecords = 4096;
void EncodeLogStream(uint64_t primary_durable_lsn,
                     const std::vector<StreamRecord>& records,
                     std::string* out);
/// Rejects lying counts, oversized payloads, zero or non-increasing
/// LSNs — any of which would otherwise poison the replica's apply loop.
Status DecodeLogStream(std::string_view in, uint64_t* primary_durable_lsn,
                       std::vector<StreamRecord>* records);

/// kCkptChunk: one slice of one checkpoint file, in transfer order.
/// `file` is a relative path under the data directory (e.g.
/// "ckpt-12/MANIFEST", or wal::kCurrentFileName); the decoder rejects
/// absolute paths and ".." traversal so a hostile primary cannot write
/// outside the replica's data_dir.
struct CkptChunkMsg {
  std::string file;
  uint64_t offset = 0;
  bool last = false;  ///< Final chunk of this file.
  std::string data;
};
inline constexpr uint32_t kMaxCkptChunkBytes = 1u << 20;
void EncodeCkptChunk(const CkptChunkMsg& msg, std::string* out);
Status DecodeCkptChunk(std::string_view in, CkptChunkMsg* msg);

/// kCkptDone: ends a FETCH_CHECKPOINT transfer.
void EncodeCkptDone(uint32_t file_count, std::string* out);
Status DecodeCkptDone(std::string_view in, uint32_t* file_count);

/// kWaitLsn: block (bounded) until the replica has applied `lsn` — the
/// read-your-writes barrier, using the LSN from a COMMIT_OK ack.
struct WaitLsnMsg {
  uint64_t lsn = 0;
  uint32_t timeout_millis = 0;
};
void EncodeWaitLsn(const WaitLsnMsg& msg, std::string* out);
Status DecodeWaitLsn(std::string_view in, WaitLsnMsg* msg);

/// kCommitOk: success ack for COMMIT / EXEC_TXN carrying the commit
/// record's WAL LSN (0 when the transaction wrote nothing or durability
/// is off).
void EncodeCommitOk(uint64_t lsn, std::string* out);
Status DecodeCommitOk(std::string_view in, uint64_t* lsn);

enum class NodeRole : uint8_t {
  kPrimary = 0,
  kReplica = 1,
  kPromoted = 2,  ///< Was a replica; now writable after PROMOTE.
};

/// kReplicaStatusOk: the probe response.
struct ReplicaStatusOkMsg {
  NodeRole role = NodeRole::kPrimary;
  bool stream_connected = false;     ///< Replica only: stream currently up.
  uint64_t applied_lsn = 0;
  uint64_t durable_lsn = 0;
  uint64_t staleness_millis = 0;     ///< Time since last stream progress.
  std::string primary_addr;          ///< Replica only: upstream host:port.
  /// Prepared-but-undecided cross-shard transactions staged on this node
  /// (v5). The 2PC drill asserts this drains to zero after recovery.
  uint64_t pending_intents = 0;
};
void EncodeReplicaStatusOk(const ReplicaStatusOkMsg& msg, std::string* out);
Status DecodeReplicaStatusOk(std::string_view in, ReplicaStatusOkMsg* msg);

/// kDigestOk: Database::ContentDigest over all visible data.
void EncodeDigestOk(uint64_t digest, std::string* out);
Status DecodeDigestOk(std::string_view in, uint64_t* digest);

/// ---- sharding messages (v4) ----------------------------------------------

/// kDecommissionReplica: operator action on a primary — erase a
/// permanently-departed replica from the retention registry so the WAL
/// retention floor stops protecting its resume point. Refused while the
/// replica is still connected.
struct DecommissionReplicaMsg {
  std::string replica_id;
};
void EncodeDecommissionReplica(const DecommissionReplicaMsg& msg,
                               std::string* out);
Status DecodeDecommissionReplica(std::string_view in,
                                 DecommissionReplicaMsg* msg);

/// kRouterStatusOk: a shard router's routing counters and topology
/// health. A plain engine server refuses kRouterStatus with
/// kNotSupported — the probe doubles as "is this endpoint a router".
struct RouterStatusOkMsg {
  uint32_t shard_count = 0;
  uint32_t healthy_shards = 0;
  uint32_t shard_map_version = 0;
  uint64_t shard_map_digest = 0;
  bool allow_partial = false;
  /// Single-shard EXEC_TXN/BEGIN-session ops forwarded verbatim (1 RTT
  /// through the router — the pass-through fast path).
  uint64_t passthrough_txns = 0;
  /// QUERYs executed by scatter-gather + merge.
  uint64_t scatter_queries = 0;
  /// QUERYs satisfied by a single shard (replicated-only plans).
  uint64_t single_shard_queries = 0;
  /// DDL/load ops fanned out to every shard.
  uint64_t fanout_ops = 0;
  /// Cross-shard EXEC_TXNs committed through the 2PC path (v5).
  uint64_t twopc_txns = 0;
  /// Reader-driven intent resolutions the router performed (v5).
  uint64_t intent_resolutions = 0;
};
void EncodeRouterStatusOk(const RouterStatusOkMsg& msg, std::string* out);
Status DecodeRouterStatusOk(std::string_view in, RouterStatusOkMsg* msg);

/// ---- cross-shard 2PC messages (v5) ---------------------------------------
/// The router is the coordinator; shards only ever see these four ops.
/// `gtid` is the router-issued global transaction id — unique per
/// attempt, never reused after a decision.

/// kPrepareTxn: stage `writes` as intents on this shard (phase one). The
/// ack (kPreparedOk) is only sent after the kPrepare WAL record is
/// durable — the router commits on the strength of it.
struct PrepareTxnMsg {
  uint64_t gtid = 0;
  /// Shard index whose engine decides (and remembers) the outcome.
  uint32_t primary_shard = 0;
  std::vector<PointWrite> writes;
};
void EncodePrepareTxn(const PrepareTxnMsg& msg, std::string* out);
Status DecodePrepareTxn(std::string_view in, PrepareTxnMsg* msg);

/// kPreparedOk: phase-one ack.
struct PreparedOkMsg {
  uint64_t prepare_ts = 0;  ///< Shard-local prepare stamp (HLC input).
  uint64_t lsn = 0;         ///< Durable kPrepare record LSN.
};
void EncodePreparedOk(const PreparedOkMsg& msg, std::string* out);
Status DecodePreparedOk(std::string_view in, PreparedOkMsg* msg);

/// kCommitPrepared: materialize the staged writes (phase two). Answered
/// with kCommitOk carrying the kCommitPrepared record's LSN (0 on an
/// idempotent duplicate).
struct CommitPreparedMsg {
  uint64_t gtid = 0;
  uint64_t commit_ts = 0;  ///< Router HLC stamp (> every prepare_ts).
};
void EncodeCommitPrepared(const CommitPreparedMsg& msg, std::string* out);
Status DecodeCommitPrepared(std::string_view in, CommitPreparedMsg* msg);

/// kAbortPrepared: discard the staged writes (phase two). Answered with
/// kOk; aborting an unknown gtid fences it (durable tombstone).
struct AbortPreparedMsg {
  uint64_t gtid = 0;
};
void EncodeAbortPrepared(const AbortPreparedMsg& msg, std::string* out);
Status DecodeAbortPrepared(std::string_view in, AbortPreparedMsg* msg);

/// kResolveIntent: outcome query at the primary shard. `abort_pending`
/// escalates a still-undecided transaction to a durable abort — the
/// caller is a reader whose coordinating router died.
struct ResolveIntentMsg {
  uint64_t gtid = 0;
  bool abort_pending = false;
};
void EncodeResolveIntent(const ResolveIntentMsg& msg, std::string* out);
Status DecodeResolveIntent(std::string_view in, ResolveIntentMsg* msg);

/// kResolvedOk: the primary's answer (mvcc::TxnOutcome on the wire).
struct ResolvedOkMsg {
  uint8_t outcome = 0;      ///< 0 = pending, 1 = committed, 2 = aborted.
  uint64_t commit_ts = 0;   ///< Committed only: the router's HLC stamp.
};
void EncodeResolvedOk(const ResolvedOkMsg& msg, std::string* out);
Status DecodeResolvedOk(std::string_view in, ResolvedOkMsg* msg);

/// kIntentPending: a READ hit an unresolved intent whose prepare stamp
/// is at or below the reader's snapshot. The caller resolves via the
/// primary shard and retries.
struct IntentPendingMsg {
  uint64_t gtid = 0;
  uint32_t primary_shard = 0;
};
void EncodeIntentPending(const IntentPendingMsg& msg, std::string* out);
Status DecodeIntentPending(std::string_view in, IntentPendingMsg* msg);

}  // namespace anker::server

#endif  // ANKER_SERVER_PROTOCOL_H_
