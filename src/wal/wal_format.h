#ifndef ANKER_WAL_WAL_FORMAT_H_
#define ANKER_WAL_WAL_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mvcc/timestamp_oracle.h"
#include "storage/table.h"

namespace anker::wal {

/// Durability policy of a database instance (DatabaseConfig::durability).
enum class DurabilityMode {
  /// No write-ahead log. Checkpoints may still be taken explicitly, but a
  /// crash loses everything after the last one.
  kOff,
  /// Commits append redo records but return without waiting for the disk;
  /// a background flusher syncs every few milliseconds. A crash may lose
  /// the most recent acknowledged commits (bounded by the flush interval),
  /// but recovery always yields a transaction-consistent prefix.
  kLazy,
  /// Commits block until their redo record is fsynced. A dedicated flusher
  /// batches everything that arrived while the previous fsync ran into the
  /// next one (group commit), so concurrent commit streams share syncs.
  kGroupCommit,
};

const char* DurabilityModeName(DurabilityMode mode);

/// Stable identity of a column inside the WAL: tables are numbered in
/// creation order (checkpoint manifests and kCreateTable records preserve
/// that order across restarts), columns by their position in the schema.
struct ColumnRef {
  uint32_t table_id = 0;
  uint32_t column_id = 0;
};

/// One slot overwrite of a committed transaction (redo only — the paper's
/// engine never needs undo: uncommitted writes live in transaction-local
/// buffers and are discarded on abort, so the log holds committed state
/// exclusively).
struct RedoWrite {
  uint32_t table_id = 0;
  uint32_t column_id = 0;
  uint64_t row = 0;
  uint64_t value = 0;
};

enum class RecordType : uint8_t {
  kCommit = 1,       ///< Redo write-set of one committed transaction.
  kCreateTable = 2,  ///< Schema of a table created after the last checkpoint.
  /// Phase one of a cross-shard transaction: the write-set is staged as
  /// intents (locked, invisible) and must survive a crash so the router
  /// — or a later reader via RESOLVE_INTENT — can finish the job.
  kPrepare = 3,
  /// Phase two: the prepared write-set became visible. Carries the full
  /// redo write-set again so replay never depends on the matching
  /// kPrepare still being in the log (checkpoints prune aggressively).
  kCommitPrepared = 4,
  /// Phase two, abort flavor: the prepared intents were discarded.
  kAbortPrepared = 5,
};

/// Decoded WAL record (tagged by `type`; only the matching member is set).
struct WalRecord {
  RecordType type = RecordType::kCommit;

  // kCommit (and kCommitPrepared: the global commit timestamp)
  mvcc::Timestamp commit_ts = 0;
  std::vector<RedoWrite> writes;  ///< kCommit, kPrepare, kCommitPrepared.

  // kCreateTable
  uint32_t table_id = 0;
  std::string table_name;
  uint64_t num_rows = 0;
  std::vector<storage::ColumnDef> schema;

  // kPrepare / kCommitPrepared / kAbortPrepared
  uint64_t gtid = 0;           ///< Router-issued global transaction id.
  uint32_t primary_shard = 0;  ///< kPrepare: where the outcome is decided.
  mvcc::Timestamp start_ts = 0;    ///< kPrepare: local snapshot stamp.
  mvcc::Timestamp prepare_ts = 0;  ///< kPrepare: local prepare stamp.
  /// kCommitPrepared: the shard-local timestamp the writes materialized
  /// at (>= commit_ts). Replay skips on apply_ts like a normal commit.
  /// kAbortPrepared reuses this field for the local abort stamp.
  mvcc::Timestamp apply_ts = 0;
};

// --- Little-endian encode/decode primitives -------------------------------
// Shared by the log and the checkpoint manifest; appended to std::string
// buffers so one commit's serialization is a single allocation-free append
// chain once the buffer has warmed up.

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);

bool GetU8(std::string_view* in, uint8_t* v);
bool GetU32(std::string_view* in, uint32_t* v);
bool GetU64(std::string_view* in, uint64_t* v);
bool GetString(std::string_view* in, std::string* s);

/// Count-prefixed redo write-set, 24 bytes per write.
void PutRedoWrites(const std::vector<RedoWrite>& writes, std::string* out);
bool GetRedoWrites(std::string_view* in, std::vector<RedoWrite>* writes);

/// Count-prefixed schema: (name, value type) per column. GetSchema rejects
/// a type tag that names no storage::ValueType. Shared by the WAL, the
/// checkpoint manifest and the wire protocol.
void PutSchema(const std::vector<storage::ColumnDef>& schema,
               std::string* out);
bool GetSchema(std::string_view* in, std::vector<storage::ColumnDef>* schema);

// --- Record payloads ------------------------------------------------------

/// Appends the payload (no frame) of a kCommit record to `out`.
void EncodeCommit(mvcc::Timestamp commit_ts,
                  const std::vector<RedoWrite>& writes, std::string* out);

/// Appends the payload of a kCreateTable record to `out`.
void EncodeCreateTable(uint32_t table_id, const std::string& name,
                       uint64_t num_rows,
                       const std::vector<storage::ColumnDef>& schema,
                       std::string* out);

/// Appends the payload of a kPrepare record to `out`.
void EncodePrepare(uint64_t gtid, uint32_t primary_shard,
                   mvcc::Timestamp start_ts, mvcc::Timestamp prepare_ts,
                   const std::vector<RedoWrite>& writes, std::string* out);

/// Appends the payload of a kCommitPrepared record to `out`.
void EncodeCommitPrepared(uint64_t gtid, mvcc::Timestamp commit_ts,
                          mvcc::Timestamp apply_ts,
                          const std::vector<RedoWrite>& writes,
                          std::string* out);

/// Appends the payload of a kAbortPrepared record to `out`.
void EncodeAbortPrepared(uint64_t gtid, mvcc::Timestamp abort_ts,
                         std::string* out);

/// Decodes a record payload. Returns IoError on malformed input (recovery
/// treats a decode failure like a checksum failure: the log is not
/// trustworthy past this point).
Status DecodeRecord(std::string_view payload, WalRecord* record);

// --- Segment files and record frames -------------------------------------
// The only code that reads or writes segment bytes: the writer, recovery
// and the replication tail each keep a policy for bad frames, no parser.

/// Segment file header: magic, format version, sequence number.
inline constexpr uint64_t kSegmentMagic = 0x314C4157524B4E41ULL;  // "ANKRWAL1"
/// v2: every record frame carries its LSN, making LSNs durable and
/// strictly increasing across restarts — the watermark WAL shipping
/// resumes from and commit acknowledgements hand to clients as
/// read-your-writes tokens.
inline constexpr uint32_t kWalFormatVersion = 2;
inline constexpr size_t kSegmentHeaderBytes = 8 + 4 + 4 + 8;  // magic,ver,pad,seq

/// Record frame: u32 payload length, u32 masked CRC32C(lsn + payload),
/// u64 lsn, payload. The CRC covers the LSN so a torn or bit-flipped LSN
/// can never be mistaken for a valid replication watermark.
inline constexpr size_t kRecordFrameBytes = 16;
/// Upper bound on one record's payload; anything larger in a length field
/// is treated as corruption, which keeps a torn length word from sending
/// the reader on a gigabyte-sized goose chase.
inline constexpr uint32_t kMaxRecordBytes = 1u << 26;

/// File name of segment `seq`: "wal-<seq, 8 digits>.log".
std::string SegmentFileName(uint64_t seq);

struct SegmentFile {
  uint64_t seq = 0;
  std::string path;
};

/// Lists the segment files of `wal_dir` in sequence order. A missing
/// directory is an empty log.
Status ListSegments(const std::string& wal_dir, std::vector<SegmentFile>* out);

/// Appends the header of segment `seq` (kSegmentHeaderBytes) to `out`.
void EncodeSegmentHeader(uint64_t seq, std::string* out);

/// True iff `bytes` begins with a complete, current-version header of
/// segment `seq`.
bool SegmentHeaderValid(std::string_view bytes, uint64_t seq);

/// Appends a frame header with a zero CRC to `out`; the payload follows,
/// and SealFrame fills the CRC in before the frame reaches the disk.
void AppendFrameHeader(uint32_t payload_bytes, uint64_t lsn,
                       std::string* out);
/// Stores the CRC of the `frame_bytes`-long frame at `frame`.
void SealFrame(char* frame, size_t frame_bytes);

enum class FrameCheck {
  kOk,
  kTruncated,  ///< Fewer bytes than the header, or than it announces.
  kBadLength,  ///< Length field above kMaxRecordBytes.
  kBadCrc,     ///< The CRC over LSN + payload does not match.
};

struct WalFrame {
  /// Header fields: set whenever the header is complete, bad frame or not.
  uint64_t lsn = 0;
  uint32_t payload_bytes = 0;
  std::string_view payload;  ///< Set only for FrameCheck::kOk.
  size_t frame_bytes() const { return kRecordFrameBytes + payload_bytes; }
};

/// Decodes the frame at the front of `in`: length bound, completeness and
/// the CRC over LSN + payload, in that order.
FrameCheck DecodeFrame(std::string_view in, WalFrame* frame);

}  // namespace anker::wal

#endif  // ANKER_WAL_WAL_FORMAT_H_
