#ifndef ANKER_WAL_CHECKPOINT_H_
#define ANKER_WAL_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/intent_table.h"
#include "mvcc/timestamp_oracle.h"
#include "storage/column.h"
#include "storage/extent.h"
#include "storage/hash_index.h"
#include "storage/segment_storage.h"
#include "storage/table.h"
#include "wal/wal_format.h"

namespace anker::wal {

/// Everything recovery needs to rebuild one table before replay: schema,
/// dictionary contents and primary-index shape. Column *data* lives in
/// per-column files next to the manifest.
struct CheckpointTableMeta {
  std::string name;
  uint64_t num_rows = 0;
  std::vector<storage::ColumnDef> schema;
  /// (column name, dictionary entries in code order), sorted by column
  /// name so manifests are byte-deterministic.
  std::vector<std::pair<std::string, std::vector<std::string>>> dictionaries;
  bool has_primary_index = false;
  uint64_t index_entries = 0;
};

/// A prepared-but-undecided cross-shard transaction captured by a
/// checkpoint: column data never holds intents (they are invisible by
/// construction), so the manifest must carry them or a restart would
/// silently drop the locks — and with them atomicity.
struct CheckpointPreparedTxn {
  uint64_t gtid = 0;
  uint32_t primary_shard = 0;
  mvcc::Timestamp start_ts = 0;
  mvcc::Timestamp prepare_ts = 0;
  std::vector<RedoWrite> writes;
};

/// One decided entry of the intent table's outcome ledger (FIFO order is
/// preserved so a restore rebuilds the same eviction sequence).
struct CheckpointTxnOutcome {
  uint64_t gtid = 0;
  uint8_t outcome = 0;  ///< mvcc::TxnOutcome.
  mvcc::Timestamp commit_ts = 0;
};

/// Manifest of one checkpoint. `checkpoint_ts` is the snapshot timestamp
/// the column images are consistent at; recovery replays exactly the WAL
/// records with commit_ts > checkpoint_ts on top. Tables appear in
/// table-id order — ids are implicit positions, which is what keeps WAL
/// ColumnRefs stable across restarts.
struct CheckpointManifest {
  mvcc::Timestamp checkpoint_ts = 0;
  uint64_t commit_count = 0;
  uint64_t next_txn_id = 1;
  /// Highest WAL LSN guaranteed covered by this image: every record with
  /// lsn <= wal_lsn is either a commit at or below checkpoint_ts or a
  /// schema record for a table in `tables`. A replica bootstrapping from
  /// this checkpoint resumes the log stream at wal_lsn + 1; recovery
  /// also uses it to keep LSNs monotonic when the whole log was
  /// truncated away.
  uint64_t wal_lsn = 0;
  std::vector<CheckpointTableMeta> tables;
  /// 2PC state (appended after the tables section).
  std::vector<CheckpointPreparedTxn> prepared;
  std::vector<CheckpointTxnOutcome> outcomes;
  /// Cold-tier section. Extent-id allocator watermark — recovery seeds
  /// the store past it so a restart never reuses an id a stale reference
  /// could still name.
  uint64_t next_extent_id = 1;
  /// Every extent id some column file of this checkpoint references.
  /// Doubles as the prune keep-set: an extent outside this list (and not
  /// live in a tiered column) is garbage after the checkpoint flips.
  std::vector<uint64_t> extents;
};

/// Name of the live-checkpoint pointer inside a data_dir. The checkpoint
/// transfer ships it under this name, last.
inline constexpr char kCurrentFileName[] = "CURRENT";

/// Durably points `<data_dir>/CURRENT` at checkpoint directory `dir_name`.
Status PublishCurrent(const std::string& data_dir,
                      const std::string& dir_name);

/// The log directory of a database's data_dir.
std::string WalDirOf(const std::string& data_dir);

/// True when `data_dir` holds a published checkpoint or a log directory:
/// it must be reopened with recovery, never initialized as fresh.
bool HasDurableState(const std::string& data_dir);

/// Streams one checkpoint into `<data_dir>/ckpt-<ts>.tmp/`, then publishes
/// it atomically: fsync every file, rename the directory to its final
/// name, flip `<data_dir>/CURRENT` (write-temp + rename + dir fsync) and
/// prune older checkpoints. A crash at any point leaves either the old
/// checkpoint current or the new one — never a half-written mix, because
/// nothing references the new directory until CURRENT points at it.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string data_dir);
  ANKER_DISALLOW_COPY_AND_MOVE(CheckpointWriter);

  Status Begin(mvcc::Timestamp checkpoint_ts);

  /// Column data from a contiguous snapshot image (clean snapshot: the
  /// buffer view itself is the consistent state — zero-copy stream).
  Status WriteColumnRaw(uint32_t table_id, uint32_t column_id,
                        const uint64_t* data, size_t num_rows);

  /// Column data resolved row by row (versioned snapshot columns, or live
  /// reads under the homogeneous modes).
  Status WriteColumnResolved(uint32_t table_id, uint32_t column_id,
                             size_t num_rows,
                             const std::function<uint64_t(size_t)>& read);

  /// Incremental column image: instead of the slot bytes, the file holds
  /// references to published extents — one per segment, contiguous from
  /// row 0. Unchanged segments reuse the extent already on disk, so the
  /// checkpoint's data volume is O(changed segments), not O(table).
  Status WriteColumnExtents(
      uint32_t table_id, uint32_t column_id,
      const std::vector<storage::SegmentExtentRef>& refs);

  Status WriteIndex(uint32_t table_id, const storage::HashIndex& index);

  /// Writes the manifest and publishes the checkpoint.
  Status Finish(const CheckpointManifest& manifest);

  /// Removes the temp directory after a failure (best effort).
  void Abort();

  /// Final directory name, e.g. "ckpt-41".
  const std::string& dir_name() const { return dir_name_; }

 private:
  Status WriteBlob(const std::string& path, uint32_t magic,
                   const std::function<Status(int fd, uint32_t* crc)>& body,
                   uint64_t item_count);

  const std::string data_dir_;
  std::string dir_name_;
  std::string tmp_path_;
  bool begun_ = false;
};

/// Reads a checkpoint back. The manifest is trusted only after its CRC
/// checks out; every column/index file carries its own checksum, verified
/// while loading.
class CheckpointReader {
 public:
  /// NotFound when `data_dir` has no CURRENT pointer (fresh directory).
  static Result<CheckpointManifest> ReadManifest(const std::string& data_dir,
                                                 std::string* ckpt_path);

  /// Files inside the checkpoint directory `manifest` describes: the
  /// manifest, one per column and one per primary index.
  static std::vector<std::string> FileNames(
      const CheckpointManifest& manifest);

  /// Loads column data into `column` via its load path (timestamp-0
  /// values; version chains start empty after recovery). A plain (ACL1)
  /// file is copied slot by slot; an extent-ref (ACL2) file resolves each
  /// reference through `extents` (required then — an extent-backed column
  /// with a null store is a recovery error). When `refs_out` is non-null
  /// it receives the resolved references (empty for plain files) so the
  /// caller can re-seed segment residency bookkeeping.
  static Status LoadColumn(const std::string& ckpt_path, uint32_t table_id,
                           uint32_t column_id, storage::Column* column,
                           storage::ExtentStore* extents = nullptr,
                           std::vector<storage::SegmentExtentRef>* refs_out =
                               nullptr);

  static Status LoadIndex(const std::string& ckpt_path, uint32_t table_id,
                          uint64_t expected_entries,
                          storage::HashIndex* index);
};

}  // namespace anker::wal

#endif  // ANKER_WAL_CHECKPOINT_H_
