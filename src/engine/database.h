#ifndef ANKER_ENGINE_DATABASE_H_
#define ANKER_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/snapshot_manager.h"
#include "mvcc/garbage_collector.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace anker::query {
class Query;
class Params;
struct ExecOptions;
struct QueryResult;
}  // namespace anker::query

namespace anker::engine {

/// Engine configuration (paper Section 5.1's three setups plus knobs).
struct DatabaseConfig {
  txn::ProcessingMode mode =
      txn::ProcessingMode::kHeterogeneousSerializable;
  /// Buffer backend for column memory. Heterogeneous mode needs a
  /// snapshot-capable backend (vm_snapshot by default); homogeneous modes
  /// default to plain memory.
  snapshot::BufferBackend backend = snapshot::BufferBackend::kVmSnapshot;
  /// A snapshot epoch is triggered every this many commits (paper: 10,000).
  uint64_t snapshot_interval_commits = 10000;
  /// Homogeneous-mode GC pass interval (paper: every second).
  int gc_interval_millis = 1000;
  /// Max participants of one OLAP scan (morsel-driven intra-query
  /// parallelism); 1 = serial scans.
  size_t scan_threads = 1;
  /// Size of the process-wide worker pool (stream fan-out + scan morsels);
  /// 0 = max(hardware concurrency, scan_threads). The pool is created
  /// lazily on first use and grows on demand, never shrinks.
  size_t worker_threads = 0;

  /// Durability policy (see wal::DurabilityMode). Anything other than kOff
  /// requires `data_dir` and turns every non-read-only commit into a redo
  /// record in <data_dir>/wal/.
  wal::DurabilityMode durability = wal::DurabilityMode::kOff;
  /// Directory holding the WAL and checkpoints. With durability off it may
  /// still be set to enable explicit Checkpoint() calls (backup-style
  /// durability without a log).
  std::string data_dir;
  /// WAL segments rotate at this size.
  size_t wal_segment_bytes = 8u << 20;
  /// Lazy durability: background flush cadence in milliseconds.
  int wal_flush_interval_millis = 5;
  /// Automatic checkpoint cadence: every this many commits the engine
  /// schedules a Checkpoint() on the worker pool (0 = manual only).
  /// Requires data_dir.
  uint64_t checkpoint_interval_commits = 0;

  /// Cold-tier budget: when > 0, every column becomes spillable and the
  /// engine evicts the coldest version-free segments to on-disk extents
  /// (<data_dir>/extents) until resident column bytes fit the budget.
  /// 0 disables tiering entirely — byte-for-byte today's behavior.
  /// Requires data_dir.
  uint64_t cold_budget_bytes = 0;
  /// Rows per spillable segment (the tiering granule). Must be a power of
  /// two >= 1024; smaller values spill finer at more metadata cost.
  size_t cold_segment_rows = 65536;

  bool heterogeneous() const {
    return mode == txn::ProcessingMode::kHeterogeneousSerializable;
  }

  /// Canonical configuration for a processing mode.
  static DatabaseConfig ForMode(txn::ProcessingMode mode);

  /// Rejects mode/backend combinations that would silently misbehave:
  /// heterogeneous processing requires a snapshot-capable backend, and the
  /// homogeneous baselines never snapshot, so a copy-on-write backend
  /// would only add fault-handling cost that the paper's baselines do not
  /// pay (skewing every comparison against them). Also probes data_dir
  /// when set (mkdir -p): an uncreatable directory is reported here as a
  /// recoverable InvalidArgument instead of surfacing as an IO error deep
  /// inside Open/Checkpoint. Checked by the Database constructor; use
  /// Database::Create / Database::Open for a recoverable error.
  Status Validate() const;
};

/// Read context of one OLAP transaction: under heterogeneous processing it
/// pins a snapshot epoch and reads at the epoch timestamp; under
/// homogeneous processing it reads the live, versioned representation at
/// the transaction's start timestamp. Queries obtain ColumnReaders from it
/// and never care which world they run in.
class OlapContext {
 public:
  ~OlapContext() = default;
  ANKER_DISALLOW_COPY_AND_MOVE(OlapContext);

  /// Reader for a column that was declared in BeginOlap's column set.
  /// CHECK-fails on out-of-set columns under heterogeneous processing —
  /// the internal-invariant path for callers whose column set was
  /// *inferred* (Database::Run derives it from the query plan, so a miss
  /// is an engine bug, not bad input). Callers that assembled the column
  /// set by hand should use TryReader.
  ColumnReader Reader(const storage::Column* column) const;

  /// Recoverable sibling of Reader: returns InvalidArgument when `column`
  /// was not part of the BeginOlap column set (heterogeneous mode; the
  /// homogeneous modes read live data and can serve any column).
  Result<ColumnReader> TryReader(const storage::Column* column) const;

  /// Scan execution options for this transaction's Folds: carries the
  /// engine's worker pool and scan_threads setting, so queries inherit
  /// intra-query parallelism without caring where they run.
  ScanOptions scan_options() const {
    ScanOptions options;
    options.pool = scan_pool_;
    options.max_threads = scan_threads_;
    return options;
  }

  mvcc::Timestamp read_ts() const { return read_ts_; }
  txn::Transaction* txn() const { return txn_.get(); }
  bool on_snapshot() const { return handle_ != nullptr; }

 private:
  friend class Database;
  OlapContext() = default;

  std::unique_ptr<txn::Transaction> txn_;
  std::unique_ptr<SnapshotHandle> handle_;  ///< nullptr in homogeneous mode.
  /// Homogeneous mode with tiering: live scans read raw buffer pointers,
  /// so BeginOlap faults every cold segment in and holds these leases for
  /// the transaction's lifetime (heterogeneous snapshots carry their own
  /// lease inside each ColumnSnapshot).
  std::vector<std::shared_ptr<void>> residency_leases_;
  mvcc::Timestamp read_ts_ = 0;
  ThreadPool* scan_pool_ = nullptr;  ///< nullptr = serial scans.
  size_t scan_threads_ = 1;
};

/// Result of one Checkpoint() call.
struct CheckpointResult {
  mvcc::Timestamp checkpoint_ts = 0;
  std::string directory;  ///< Published checkpoint directory.
  /// Column-data bytes this checkpoint actually wrote (full column blobs
  /// plus freshly published extents) vs. bytes it re-referenced from
  /// already published extents. reused > 0 marks an incremental
  /// checkpoint; written / (written + reused) is its effective ratio.
  uint64_t data_bytes_written = 0;
  uint64_t extent_bytes_reused = 0;
};

/// Aggregate cold-tier observability across all tiered columns.
struct ColdTierStats {
  uint64_t resident_bytes = 0;  ///< Slot bytes currently in RAM.
  uint64_t cold_bytes = 0;      ///< Slot bytes evicted to extents.
  storage::ExtentTierCounters counters;
};

/// The AnKerDB engine: a column-oriented main-memory MVCC store with a
/// configurable processing model. Heterogeneous mode outsources OLAP
/// transactions onto fine-granular virtual snapshots; homogeneous modes
/// execute everything on the up-to-date representation (snapshots
/// disabled), matching the paper's evaluation baselines.
///
/// Durability (src/wal/): with DatabaseConfig::durability enabled, every
/// commit emits a redo record into a segmented write-ahead log, and
/// Checkpoint() streams a snapshot-consistent image of all tables next to
/// it. Database::Open() reverses the process after a crash: load the last
/// checkpoint, replay the WAL tail, continue. See docs/DURABILITY.md.
class Database {
 public:
  /// CHECK-fails on an invalid configuration (see DatabaseConfig::
  /// Validate); use Create when the configuration comes from user input.
  /// Creates a *fresh* database: with durability enabled, data_dir must
  /// not already contain one (reopen existing state with Open).
  explicit Database(DatabaseConfig config);
  ~Database();
  ANKER_DISALLOW_COPY_AND_MOVE(Database);

  /// Validating factory: returns InvalidArgument instead of aborting on a
  /// rejected mode/backend combination.
  static Result<std::unique_ptr<Database>> Create(DatabaseConfig config);

  /// Recovers a database from config.data_dir: loads the checkpoint that
  /// CURRENT points at (if any), replays every WAL record with
  /// commit_ts > checkpoint_ts through the normal transaction-manager
  /// apply path, restores the timestamp oracle and visibility watermark,
  /// truncates a torn log tail, and resumes logging into a fresh segment.
  /// An empty directory yields an empty database — Open is the universal
  /// entry point for durable instances.
  static Result<std::unique_ptr<Database>> Open(DatabaseConfig config);

  /// Writes a snapshot-consistent checkpoint of every table to data_dir
  /// and truncates the WAL through its timestamp. OLTP never stalls: the
  /// image is read off a virtual snapshot (heterogeneous) or through MVCC
  /// reads at the transaction's start timestamp (homogeneous modes).
  /// Serialized against itself; concurrent commits proceed. Always
  /// rewrites the image — bulk loads and creates change state without
  /// advancing commit timestamps, so there is no safe "nothing changed"
  /// shortcut.
  Result<CheckpointResult> Checkpoint();

  /// FNV-1a digest over the committed state of every table (schema, latest
  /// values, dictionary contents), tables in name order. Only meaningful
  /// on a quiesced engine; tests and the crash harness use it to compare
  /// recovered state against an in-memory reference run.
  uint64_t ContentDigest() const;

  // --- Cold tier (spillable column extents) ------------------------------

  /// Blocking spill pass: evicts coldest version-free segments until
  /// resident column bytes fit `budget_bytes`. Segments that are pinned,
  /// carry versions, or race a writer are skipped (best effort — the pass
  /// stops when no further segment can move). No-op without tiering.
  Status SpillToBudget(uint64_t budget_bytes);

  /// SpillToBudget(0): force everything spillable cold. Tests and the
  /// crash driver use it to make every subsequent scan cross the tier.
  Status SpillColdData() { return SpillToBudget(0); }

  /// Aggregate residency + extent-store counters (zeros without tiering).
  ColdTierStats cold_stats() const;

  /// The extent store, or nullptr when tiering never started.
  storage::ExtentStore* extent_store() const { return extent_store_.get(); }

  /// The redo log writer, or nullptr with durability off (observability:
  /// benches report fsync batching, tests force syncs).
  wal::LogWriter* log_writer() { return log_.get(); }

  const DatabaseConfig& config() const { return config_; }

  /// Directory the WAL segments live in; the replication service points
  /// its per-subscriber WalTailers here.
  std::string wal_dir() const;

  // --- Replication (WAL shipping) ---------------------------------------
  //
  // A replica applies records shipped from its primary through
  // ApplyReplicated, which both replays them through the normal commit
  // machinery and mirrors them into the local log under the primary's
  // LSNs — so a replica restart is just Database::Open plus resuming the
  // stream at applied_lsn() + 1, and promotion needs no renumbering.

  /// Applies one shipped WAL record (raw payload, primary's LSN). Must be
  /// called in LSN order from a single applier thread; records at or
  /// below applied_lsn() are ignored (re-delivery after reconnect).
  /// Requires durability to be on. Decode failures and table-id gaps are
  /// recoverable IoErrors — hostile stream bytes must never abort the
  /// process.
  Status ApplyReplicated(uint64_t lsn, std::string_view payload);

  /// Highest LSN fully applied to this engine (memory + local log
  /// buffer). On a primary this tracks the log's own appends implicitly
  /// and is not maintained; it is meaningful on replicas only.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until applied_lsn() >= lsn or the timeout elapses
  /// (ResourceBusy — retryable, the stream may just be behind).
  /// Read-your-writes on a replica: the client hands over the LSN token
  /// its commit ack carried.
  Status WaitAppliedLsn(uint64_t lsn, int timeout_millis);

  /// Synchronous-acknowledgement hook: when set, every group-commit
  /// durability wait additionally runs this after the local fsync — the
  /// server installs a "wait until a replica acked lsn" function here.
  /// An error return means the commit is durable locally but its
  /// replication state is unknown ("commit uncertain"); the commit call
  /// surfaces that error without acknowledging. Pass nullptr to clear.
  using ReplicationWaiter = std::function<Status(uint64_t lsn)>;
  void SetReplicationWaiter(ReplicationWaiter waiter);

  /// Creates an empty table; columns use the configured buffer backend.
  Result<storage::Table*> CreateTable(
      const std::string& name, const std::vector<storage::ColumnDef>& schema,
      size_t num_rows);

  storage::Catalog& catalog() { return catalog_; }
  txn::TransactionManager& txn_manager() { return txn_manager_; }
  SnapshotManager* snapshot_manager() { return snapshot_manager_.get(); }
  mvcc::GarbageCollector* garbage_collector() { return gc_.get(); }

  /// The process-wide worker pool: executes workload stream tasks and scan
  /// morsels (one pool for everything — see common/thread_pool.h). Created
  /// lazily so engines that never fan out never spawn threads.
  ThreadPool& worker_pool();

  /// OLTP entry points (thin wrappers over the transaction manager).
  std::unique_ptr<txn::Transaction> BeginOltp() {
    return txn_manager_.Begin(txn::TxnType::kOltp);
  }
  Status Commit(txn::Transaction* txn) { return txn_manager_.Commit(txn); }
  void Abort(txn::Transaction* txn) { txn_manager_.Abort(txn); }

  /// Begins an OLAP transaction over the given column set. Heterogeneous:
  /// acquires (and lazily materializes) the newest snapshot epoch.
  /// Homogeneous: reads the live data.
  ///
  /// Query-shaped callers should prefer Run: a query::Query already knows
  /// every column it touches, so hand-maintaining the raw column vector
  /// only invites drift between the set and the query body. BeginOlap
  /// remains the entry point for free-form scans (and for Run itself).
  Result<std::unique_ptr<OlapContext>> BeginOlap(
      const std::vector<storage::Column*>& columns);

  /// Finishes an OLAP transaction (read-only commit; never aborts).
  Status FinishOlap(std::unique_ptr<OlapContext> ctx);

  /// Runs a declarative query as one OLAP transaction: infers the column
  /// set from the plan, pins the snapshot (heterogeneous) or live context
  /// (homogeneous), executes with the engine's ScanOptions and returns the
  /// typed result. Defined in src/query/run.cc.
  Result<query::QueryResult> Run(const query::Query& query,
                                 const query::Params& params);

  /// Same with per-execution knobs (force_dag, spill budget, scan option
  /// overrides; see query::ExecOptions).
  Result<query::QueryResult> Run(const query::Query& query,
                                 const query::Params& params,
                                 const query::ExecOptions& options);

  /// Starts background machinery (GC thread in homogeneous modes).
  void Start();
  /// Stops background machinery (idempotent; also run by the destructor).
  void Stop();

 private:
  /// Tag for the deferred-WAL constructor Open() uses: recovery must load
  /// the checkpoint and replay the log before the writer may touch the
  /// segment files.
  struct OpenTag {};
  Database(DatabaseConfig config, OpenTag);

  /// Assigns stable WAL ids and publishes a built table (catalog +
  /// tables_by_id_). Shared tail of the runtime and recovery create
  /// paths; caller holds create_table_mutex_ (or is single-threaded
  /// recovery).
  Result<storage::Table*> PublishTable(std::unique_ptr<storage::Table> table);

  /// Creates the table and registers it for WAL addressing, without
  /// logging a kCreateTable record (recovery re-creates tables from the
  /// manifest/log and must not re-log them).
  Result<storage::Table*> CreateTableInternal(
      const std::string& name, const std::vector<storage::ColumnDef>& schema,
      size_t num_rows);

  /// Loads checkpoint + WAL from data_dir (Open's second phase).
  Status Recover();

  /// Opens the log writer at `first_segment_seq` and installs the
  /// transaction manager's durability hooks. Recovery hands over the
  /// surviving pre-crash segments so checkpoint truncation owns them,
  /// and `first_lsn` one past the highest LSN ever issued so LSNs stay
  /// strictly increasing across restarts.
  Status StartWal(uint64_t first_segment_seq,
                  const std::vector<wal::PriorSegment>& existing = {},
                  uint64_t first_lsn = 1);

  /// Applies one decoded WAL record: creates the table (recovery/replica
  /// schema replay, with the table-id gap and bounds checks) or replays
  /// the commit through the transaction manager. Records with
  /// commit_ts <= skip_ts are already part of the checkpoint base image.
  /// Caller serializes against CreateTable (create_table_mutex_, or
  /// single-threaded recovery).
  Status ApplyWalRecord(const wal::WalRecord& record,
                        mvcc::Timestamp skip_ts);

  /// Maps one record's redo writes back to live column pointers with the
  /// bounds checks hostile bytes require (WAL recovery, replica apply and
  /// the manifest's prepared-intent restore).
  Status ResolveRedoWrites(const std::vector<wal::RedoWrite>& redo,
                           std::vector<mvcc::SlotWrite>* writes);

  /// Serializes one commit's write set as a redo record and appends it
  /// (called from the commit critical section via the durability sink).
  uint64_t AppendCommitRecord(mvcc::Timestamp commit_ts,
                              const std::vector<mvcc::SlotWrite>& writes);

  /// 2PC siblings of AppendCommitRecord (the distributed sinks).
  uint64_t AppendPrepareRecord(const mvcc::PreparedTxn& txn);
  uint64_t AppendCommitPreparedRecord(
      uint64_t gtid, mvcc::Timestamp commit_ts, mvcc::Timestamp apply_ts,
      const std::vector<mvcc::SlotWrite>& writes);

  /// Installs the commit hook that triggers snapshot epochs and
  /// auto-checkpoints every n commits, local or replicated. Installed once
  /// the engine is fully constructed: recovery replay inside Open() runs
  /// before it, so it never schedules a checkpoint of a half-recovered
  /// state.
  void InstallCommitHook();

  /// Commit-hook half of auto-checkpointing: schedules a Checkpoint() on
  /// the worker pool unless one is already pending.
  void ScheduleCheckpoint();

  /// Opens <data_dir>/extents (idempotent). Recovery calls it whenever
  /// the manifest references extents — even at cold_budget_bytes = 0, so
  /// an instance reopened with tiering off can still load its data.
  Status EnsureExtentStore();

  /// Non-blocking budget enforcement (skipped when another spill or a
  /// checkpoint prune holds the cold mutex); runs after OLAP releases.
  /// Makes one spill pass: concurrent writers fault segments back in, so
  /// repeating passes until the budget holds could run forever.
  void EnforceColdBudget();

  /// Spill passes, repeated while they make progress (or just one with
  /// `single_pass`); caller holds cold_mutex_.
  Status SpillToBudgetLocked(uint64_t budget_bytes, bool single_pass);

  DatabaseConfig config_;
  storage::Catalog catalog_;
  txn::TransactionManager txn_manager_;
  std::unique_ptr<SnapshotManager> snapshot_manager_;
  std::unique_ptr<mvcc::GarbageCollector> gc_;

  // Durability state. tables_by_id_ fixes the WAL/checkpoint addressing
  // (table_id = creation order, column_id = schema position; the reverse
  // direction lives in each Column's stable id, readable lock-free on the
  // commit path). Guarded by create_table_mutex_ against concurrent
  // creates; Checkpoint() copies it under the same mutex.
  std::unique_ptr<wal::LogWriter> log_;
  std::vector<storage::Table*> tables_by_id_;
  std::mutex create_table_mutex_;
  std::mutex checkpoint_mutex_;
  std::atomic<bool> checkpoint_pending_{false};

  // Cold tier. cold_mutex_ serializes every extent Publish/Prune that is
  // not already covered by checkpoint_mutex_: spill passes hold it for
  // their publishes, the post-checkpoint prune holds it while computing
  // the keep-set, so a prune can never observe (and delete) an extent a
  // concurrent spill just referenced.
  std::unique_ptr<storage::ExtentStore> extent_store_;
  std::mutex cold_mutex_;

  // Replication state. applied_lsn_ is the replica apply watermark (set
  // to the recovery high-water mark by StartWal so a resumed stream
  // starts exactly where the local log ends); the waiter is the server's
  // sync-ack hook, swapped under its mutex and invoked outside any
  // engine lock.
  std::atomic<uint64_t> applied_lsn_{0};
  std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  std::mutex repl_waiter_mutex_;
  std::shared_ptr<const ReplicationWaiter> replication_waiter_;

  /// Serializes Start/Stop (the server and its signal-driven shutdown
  /// path may race them; both are idempotent under the lock).
  std::mutex lifecycle_mutex_;

  std::mutex pool_mutex_;
  /// Declared last: its destructor joins the workers (including pending
  /// checkpoint tasks) before any engine state they might still touch is
  /// torn down.
  std::unique_ptr<ThreadPool> pool_;
  bool started_ = false;
};

}  // namespace anker::engine

#endif  // ANKER_ENGINE_DATABASE_H_
