#include "engine/database.h"

#include <thread>

#include "wal/checkpoint.h"
#include "wal/io_util.h"

namespace anker::engine {

DatabaseConfig DatabaseConfig::ForMode(txn::ProcessingMode mode) {
  DatabaseConfig config;
  config.mode = mode;
  config.backend = config.heterogeneous()
                       ? snapshot::BufferBackend::kVmSnapshot
                       : snapshot::BufferBackend::kPlain;
  return config;
}

Status DatabaseConfig::Validate() const {
  if (heterogeneous()) {
    if (backend == snapshot::BufferBackend::kPlain) {
      return Status::InvalidArgument(
          "heterogeneous mode needs a snapshot-capable backend, got plain");
    }
  } else if (backend != snapshot::BufferBackend::kPlain) {
    return Status::InvalidArgument(
        std::string("homogeneous modes never snapshot; backend ") +
        snapshot::BufferBackendName(backend) +
        " would only add copy-on-write cost (use plain)");
  }
  if (durability != wal::DurabilityMode::kOff && data_dir.empty()) {
    return Status::InvalidArgument(
        std::string("durability=") + wal::DurabilityModeName(durability) +
        " needs a data_dir for the write-ahead log");
  }
  if (checkpoint_interval_commits > 0 && data_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_interval_commits needs a data_dir to checkpoint into");
  }
  if (cold_budget_bytes > 0 && data_dir.empty()) {
    return Status::InvalidArgument(
        "cold_budget_bytes needs a data_dir for the extent store");
  }
  if (cold_segment_rows < 1024 ||
      (cold_segment_rows & (cold_segment_rows - 1)) != 0 ||
      cold_segment_rows > storage::kMaxExtentRows) {
    return Status::InvalidArgument(
        "cold_segment_rows must be a power of two in [1024, 2^24]");
  }
  if (!data_dir.empty()) {
    // Probe (and mkdir -p) the data directory up front: a config pointing
    // at an uncreatable path (say /var/lib/anker without root) must come
    // back as a recoverable error here, not as an IO failure deep inside
    // Database::Open after half the engine is constructed.
    const Status created = wal::EnsureDir(data_dir);
    if (!created.ok()) {
      return Status::InvalidArgument("data_dir '" + data_dir +
                                     "' cannot be created: " +
                                     created.message());
    }
  }
  return Status::OK();
}

ColumnReader OlapContext::Reader(const storage::Column* column) const {
  if (handle_ != nullptr) {
    return ColumnReader::ForSnapshot(handle_->GetColumn(column),
                                     column->num_rows());
  }
  return ColumnReader::ForLive(column, read_ts_);
}

Result<ColumnReader> OlapContext::TryReader(
    const storage::Column* column) const {
  if (handle_ != nullptr) {
    const storage::ColumnSnapshot* snap = handle_->Find(column);
    if (snap == nullptr) {
      return Status::InvalidArgument("column '" + column->name() +
                                     "' is not part of this OLAP "
                                     "transaction's column set");
    }
    return ColumnReader::ForSnapshot(*snap, column->num_rows());
  }
  return ColumnReader::ForLive(column, read_ts_);
}

Result<std::unique_ptr<Database>> Database::Create(DatabaseConfig config) {
  ANKER_RETURN_IF_ERROR(config.Validate());
  // Environmental failures must come back as Status here, not as the
  // plain constructor's CHECK-abort: configs (and data_dirs) reaching
  // Create are user input.
  std::unique_ptr<Database> db(new Database(std::move(config), OpenTag{}));
  if (db->config_.durability != wal::DurabilityMode::kOff) {
    if (wal::HasDurableState(db->config_.data_dir)) {
      return Status::AlreadyExists(
          "data_dir already holds durable state; reopen it with "
          "Database::Open");
    }
    ANKER_RETURN_IF_ERROR(db->StartWal(1));
  }
  db->InstallCommitHook();
  return db;
}

Database::Database(DatabaseConfig config)
    : Database(std::move(config), OpenTag{}) {
  if (config_.durability != wal::DurabilityMode::kOff) {
    // A plain constructor means "fresh database". Existing durable state
    // must go through Open(), which replays it — silently truncating an
    // old log here would be data loss.
    ANKER_CHECK_MSG(
        !wal::HasDurableState(config_.data_dir),
        "data_dir already holds durable state; reopen it with Database::Open");
    const Status started = StartWal(1);
    ANKER_CHECK_MSG(started.ok(), started.message().c_str());
  }
  InstallCommitHook();
}

std::string Database::wal_dir() const {
  return wal::WalDirOf(config_.data_dir);
}

Database::Database(DatabaseConfig config, OpenTag)
    : config_(std::move(config)), txn_manager_(config_.mode) {
  const Status valid = config_.Validate();
  ANKER_CHECK_MSG(valid.ok(), valid.message().c_str());
  if (config_.cold_budget_bytes > 0) {
    // Validate() already probed data_dir creation; a failure here means
    // the extents subdirectory itself is unusable.
    const Status cold = EnsureExtentStore();
    ANKER_CHECK_MSG(cold.ok(), cold.message().c_str());
  }
  if (config_.heterogeneous()) {
    snapshot_manager_ = std::make_unique<SnapshotManager>(
        &txn_manager_.oracle(), &txn_manager_.registry());
  } else {
    gc_ = std::make_unique<mvcc::GarbageCollector>(
        [this] {
          std::vector<mvcc::VersionStore*> stores;
          for (storage::Column* column : catalog_.AllColumns()) {
            stores.push_back(column->versions());
          }
          return stores;
        },
        &txn_manager_.registry(), &txn_manager_.oracle(),
        config_.gc_interval_millis);
  }
}

void Database::InstallCommitHook() {
  const uint64_t snap_interval =
      config_.heterogeneous() ? config_.snapshot_interval_commits : 0;
  const uint64_t ckpt_interval = config_.checkpoint_interval_commits;
  if (snap_interval == 0 && ckpt_interval == 0) return;
  SnapshotManager* manager = snapshot_manager_.get();
  txn_manager_.SetCommitHook(
      [this, manager, snap_interval, ckpt_interval](uint64_t commits) {
        if (snap_interval > 0 && manager != nullptr &&
            commits % snap_interval == 0) {
          manager->TriggerEpoch();
        }
        if (ckpt_interval > 0 && commits % ckpt_interval == 0) {
          ScheduleCheckpoint();
        }
      });
}

Database::~Database() { Stop(); }

void Database::Start() {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  if (started_) return;
  started_ = true;
  if (gc_ != nullptr) gc_->Start();
}

void Database::Stop() {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  if (!started_) return;
  started_ = false;
  if (gc_ != nullptr) gc_->Stop();
}

ThreadPool& Database::worker_pool() {
  std::lock_guard<std::mutex> guard(pool_mutex_);
  if (pool_ == nullptr) {
    size_t threads = config_.worker_threads;
    if (threads == 0) {
      threads = std::max<size_t>(std::thread::hardware_concurrency(), 1);
    }
    threads = std::max(threads, config_.scan_threads);
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return *pool_;
}

Result<storage::Table*> Database::PublishTable(
    std::unique_ptr<storage::Table> table) {
  storage::Table* raw = table.get();
  // Stable ids must be in place before AddTable publishes the table: a
  // concurrent thread may obtain it through the catalog and commit
  // immediately, and the redo sink reads these ids lock-free.
  const uint32_t table_id = static_cast<uint32_t>(tables_by_id_.size());
  for (size_t j = 0; j < raw->num_columns(); ++j) {
    raw->GetColumnAt(j)->SetStableId(table_id, static_cast<uint32_t>(j));
    // Tiering attaches before the table is visible to any other thread;
    // columns of an engine without a budget stay untiered (all fast
    // paths byte-identical to the pre-tiering engine).
    if (config_.cold_budget_bytes > 0) {
      raw->GetColumnAt(j)->EnableTiering(extent_store_.get(),
                                         config_.cold_segment_rows);
    }
  }
  ANKER_RETURN_IF_ERROR(catalog_.AddTable(std::move(table)));
  tables_by_id_.push_back(raw);
  return raw;
}

Result<storage::Table*> Database::CreateTableInternal(
    const std::string& name, const std::vector<storage::ColumnDef>& schema,
    size_t num_rows) {
  auto table = storage::Table::Create(name, schema, num_rows,
                                      config_.backend);
  if (!table.ok()) return table.status();
  return PublishTable(table.TakeValue());
}

Result<storage::Table*> Database::CreateTable(
    const std::string& name, const std::vector<storage::ColumnDef>& schema,
    size_t num_rows) {
  std::lock_guard<std::mutex> guard(create_table_mutex_);
  if (log_ == nullptr) return CreateTableInternal(name, schema, num_rows);

  // Durable path: the schema record must be in the log *before* the
  // table becomes reachable through the catalog — a concurrent thread
  // may obtain the table and commit immediately, and recovery refuses a
  // log where a commit record precedes its table's kCreateTable record.
  // The name is checked first (under this mutex, the only table-adding
  // path besides single-threaded recovery) so a duplicate name cannot
  // leave a stray schema record. The one remaining stray-record window is
  // a failed group-commit WaitDurable below: the record may reach the
  // disk although the create returns an error — acceptable, because a
  // poisoned log fails every subsequent commit anyway and replaying the
  // record after a restart merely creates an empty table with the schema
  // the caller asked for.
  if (catalog_.HasTable(name)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table = storage::Table::Create(name, schema, num_rows,
                                      config_.backend);
  if (!table.ok()) return table.status();

  // Log the schema so a table created after the last checkpoint exists
  // again before its commits replay. Note the bulk-load path
  // (Column::LoadValue) is NOT logged: loaded data becomes durable with
  // the first Checkpoint() — see docs/DURABILITY.md.
  //
  // The record is stamped with a fresh oracle tick: checkpoint truncation
  // deletes segments whose newest timestamp the checkpoint covers, and an
  // unstamped record could be the only durable trace of a table the
  // in-flight checkpoint does not contain. Checkpoint() captures its
  // table set under create_table_mutex_ *including* the snapshot pin, so
  // a create that misses the capture draws its tick after ckpt_ts and the
  // record (plus all the table's commits) outlives the truncation.
  std::string payload;
  wal::EncodeCreateTable(static_cast<uint32_t>(tables_by_id_.size()), name,
                         num_rows, schema, &payload);
  if (payload.size() > wal::kMaxRecordBytes) {
    return Status::InvalidArgument(
        "table schema exceeds the WAL record size limit");
  }
  const mvcc::Timestamp stamp = txn_manager_.oracle().Next();
  const uint64_t lsn = log_->Append(payload, stamp);
  if (config_.durability == wal::DurabilityMode::kGroupCommit) {
    ANKER_RETURN_IF_ERROR(log_->WaitDurable(lsn));
  }
  return PublishTable(table.TakeValue());
}

Result<std::unique_ptr<OlapContext>> Database::BeginOlap(
    const std::vector<storage::Column*>& columns) {
  std::unique_ptr<OlapContext> ctx(new OlapContext());
  ctx->txn_ = txn_manager_.Begin(txn::TxnType::kOlap);
  ctx->scan_threads_ = std::max<size_t>(1, config_.scan_threads);
  if (ctx->scan_threads_ > 1) ctx->scan_pool_ = &worker_pool();
  if (config_.heterogeneous()) {
    auto handle = snapshot_manager_->Acquire(columns);
    if (!handle.ok()) {
      txn_manager_.Abort(ctx->txn_.get());
      return handle.status();
    }
    ctx->handle_ = handle.TakeValue();
    // OLAP transactions read at the epoch timestamp: every column resolves
    // to the same logical point in time even though materialization is
    // lazy and per column (paper Section 2.2.2).
    ctx->read_ts_ = ctx->handle_->epoch_ts();
  } else {
    ctx->read_ts_ = ctx->txn_->start_ts();
    // Live scans hand out raw buffer pointers; with tiering on, every
    // column in the set must be resident (and stay pinned) for the
    // transaction's lifetime. Heterogeneous mode pins per snapshot
    // instead (inside MaterializeSnapshot).
    for (storage::Column* column : columns) {
      if (column->segments() == nullptr) continue;
      auto lease = column->PinResident();
      if (!lease.ok()) {
        txn_manager_.Abort(ctx->txn_.get());
        return lease.status();
      }
      ctx->residency_leases_.push_back(lease.TakeValue());
    }
  }
  return ctx;
}

Status Database::FinishOlap(std::unique_ptr<OlapContext> ctx) {
  ANKER_CHECK(ctx != nullptr);
  // Release the snapshot handle before finishing the transaction so epoch
  // retirement sees up-to-date refcounts.
  ctx->handle_.reset();
  ctx->residency_leases_.clear();
  const Status committed = txn_manager_.Commit(ctx->txn_.get());
  // Residency just dropped; opportunistically push the tier back under
  // its budget (non-blocking — a busy cold mutex means someone else is
  // already spilling or pruning).
  if (config_.cold_budget_bytes > 0) EnforceColdBudget();
  return committed;
}

}  // namespace anker::engine
