// Durability orchestration of the engine: Database::Open (recovery),
// Database::Checkpoint (snapshot-consistent image + log truncation) and
// the commit-side WAL plumbing. The byte-level machinery lives in
// src/wal/; this file connects it to the catalog, the snapshot manager
// and the transaction manager. Protocols: docs/DURABILITY.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "engine/database.h"
#include "wal/checkpoint.h"
#include "wal/io_util.h"
#include "wal/log_reader.h"

namespace anker::engine {

namespace {

/// FNV-1a, the digest tests and the crash harness compare states with.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void MixBytes(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h = (h ^ p[i]) * 1099511628211ULL;
    }
  }
  void MixU64(uint64_t v) { MixBytes(&v, sizeof(v)); }
  void MixString(const std::string& s) {
    MixU64(s.size());
    MixBytes(s.data(), s.size());
  }
};

/// The one write -> redo mapping (commit, 2PC and checkpoint intent
/// records). It runs inside the commit critical section, which bounds the
/// engine's aggregate commit rate, so the result is a thread_local buffer
/// (allocation-free once warm) and the column's stable ids make the
/// addressing lookup-free. Valid until the thread's next call.
const std::vector<wal::RedoWrite>& RedoWritesOf(
    const std::vector<mvcc::SlotWrite>& writes) {
  static thread_local std::vector<wal::RedoWrite> redo;
  redo.clear();
  for (const mvcc::SlotWrite& w : writes) {
    redo.push_back(wal::RedoWrite{w.column->stable_table_id(),
                                  w.column->stable_column_id(), w.row,
                                  w.new_raw});
  }
  return redo;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(DatabaseConfig config) {
  ANKER_RETURN_IF_ERROR(config.Validate());
  if (config.data_dir.empty()) {
    return Status::InvalidArgument("Database::Open needs config.data_dir");
  }
  std::unique_ptr<Database> db(new Database(std::move(config), OpenTag{}));
  ANKER_RETURN_IF_ERROR(db->Recover());
  db->InstallCommitHook();
  return db;
}

Status Database::Recover() {
  // Phase 1: the checkpoint base image (if one was ever published).
  mvcc::Timestamp ckpt_ts = 0;
  uint64_t ckpt_wal_lsn = 0;
  std::string ckpt_path;
  auto manifest = wal::CheckpointReader::ReadManifest(config_.data_dir,
                                                      &ckpt_path);
  if (manifest.ok()) {
    const wal::CheckpointManifest& m = manifest.value();
    ckpt_ts = m.checkpoint_ts;
    ckpt_wal_lsn = m.wal_lsn;
    // Cold-tier bootstrap: when the manifest references extents the store
    // must exist before any column loads — even with cold_budget_bytes
    // now 0, an extent-backed checkpoint still resolves through it (the
    // columns come up fully resident and the next checkpoint is full).
    // Pruning to the manifest's reference set first removes extents a
    // crashed publish or an unflipped checkpoint left behind.
    if (!m.extents.empty() || m.next_extent_id > 1) {
      ANKER_RETURN_IF_ERROR(EnsureExtentStore());
    }
    if (extent_store_ != nullptr) {
      extent_store_->NoteNextId(m.next_extent_id);
      const std::unordered_set<uint64_t> keep(m.extents.begin(),
                                              m.extents.end());
      ANKER_RETURN_IF_ERROR(extent_store_->Prune(keep));
    }
    std::vector<storage::SegmentExtentRef> refs;
    for (uint32_t table_id = 0; table_id < m.tables.size(); ++table_id) {
      const wal::CheckpointTableMeta& meta = m.tables[table_id];
      auto table_r =
          CreateTableInternal(meta.name, meta.schema, meta.num_rows);
      if (!table_r.ok()) return table_r.status();
      storage::Table* table = table_r.value();
      for (const auto& [column, entries] : meta.dictionaries) {
        table->GetDictionary(column)->Preload(entries);
      }
      for (uint32_t j = 0; j < table->num_columns(); ++j) {
        storage::Column* column = table->GetColumnAt(j);
        ANKER_RETURN_IF_ERROR(wal::CheckpointReader::LoadColumn(
            ckpt_path, table_id, j, column, extent_store_.get(), &refs));
        if (column->segments() != nullptr) {
          // The loaded rows are exactly the extent bytes: re-seed the
          // published-extent bookkeeping so the next checkpoint reuses
          // them (WAL replay below re-dirties whatever it touches).
          for (const storage::SegmentExtentRef& ref : refs) {
            column->segments()->NoteRecoveredExtent(ref);
          }
        }
      }
      if (meta.has_primary_index) {
        table->CreatePrimaryIndex(meta.index_entries);
        ANKER_RETURN_IF_ERROR(wal::CheckpointReader::LoadIndex(
            ckpt_path, table_id, meta.index_entries,
            table->primary_index()));
      }
    }
    txn_manager_.oracle().AdvanceTo(ckpt_ts);
    txn_manager_.RestoreDurableState(m.commit_count, m.next_txn_id);
    // 2PC state: the outcome ledger first (so a WAL-tail zombie prepare
    // of an already-decided transaction is fenced), then the pending
    // intents — re-staged through the replay path, which also advances
    // the oracle past every restored prepare timestamp.
    for (const wal::CheckpointTxnOutcome& o : m.outcomes) {
      if (o.outcome > static_cast<uint8_t>(mvcc::TxnOutcome::kAborted)) {
        return Status::IoError("checkpoint manifest: bad txn outcome");
      }
      txn_manager_.intents().RecordOutcome(
          o.gtid, static_cast<mvcc::TxnOutcome>(o.outcome), o.commit_ts);
    }
    for (const wal::CheckpointPreparedTxn& p : m.prepared) {
      mvcc::PreparedTxn txn;
      txn.gtid = p.gtid;
      txn.primary_shard = p.primary_shard;
      txn.start_ts = p.start_ts;
      txn.prepare_ts = p.prepare_ts;
      ANKER_RETURN_IF_ERROR(ResolveRedoWrites(p.writes, &txn.writes));
      txn_manager_.ReplayPrepare(std::move(txn));
    }
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  }

  // Phase 2: replay the WAL tail through the normal apply path. Records
  // at or below the checkpoint timestamp are already part of the base
  // image and skipped; replay stops cleanly at a torn tail (repaired so
  // later scans cannot mistake it for mid-log corruption).
  auto scan = wal::LogReader::Scan(
      wal_dir(),
      [&](uint64_t /*lsn*/, const wal::WalRecord& record) -> Status {
        return ApplyWalRecord(record, ckpt_ts);
      },
      /*repair=*/config_.durability != wal::DurabilityMode::kOff);
  if (!scan.ok()) return scan.status();

  // Phase 3: resume logging after everything that survived; the writer
  // adopts the old segments so later checkpoints can truncate them. The
  // first LSN must clear both the surviving log (scan) and the
  // checkpoint's watermark (a fully truncated log leaves no frames to
  // scan, but the manifest remembers how far LSNs ever got).
  if (config_.durability != wal::DurabilityMode::kOff) {
    const uint64_t first_lsn =
        std::max(scan.value().max_lsn, ckpt_wal_lsn) + 1;
    return StartWal(scan.value().next_segment_seq, scan.value().segments,
                    first_lsn);
  }
  return Status::OK();
}

Status Database::ResolveRedoWrites(const std::vector<wal::RedoWrite>& redo,
                                   std::vector<mvcc::SlotWrite>* writes) {
  writes->clear();
  writes->reserve(redo.size());
  for (const wal::RedoWrite& w : redo) {
    if (w.table_id >= tables_by_id_.size()) {
      return Status::IoError("redo write references unknown table");
    }
    storage::Table* table = tables_by_id_[w.table_id];
    if (w.column_id >= table->num_columns() || w.row >= table->num_rows()) {
      return Status::IoError("redo write out of bounds for table " +
                             table->name());
    }
    writes->push_back(
        mvcc::SlotWrite{table->GetColumnAt(w.column_id), w.row, w.value});
  }
  return Status::OK();
}

Status Database::ApplyWalRecord(const wal::WalRecord& record,
                                mvcc::Timestamp skip_ts) {
  std::vector<mvcc::SlotWrite> writes;
  switch (record.type) {
    case wal::RecordType::kCreateTable: {
      if (record.table_id < tables_by_id_.size()) {
        return Status::OK();  // Already present via the checkpoint.
      }
      if (record.table_id != tables_by_id_.size()) {
        return Status::IoError("WAL table-id gap: saw " +
                               std::to_string(record.table_id));
      }
      return CreateTableInternal(record.table_name, record.schema,
                                 record.num_rows)
          .status();
    }
    case wal::RecordType::kCommit: {
      if (record.commit_ts <= skip_ts) return Status::OK();
      ANKER_RETURN_IF_ERROR(ResolveRedoWrites(record.writes, &writes));
      txn_manager_.ReplayCommitted(writes, record.commit_ts);
      return Status::OK();
    }
    case wal::RecordType::kPrepare: {
      // At or below the checkpoint the manifest is authoritative: the
      // transaction is either in its pending section (restored already)
      // or decided in its ledger — re-staging from a stale record could
      // re-lock rows whose outcome fell out of the evicting ledger.
      if (record.prepare_ts <= skip_ts) return Status::OK();
      mvcc::PreparedTxn txn;
      txn.gtid = record.gtid;
      txn.primary_shard = record.primary_shard;
      txn.start_ts = record.start_ts;
      txn.prepare_ts = record.prepare_ts;
      ANKER_RETURN_IF_ERROR(ResolveRedoWrites(record.writes, &txn.writes));
      txn_manager_.ReplayPrepare(std::move(txn));
      return Status::OK();
    }
    case wal::RecordType::kCommitPrepared: {
      // The record is self-contained (it carries the write set), so this
      // never depends on the matching kPrepare having survived. Below the
      // checkpoint only the outcome matters — the image already holds the
      // writes; the call still unstages a manifest-restored intent twin.
      if (record.apply_ts > skip_ts) {
        ANKER_RETURN_IF_ERROR(ResolveRedoWrites(record.writes, &writes));
      }
      txn_manager_.ReplayCommitPrepared(record.gtid, record.commit_ts,
                                        record.apply_ts, writes);
      return Status::OK();
    }
    case wal::RecordType::kAbortPrepared: {
      txn_manager_.ReplayAbortPrepared(record.gtid, record.apply_ts);
      return Status::OK();
    }
  }
  return Status::IoError("WAL record with unknown type");
}

Status Database::StartWal(uint64_t first_segment_seq,
                          const std::vector<wal::PriorSegment>& existing,
                          uint64_t first_lsn) {
  wal::LogWriterOptions options;
  options.mode = config_.durability;
  options.segment_bytes = config_.wal_segment_bytes;
  options.flush_interval_millis = config_.wal_flush_interval_millis;
  log_ = std::make_unique<wal::LogWriter>(wal_dir(), options);
  ANKER_RETURN_IF_ERROR(log_->Open(first_segment_seq, existing, first_lsn));
  // Replica apply resumes exactly where the local log ends.
  applied_lsn_.store(first_lsn - 1, std::memory_order_release);

  txn::TransactionManager::DurabilityWait wait;
  if (config_.durability == wal::DurabilityMode::kGroupCommit) {
    wait = [this](uint64_t lsn) {
      ANKER_RETURN_IF_ERROR(log_->WaitDurable(lsn));
      // Synchronous-ack replication composes after the local fsync: the
      // record is durable here either way; a waiter error only withholds
      // the acknowledgement ("commit uncertain").
      std::shared_ptr<const ReplicationWaiter> waiter;
      {
        std::lock_guard<std::mutex> guard(repl_waiter_mutex_);
        waiter = replication_waiter_;
      }
      if (waiter != nullptr) return (*waiter)(lsn);
      return Status::OK();
    };
  }
  // Per-write payload: table_id + column_id (4+4) + row + value (8+8);
  // the 13-byte record head and a safety margin are folded into the
  // constant.
  const size_t max_writes = (wal::kMaxRecordBytes - 64) / 24;
  txn_manager_.SetDurabilityHooks(
      [this](mvcc::Timestamp commit_ts,
             const std::vector<mvcc::SlotWrite>& writes) {
        return AppendCommitRecord(commit_ts, writes);
      },
      std::move(wait), max_writes);
  txn_manager_.SetDistributedHooks(
      [this](const mvcc::PreparedTxn& txn) {
        return AppendPrepareRecord(txn);
      },
      [this](uint64_t gtid, mvcc::Timestamp commit_ts,
             mvcc::Timestamp apply_ts,
             const std::vector<mvcc::SlotWrite>& writes) {
        return AppendCommitPreparedRecord(gtid, commit_ts, apply_ts, writes);
      },
      [this](uint64_t gtid, mvcc::Timestamp abort_ts) {
        static thread_local std::string buf;
        buf.clear();
        wal::EncodeAbortPrepared(gtid, abort_ts, &buf);
        return log_->Append(buf, abort_ts);
      });
  return Status::OK();
}

Status Database::ApplyReplicated(uint64_t lsn, std::string_view payload) {
  if (log_ == nullptr) {
    return Status::InvalidArgument(
        "ApplyReplicated needs durability enabled (the replica mirrors "
        "the primary's log)");
  }
  if (lsn <= applied_lsn()) return Status::OK();  // Re-delivered; ignore.
  if (lsn != applied_lsn() + 1) {
    return Status::IoError("replication stream gap: expected LSN " +
                           std::to_string(applied_lsn() + 1) + ", got " +
                           std::to_string(lsn));
  }
  wal::WalRecord record;
  ANKER_RETURN_IF_ERROR(wal::DecodeRecord(payload, &record));

  // Apply to memory *before* mirroring into the local log: the local
  // checkpoint samples appended_lsn() as its manifest wal_lsn, so every
  // record the log admits to must already be visible to the snapshot pin
  // that follows the sample. (A crash between the two loses the record
  // from both memory and log; the stream re-ships it from applied+1.)
  mvcc::Timestamp max_ts = 0;
  if (record.type == wal::RecordType::kCreateTable) {
    // Same mutex discipline as CreateTable: the checkpoint captures its
    // table set and draws its pin under this lock, so the record's fresh
    // stamp outlives any truncation by a checkpoint that missed the
    // table.
    std::lock_guard<std::mutex> guard(create_table_mutex_);
    ANKER_RETURN_IF_ERROR(ApplyWalRecord(record, /*skip_ts=*/0));
    max_ts = txn_manager_.oracle().Next();
    log_->AppendReplicated(payload, max_ts, lsn);
  } else {
    ANKER_RETURN_IF_ERROR(ApplyWalRecord(record, /*skip_ts=*/0));
    // The truncation watermark must cover the record's own stamp: the
    // local prepare/apply timestamp for 2PC records, commit_ts otherwise.
    switch (record.type) {
      case wal::RecordType::kPrepare:
        max_ts = record.prepare_ts;
        break;
      case wal::RecordType::kCommitPrepared:
      case wal::RecordType::kAbortPrepared:
        max_ts = record.apply_ts;
        break;
      default:
        max_ts = record.commit_ts;
        break;
    }
    log_->AppendReplicated(payload, max_ts, lsn);
  }

  {
    std::lock_guard<std::mutex> guard(applied_mutex_);
    applied_lsn_.store(lsn, std::memory_order_release);
  }
  applied_cv_.notify_all();
  return Status::OK();
}

Status Database::WaitAppliedLsn(uint64_t lsn, int timeout_millis) {
  if (applied_lsn() >= lsn) return Status::OK();
  std::unique_lock<std::mutex> lock(applied_mutex_);
  const bool reached = applied_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_millis),
      [&] { return applied_lsn() >= lsn; });
  if (reached) return Status::OK();
  return Status::ResourceBusy(
      "replica has not applied LSN " + std::to_string(lsn) + " yet (at " +
      std::to_string(applied_lsn()) + "); retry or read stale");
}

void Database::SetReplicationWaiter(ReplicationWaiter waiter) {
  std::lock_guard<std::mutex> guard(repl_waiter_mutex_);
  if (waiter) {
    replication_waiter_ =
        std::make_shared<const ReplicationWaiter>(std::move(waiter));
  } else {
    replication_waiter_.reset();
  }
}

uint64_t Database::AppendCommitRecord(
    mvcc::Timestamp commit_ts, const std::vector<mvcc::SlotWrite>& writes) {
  static thread_local std::string buf;
  buf.clear();
  wal::EncodeCommit(commit_ts, RedoWritesOf(writes), &buf);
  return log_->Append(buf, commit_ts);
}

uint64_t Database::AppendPrepareRecord(const mvcc::PreparedTxn& txn) {
  static thread_local std::string buf;
  buf.clear();
  wal::EncodePrepare(txn.gtid, txn.primary_shard, txn.start_ts,
                     txn.prepare_ts, RedoWritesOf(txn.writes), &buf);
  return log_->Append(buf, txn.prepare_ts);
}

uint64_t Database::AppendCommitPreparedRecord(
    uint64_t gtid, mvcc::Timestamp commit_ts, mvcc::Timestamp apply_ts,
    const std::vector<mvcc::SlotWrite>& writes) {
  static thread_local std::string buf;
  buf.clear();
  wal::EncodeCommitPrepared(gtid, commit_ts, apply_ts, RedoWritesOf(writes),
                            &buf);
  // Truncation keys off the *local* apply stamp, exactly like a commit.
  return log_->Append(buf, apply_ts);
}

void Database::ScheduleCheckpoint() {
  if (checkpoint_pending_.exchange(true, std::memory_order_acq_rel)) return;
  worker_pool().Submit([this] {
    const auto result = Checkpoint();
    if (!result.ok()) {
      std::fprintf(stderr, "anker: background checkpoint failed: %s\n",
                   result.status().ToString().c_str());
    }
    checkpoint_pending_.store(false, std::memory_order_release);
  });
}

Result<CheckpointResult> Database::Checkpoint() {
  if (config_.data_dir.empty()) {
    return Status::InvalidArgument(
        "Checkpoint() needs config.data_dir to write into");
  }
  std::lock_guard<std::mutex> guard(checkpoint_mutex_);

  // Capture the table set and pin the read point atomically with respect
  // to CreateTable (same mutex): every table either completes creation
  // before the pin — and is then part of this checkpoint — or draws its
  // schema-record timestamp after ckpt_ts, so the log truncation below
  // can never delete the only durable trace of it.
  std::vector<storage::Table*> tables;
  std::unique_ptr<OlapContext> ctx;
  uint64_t manifest_wal_lsn = 0;
  {
    std::lock_guard<std::mutex> create_guard(create_table_mutex_);
    tables = tables_by_id_;
    // The replication watermark, sampled *before* the epoch trigger:
    // every commit record with lsn <= the sample appended (and therefore
    // stored its visible_ts) before the trigger, so the pin below covers
    // it; every create-table record at or below the sample belongs to a
    // completed create under this same mutex, so its table is in
    // `tables`. Anything the image might miss has lsn > the sample.
    if (log_ != nullptr) manifest_wal_lsn = log_->appended_lsn();
    // A fresh epoch makes the checkpoint as current as possible; OLAP
    // queries arriving meanwhile simply share it.
    if (snapshot_manager_ != nullptr) snapshot_manager_->TriggerEpoch();
    std::vector<storage::Column*> columns;
    for (storage::Table* table : tables) {
      for (size_t j = 0; j < table->num_columns(); ++j) {
        columns.push_back(table->GetColumnAt(j));
      }
    }
    auto ctx_r = BeginOlap(columns);
    if (!ctx_r.ok()) return ctx_r.status();
    ctx = ctx_r.TakeValue();
  }
  const mvcc::Timestamp ckpt_ts = ctx->read_ts();

  // No shortcut for a repeated ckpt_ts: bulk loads and creates change
  // state without advancing commit timestamps (homogeneous modes pin
  // read_ts from the commit watermark), so "same timestamp" does not
  // mean "same state" — the image is always rewritten.
  wal::CheckpointWriter writer(config_.data_dir);
  Status s = writer.Begin(ckpt_ts);

  wal::CheckpointManifest manifest;
  manifest.checkpoint_ts = ckpt_ts;
  // Sampled as close to the pin as possible; commits racing the sample
  // can skew these by a handful, which only nudges stats and the
  // epoch/checkpoint cadence after a recovery, never correctness —
  // replay derives actual state from ckpt_ts, not from these counters.
  manifest.commit_count = txn_manager_.committed_count();
  manifest.next_txn_id = txn_manager_.next_txn_id();
  manifest.wal_lsn = manifest_wal_lsn;

  // 2PC state: pending intents are invisible to the column image by
  // construction, so the manifest carries them (plus the outcome ledger
  // that fences zombies). Snapshotted after the pin — a transaction
  // decided since then replays from its self-contained kCommitPrepared /
  // kAbortPrepared record, whose local stamp is above ckpt_ts and thus
  // survives the truncation below.
  for (const mvcc::PreparedTxn& txn : txn_manager_.intents().SnapshotPending()) {
    wal::CheckpointPreparedTxn p;
    p.gtid = txn.gtid;
    p.primary_shard = txn.primary_shard;
    p.start_ts = txn.start_ts;
    p.prepare_ts = txn.prepare_ts;
    p.writes = RedoWritesOf(txn.writes);
    manifest.prepared.push_back(std::move(p));
  }
  for (const mvcc::IntentTable::OutcomeEntry& e :
       txn_manager_.intents().SnapshotOutcomes()) {
    manifest.outcomes.push_back(wal::CheckpointTxnOutcome{
        e.gtid, static_cast<uint8_t>(e.outcome), e.commit_ts});
  }

  uint64_t data_bytes_written = 0;
  uint64_t extent_bytes_reused = 0;
  std::vector<uint64_t> extent_ids;
  for (uint32_t table_id = 0; s.ok() && table_id < tables.size();
       ++table_id) {
    storage::Table* table = tables[table_id];
    wal::CheckpointTableMeta meta;
    meta.name = table->name();
    meta.num_rows = table->num_rows();
    meta.schema = table->schema();
    for (const std::string& column : table->DictionaryNames()) {
      meta.dictionaries.emplace_back(column,
                                     table->GetDictionary(column)->Snapshot());
    }
    for (uint32_t j = 0; s.ok() && j < table->num_columns(); ++j) {
      const storage::Column* column = table->GetColumnAt(j);
      const ColumnReader reader = ctx->Reader(column);
      storage::ColumnSegments* segments = column->segments();
      const storage::ColumnSnapshot* snap =
          ctx->handle_ != nullptr ? ctx->handle_->Find(column) : nullptr;
      if (segments != nullptr && snap != nullptr && !reader.versioned()) {
        // Incremental path (tiered column, clean snapshot): one extent
        // ref per segment, captured from the snapshot image itself.
        // Segments whose published extent already matches the image are
        // referenced by id — no bytes rewritten.
        auto refs = segments->CollectCheckpointRefs(
            reinterpret_cast<const uint64_t*>(snap->view->data()),
            snap->segment_gens);
        if (!refs.ok()) {
          s = refs.status();
        } else {
          s = writer.WriteColumnExtents(table_id, j, refs.value());
          for (const storage::SegmentExtentRef& ref : refs.value()) {
            extent_ids.push_back(ref.extent_id);
            (ref.reused ? extent_bytes_reused : data_bytes_written) +=
                ref.file_bytes;
          }
        }
      } else if (!reader.versioned()) {
        // Clean snapshot image: the view itself is the consistent state.
        s = writer.WriteColumnRaw(table_id, j, reader.raw_base(),
                                  table->num_rows());
        data_bytes_written += table->num_rows() * sizeof(uint64_t);
      } else {
        // Resolve through the version chains at the checkpoint timestamp
        // (live MVCC reads under the homogeneous modes, snapshot + chains
        // under heterogeneous when the epoch carried versions).
        s = writer.WriteColumnResolved(
            table_id, j, table->num_rows(),
            [&reader](size_t row) { return reader.Get(row); });
        data_bytes_written += table->num_rows() * sizeof(uint64_t);
      }
    }
    if (s.ok() && table->primary_index() != nullptr) {
      meta.has_primary_index = true;
      meta.index_entries = table->primary_index()->size();
      s = writer.WriteIndex(table_id, *table->primary_index());
    }
    manifest.tables.push_back(std::move(meta));
  }

  if (s.ok()) {
    std::sort(extent_ids.begin(), extent_ids.end());
    extent_ids.erase(std::unique(extent_ids.begin(), extent_ids.end()),
                     extent_ids.end());
    manifest.extents = extent_ids;
    manifest.next_extent_id =
        extent_store_ != nullptr ? extent_store_->next_id() : 1;
    s = writer.Finish(manifest);
  }
  if (!s.ok()) {
    writer.Abort();
    FinishOlap(std::move(ctx));
    return s;
  }

  // The image is live: everything at or below ckpt_ts is redundant in the
  // log now. The pinned transaction must end on every path — a leaked
  // registry entry would freeze MinStartTs and with it all GC/trimming.
  Status truncate = Status::OK();
  if (log_ != nullptr) truncate = log_->TruncateThrough(ckpt_ts);
  const Status finish = FinishOlap(std::move(ctx));
  ANKER_RETURN_IF_ERROR(truncate);
  ANKER_RETURN_IF_ERROR(finish);

  if (extent_store_ != nullptr) {
    // Garbage-collect extents no prior checkpoint can reference anymore:
    // keep what the new manifest cites plus everything a live segment still
    // points at (columns created after capture included — the catalog walk,
    // not the captured table list, is authoritative). Best effort: a failed
    // prune only delays reclamation until the next checkpoint.
    std::lock_guard<std::mutex> cold_guard(cold_mutex_);
    std::unordered_set<uint64_t> keep(manifest.extents.begin(),
                                      manifest.extents.end());
    for (storage::Column* column : catalog_.AllColumns()) {
      if (column->segments() != nullptr) {
        column->segments()->AppendLiveExtents(&keep);
      }
    }
    const Status pruned = extent_store_->Prune(keep);
    if (!pruned.ok()) {
      std::fprintf(stderr, "anker: extent prune skipped: %s\n",
                   pruned.message().c_str());
    }
  }
  return CheckpointResult{ckpt_ts, config_.data_dir + "/" + writer.dir_name(),
                          data_bytes_written, extent_bytes_reused};
}

uint64_t Database::ContentDigest() const {
  std::vector<storage::Table*> tables = catalog_.AllTables();
  std::sort(tables.begin(), tables.end(),
            [](const storage::Table* a, const storage::Table* b) {
              return a->name() < b->name();
            });
  Fnv fnv;
  fnv.MixU64(tables.size());
  for (const storage::Table* table : tables) {
    fnv.MixString(table->name());
    fnv.MixU64(table->num_rows());
    for (size_t j = 0; j < table->num_columns(); ++j) {
      const storage::Column* column = table->GetColumnAt(j);
      fnv.MixString(column->name());
      fnv.MixU64(static_cast<uint64_t>(column->type()));
      for (size_t row = 0; row < column->num_rows(); ++row) {
        fnv.MixU64(column->ReadLatestRaw(row));
      }
    }
    for (const std::string& column : table->DictionaryNames()) {
      fnv.MixString(column);
      for (const std::string& entry :
           table->GetDictionary(column)->Snapshot()) {
        fnv.MixString(entry);
      }
    }
  }
  return fnv.h;
}

}  // namespace anker::engine
