#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "server/replication.h"

namespace anker::server {

using Outcome = SessionLoop::Outcome;

struct Server::Session : SessionLoop::Session {
  /// Touched by the loop thread and by the worker running this session's
  /// dispatched op, never concurrently.
  std::unique_ptr<txn::Transaction> txn;
};

Server::Server(engine::Database* db, ServerConfig config)
    : db_(db),
      config_(std::move(config)),
      loop_(this, &db->worker_pool(), config_) {
  ANKER_CHECK(db_ != nullptr);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  // Before the loop runs: a REPLICATE_HELLO may arrive at once.
  if (db_->log_writer() != nullptr && config_.replica == nullptr) {
    ReplicationMasterConfig repl;
    repl.heartbeat_millis = config_.repl_heartbeat_millis;
    repl.ack_wait_millis = config_.repl_ack_wait_millis;
    replication_ = std::make_unique<ReplicationMaster>(db_, repl);
  }
  const Status started = loop_.Start();
  if (!started.ok()) replication_.reset();
  return started;
}

void Server::Shutdown() {
  loop_.Shutdown();
  // Streamer threads own their (detached) sockets; stop them once the
  // loop is gone. Safe when never created (replica / no WAL).
  if (replication_ != nullptr) replication_->Stop();
}

ServerStats Server::stats() const {
  ServerStats stats = loop_.stats();
  stats.commits_acked = commits_acked_.load(std::memory_order_relaxed);
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  return stats;
}

std::shared_ptr<SessionLoop::Session> Server::NewSession() {
  return std::make_shared<Session>();
}

HelloOkMsg Server::HelloOk() {
  HelloOkMsg ok;
  ok.server_info =
      std::string("anker ") + txn::ProcessingModeName(db_->config().mode);
  return ok;
}

void Server::Closed(SessionLoop::Session& base) {
  // A dropped connection aborts its open transaction — local writes are
  // simply discarded, nothing was visible to anyone.
  Session& session = static_cast<Session&>(base);
  if (session.txn != nullptr) {
    db_->Abort(session.txn.get());
    session.txn.reset();
  }
}

Outcome Server::Dispatched(SessionLoop::Session& session,
                           const std::string& payload, std::string* out) {
  DispatchedResponse(static_cast<Session&>(session), payload, out);
  return Outcome::kKeep;
}

Outcome Server::Inline(SessionLoop::Session& base, Op op,
                       std::string_view body, std::string* out) {
  Session& session = static_cast<Session&>(base);
  auto respond = [out](std::string_view payload) {
    EncodeFrame(payload, out);
  };
  auto respond_error = [out](WireError code, std::string_view message) {
    SessionLoop::AppendError(Op::kErr, code, message, out);
  };
  auto respond_status = [&](const Status& status) {
    if (status.ok()) {
      respond(std::string(1, static_cast<char>(Op::kOk)));
    } else {
      respond_error(WireErrorFor(status), status.message());
    }
  };

  // ---- read-only replica gate --------------------------------------------
  // Writes belong on the primary; the wire error is recoverable (maps to
  // kResourceBusy client-side) so callers can fail over rather than die.
  // Reads, BEGIN/COMMIT of read-only transactions and the ops surface
  // stay available — that is the point of a read replica.
  if (config_.replica != nullptr && config_.replica->read_only() &&
      (op == Op::kWrite || op == Op::kWriteBatch || op == Op::kExecTxn ||
       op == Op::kCreateTable || op == Op::kLoad || op == Op::kBuildIndex ||
       op == Op::kDictDefine || op == Op::kPrepareTxn ||
       op == Op::kCommitPrepared || op == Op::kAbortPrepared ||
       op == Op::kResolveIntent)) {
    respond_error(WireError::kReadOnlyReplica,
                  "writes go to the primary (or PROMOTE this node)");
    return Outcome::kKeep;
  }

  switch (op) {
    case Op::kPing:
      respond(std::string(1, static_cast<char>(Op::kPong)));
      return Outcome::kKeep;
    case Op::kBegin:
      if (session.txn != nullptr) {
        respond_error(WireError::kInvalidArgument,
                      "transaction already open (no nesting)");
        return Outcome::kKeep;
      }
      session.txn = db_->BeginOltp();
      respond_status(Status::OK());
      return Outcome::kKeep;
    case Op::kAbort:
      if (session.txn == nullptr) {
        respond_error(WireError::kInvalidArgument, "no open transaction");
        return Outcome::kKeep;
      }
      db_->Abort(session.txn.get());
      session.txn.reset();
      respond_status(Status::OK());
      return Outcome::kKeep;
    case Op::kRead: {
      PointReadMsg msg;
      if (!DecodePointRead(body, &msg).ok()) break;
      mvcc::IntentInfo intent;
      auto value = DoRead(session.txn.get(), msg, &intent);
      std::string response;
      if (!value.ok() && intent.gtid != 0) {
        // The slot carries an unresolved write intent below the reader's
        // snapshot: the outcome is not decidable here. Bounce the reader
        // to the primary shard instead of guessing.
        IntentPendingMsg pending;
        pending.gtid = intent.gtid;
        pending.primary_shard = intent.primary_shard;
        EncodeIntentPending(pending, &response);
        respond(response);
      } else if (!value.ok()) {
        respond_status(value.status());
      } else {
        EncodeReadOk(value.value(), &response);
        respond(response);
      }
      return Outcome::kKeep;
    }
    case Op::kWrite:
    case Op::kWriteBatch: {
      std::vector<PointWrite> writes(1);
      const Status decoded = op == Op::kWrite
                                 ? DecodeWrite(body, &writes[0])
                                 : DecodeWriteBatch(body, &writes);
      if (!decoded.ok()) break;
      if (session.txn == nullptr) {
        respond_error(WireError::kInvalidArgument,
                      "no open transaction (BEGIN first)");
        return Outcome::kKeep;
      }
      Status applied = Status::OK();
      for (const PointWrite& write : writes) {
        applied = DoWrite(session.txn.get(), write);
        if (!applied.ok()) break;
      }
      respond_status(applied);
      return Outcome::kKeep;
    }
    case Op::kListTables: {
      std::vector<TableInfo> infos;
      for (storage::Table* table : db_->catalog().AllTables()) {
        TableInfo info;
        info.name = table->name();
        info.num_rows = table->num_rows();
        info.schema = table->schema();
        info.has_primary_index = table->primary_index() != nullptr;
        infos.push_back(std::move(info));
      }
      std::string response;
      EncodeTables(infos, &response);
      respond(response);
      return Outcome::kKeep;
    }
    case Op::kReplicaStatus: {
      if (!body.empty()) break;  // Acks only belong on stream connections.
      ReplicaStatusOkMsg status;  // Durability off: all-zero primary.
      if (config_.replica != nullptr) {
        status = config_.replica->Status_();
      } else if (replication_ != nullptr) {
        status = replication_->PrimaryStatus();
      }
      status.pending_intents = db_->txn_manager().intents().PendingCount();
      std::string response;
      EncodeReplicaStatusOk(status, &response);
      respond(response);
      return Outcome::kKeep;
    }
    case Op::kReplicateHello:
      return Subscribe(session, body, out);
    case Op::kRouterStatus:
      // Answered (negatively) so a client can probe whether an endpoint
      // is a router or a plain engine server.
      respond_error(WireError::kNotSupported, "not a shard router");
      return Outcome::kKeep;
    case Op::kDecommissionReplica: {
      DecommissionReplicaMsg msg;
      if (!DecodeDecommissionReplica(body, &msg).ok()) break;
      respond_status(replication_ != nullptr
                         ? replication_->Decommission(msg.replica_id)
                         : Status::NotSupported(
                               config_.replica != nullptr
                                   ? "replicas hold no retention registry; "
                                     "decommission on the primary"
                                   : "durability is off: no replication "
                                     "state"));
      return Outcome::kKeep;
    }
    case Op::kCommit:
      if (session.txn == nullptr) {
        respond_error(WireError::kInvalidArgument, "no open transaction");
        return Outcome::kKeep;
      }
      return Outcome::kDispatch;
    case Op::kExecTxn:
    case Op::kQuery:
    case Op::kCreateTable:
    case Op::kLoad:
    case Op::kBuildIndex:
    case Op::kDictDefine:
    case Op::kFetchCheckpoint:
    case Op::kWaitLsn:
    case Op::kPromote:
    case Op::kCheckpointNow:
    case Op::kDigest:
    case Op::kPrepareTxn:
    case Op::kCommitPrepared:
    case Op::kAbortPrepared:
    case Op::kResolveIntent:
      // These may fsync, scan or wait for a while: the worker pool runs
      // them.
      return Outcome::kDispatch;
    default:
      break;
  }
  // Reaching here means a known request had a malformed body.
  return SessionLoop::ProtocolError("malformed request body", out);
}

Outcome Server::Subscribe(Session& session, std::string_view body,
                          std::string* out) {
  ReplicateHelloMsg hello;
  if (!DecodeReplicateHello(body, &hello).ok()) {
    return SessionLoop::ProtocolError("malformed request body", out);
  }
  if (replication_ == nullptr) {
    SessionLoop::AppendError(
        Op::kErr, WireError::kNotSupported,
        config_.replica != nullptr
            ? "replicas do not serve the stream; subscribe to the primary"
            : "durability is off: no WAL to ship",
        out);
    return Outcome::kClose;
  }
  if (session.txn != nullptr) {
    db_->Abort(session.txn.get());
    session.txn.reset();
  }
  // Hand the socket to a dedicated streamer thread. Frames the replica
  // pipelined behind the subscription (early acks) travel along,
  // re-framed.
  std::string residual;
  const int fd = loop_.Detach(session, &residual);
  if (fd < 0) return Outcome::kKeep;  // Peer went away before the stream.
  const Status subscribed =
      replication_->Subscribe(fd, std::move(residual), hello);
  if (!subscribed.ok()) {
    std::string frame;
    SessionLoop::AppendError(Op::kErr, WireErrorFor(subscribed),
                             subscribed.message(), &frame);
    [[maybe_unused]] ssize_t n =
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
  return Outcome::kKeep;
}

namespace {
Result<storage::Column*> ResolveColumn(engine::Database* db,
                                       const std::string& table_name,
                                       const std::string& column_name,
                                       storage::Table** table_out);
Result<uint64_t> ResolveRow(storage::Table* table, bool by_key, uint64_t key);
}  // namespace

void Server::DispatchedResponse(Session& session, const std::string& payload,
                                std::string* out) {
  const Op op = static_cast<Op>(payload[0]);
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  std::string response;

  auto respond_status = [&](const Status& status) {
    response.clear();
    if (status.ok()) {
      response.push_back(static_cast<char>(Op::kOk));
    } else {
      EncodeErr(Op::kErr, {WireErrorFor(status), status.message()}, &response);
    }
    EncodeFrame(response, out);
  };

  switch (op) {
    case Op::kCommit: {
      const Status committed = db_->Commit(session.txn.get());
      // The commit's WAL LSN is the read-your-writes token: a client can
      // hand it to a replica's WAIT_LSN before reading there.
      const uint64_t lsn = session.txn->durable_lsn();
      session.txn.reset();
      if (committed.ok()) {
        commits_acked_.fetch_add(1, std::memory_order_relaxed);
        EncodeCommitOk(lsn, &response);
        EncodeFrame(response, out);
        return;
      }
      respond_status(committed);
      return;
    }
    case Op::kExecTxn: {
      std::vector<PointWrite> writes;
      Status status = DecodeWriteBatch(body, &writes);
      if (status.ok() && session.txn != nullptr) {
        status = Status::InvalidArgument(
            "EXEC_TXN is auto-commit; a transaction is open on this session");
      }
      if (status.ok()) {
        auto txn = db_->BeginOltp();
        for (const PointWrite& write : writes) {
          status = DoWrite(txn.get(), write);
          if (!status.ok()) break;
        }
        if (status.ok()) {
          status = db_->Commit(txn.get());
          if (status.ok()) {
            commits_acked_.fetch_add(1, std::memory_order_relaxed);
            EncodeCommitOk(txn->durable_lsn(), &response);
            EncodeFrame(response, out);
            return;
          }
        } else {
          db_->Abort(txn.get());
        }
      }
      respond_status(status);
      return;
    }
    case Op::kQuery: {
      QueryMsg msg;
      Status status = DecodeQuery(body, &msg);
      if (!status.ok()) {
        respond_status(status);
        return;
      }
      auto compiled = query::CompileWireQuery(msg.query, db_->catalog());
      if (!compiled.ok()) {
        respond_status(compiled.status());
        return;
      }
      auto result = db_->Run(compiled.value(), msg.params);
      if (!result.ok()) {
        respond_status(result.status());
        return;
      }
      EncodeQueryResultFrames(result.value(), out);
      queries_served_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case Op::kCreateTable: {
      CreateTableMsg msg;
      Status status = DecodeCreateTable(body, &msg);
      if (status.ok()) {
        auto created = db_->CreateTable(msg.name, msg.schema,
                                        static_cast<size_t>(msg.num_rows));
        status = created.ok() ? Status::OK() : created.status();
      }
      respond_status(status);
      return;
    }
    case Op::kLoad: {
      LoadMsg msg;
      Status status = DecodeLoad(body, &msg);
      if (status.ok()) {
        if (!db_->catalog().HasTable(msg.table)) {
          status = Status::NotFound("unknown table: " + msg.table);
        } else {
          storage::Table* table = db_->catalog().GetTable(msg.table);
          // Overflow-safe bounds check: start_row + n must not wrap (a
          // hostile start_row near UINT64_MAX would otherwise slip past
          // and abort the process inside Column::LoadValue's CHECK).
          if (!table->HasColumn(msg.column)) {
            status = Status::NotFound("unknown column: " + msg.column);
          } else if (msg.start_row > table->num_rows() ||
                     msg.values.size() >
                         table->num_rows() - msg.start_row) {
            status = Status::OutOfRange("load exceeds table row count");
          } else {
            storage::Column* column = table->GetColumn(msg.column);
            for (size_t i = 0; i < msg.values.size(); ++i) {
              column->LoadValue(msg.start_row + i, msg.values[i]);
            }
          }
        }
      }
      respond_status(status);
      return;
    }
    case Op::kBuildIndex: {
      BuildIndexMsg msg;
      Status status = DecodeBuildIndex(body, &msg);
      if (status.ok()) {
        // One build at a time (two sessions racing the exists-check would
        // otherwise both construct); concurrent *readers* are safe
        // because the index is built privately and only published —
        // complete — via AdoptPrimaryIndex's release store.
        std::lock_guard<std::mutex> guard(build_index_mutex_);
        if (!db_->catalog().HasTable(msg.table)) {
          status = Status::NotFound("unknown table: " + msg.table);
        } else {
          storage::Table* table = db_->catalog().GetTable(msg.table);
          if (!table->HasColumn(msg.key_column)) {
            status = Status::NotFound("unknown column: " + msg.key_column);
          } else if (table->primary_index() != nullptr) {
            status = Status::AlreadyExists("primary index already built");
          } else {
            storage::Column* column = table->GetColumn(msg.key_column);
            auto index =
                std::make_unique<storage::HashIndex>(table->num_rows());
            for (size_t row = 0; row < table->num_rows() && status.ok();
                 ++row) {
              status = index->Insert(column->ReadLatestRaw(row), row);
            }
            if (status.ok()) table->AdoptPrimaryIndex(std::move(index));
          }
        }
      }
      respond_status(status);
      return;
    }
    case Op::kDictDefine: {
      DictDefineMsg msg;
      Status status = DecodeDictDefine(body, &msg);
      if (status.ok()) {
        if (!db_->catalog().HasTable(msg.table)) {
          status = Status::NotFound("unknown table: " + msg.table);
        } else {
          storage::Table* table = db_->catalog().GetTable(msg.table);
          if (!table->HasColumn(msg.column) ||
              table->GetColumn(msg.column)->type() !=
                  storage::ValueType::kDict32) {
            status = Status::InvalidArgument("'" + msg.column +
                                             "' is not a dict32 column");
          } else {
            storage::Dictionary* dict = table->GetDictionary(msg.column);
            for (const std::string& value : msg.values) {
              dict->GetOrAdd(value);
            }
          }
        }
      }
      respond_status(status);
      return;
    }
    case Op::kFetchCheckpoint: {
      // Frames (CKPT_CHUNK* + CKPT_DONE) append directly; on failure
      // nothing was appended and the error travels instead.
      const Status streamed =
          EncodeCheckpointStream(db_->config().data_dir, out);
      if (!streamed.ok()) respond_status(streamed);
      return;
    }
    case Op::kWaitLsn: {
      WaitLsnMsg msg;
      Status status = DecodeWaitLsn(body, &msg);
      if (status.ok()) {
        wal::LogWriter* log = db_->log_writer();
        uint64_t high = db_->applied_lsn();
        if (log != nullptr) high = std::max(high, log->appended_lsn());
        if (msg.lsn <= high) {
          // Applied (replica) or allocated locally (primary / promoted).
        } else if (config_.replica != nullptr &&
                   config_.replica->read_only()) {
          status = db_->WaitAppliedLsn(msg.lsn, msg.timeout_millis);
        } else {
          status = Status::OutOfRange("LSN not allocated on this node");
        }
      }
      respond_status(status);
      return;
    }
    case Op::kPromote: {
      respond_status(config_.replica != nullptr
                         ? config_.replica->Promote()
                         : Status::InvalidArgument("not a replica"));
      return;
    }
    case Op::kCheckpointNow: {
      auto ckpt = db_->Checkpoint();
      respond_status(ckpt.ok() ? Status::OK() : ckpt.status());
      return;
    }
    case Op::kDigest: {
      EncodeDigestOk(db_->ContentDigest(), &response);
      EncodeFrame(response, out);
      return;
    }
    case Op::kPrepareTxn: {
      PrepareTxnMsg msg;
      Status status = DecodePrepareTxn(body, &msg);
      std::vector<mvcc::SlotWrite> writes;
      if (status.ok()) {
        writes.reserve(msg.writes.size());
        for (const PointWrite& write : msg.writes) {
          storage::Table* table = nullptr;
          auto column = ResolveColumn(db_, write.table, write.column, &table);
          if (!column.ok()) {
            status = column.status();
            break;
          }
          auto row = ResolveRow(table, write.by_key, write.key);
          if (!row.ok()) {
            status = row.status();
            break;
          }
          writes.push_back({column.value(), row.value(), write.raw});
        }
      }
      mvcc::Timestamp prepare_ts = 0;
      uint64_t lsn = 0;
      if (status.ok()) {
        status = db_->txn_manager().PrepareDistributed(
            msg.gtid, msg.primary_shard, writes, &prepare_ts, &lsn);
      }
      if (status.ok()) {
        PreparedOkMsg ok;
        ok.prepare_ts = prepare_ts;
        ok.lsn = lsn;
        EncodePreparedOk(ok, &response);
        EncodeFrame(response, out);
        return;
      }
      respond_status(status);
      return;
    }
    case Op::kCommitPrepared: {
      CommitPreparedMsg msg;
      Status status = DecodeCommitPrepared(body, &msg);
      uint64_t lsn = 0;
      if (status.ok()) {
        status = db_->txn_manager().CommitPrepared(msg.gtid, msg.commit_ts,
                                                   &lsn);
      }
      if (status.ok()) {
        commits_acked_.fetch_add(1, std::memory_order_relaxed);
        EncodeCommitOk(lsn, &response);
        EncodeFrame(response, out);
        return;
      }
      respond_status(status);
      return;
    }
    case Op::kAbortPrepared: {
      AbortPreparedMsg msg;
      Status status = DecodeAbortPrepared(body, &msg);
      uint64_t lsn = 0;
      if (status.ok()) {
        status = db_->txn_manager().AbortPrepared(msg.gtid, &lsn);
      }
      respond_status(status);
      return;
    }
    case Op::kResolveIntent: {
      ResolveIntentMsg msg;
      Status status = DecodeResolveIntent(body, &msg);
      mvcc::TxnOutcome outcome = mvcc::TxnOutcome::kPending;
      mvcc::Timestamp commit_ts = 0;
      if (status.ok()) {
        status = db_->txn_manager().ResolveOutcome(msg.gtid, msg.abort_pending,
                                                   &outcome, &commit_ts);
      }
      if (status.ok()) {
        ResolvedOkMsg ok;
        ok.outcome = static_cast<uint8_t>(outcome);
        ok.commit_ts = commit_ts;
        EncodeResolvedOk(ok, &response);
        EncodeFrame(response, out);
        return;
      }
      respond_status(status);
      return;
    }
    default:
      respond_status(Status::Internal("non-dispatchable op dispatched"));
      return;
  }
}

namespace {

Result<storage::Column*> ResolveColumn(engine::Database* db,
                                       const std::string& table_name,
                                       const std::string& column_name,
                                       storage::Table** table_out) {
  if (!db->catalog().HasTable(table_name)) {
    return Status::NotFound("unknown table: " + table_name);
  }
  storage::Table* table = db->catalog().GetTable(table_name);
  if (!table->HasColumn(column_name)) {
    return Status::NotFound("unknown column: " + column_name);
  }
  if (table_out != nullptr) *table_out = table;
  return table->GetColumn(column_name);
}

Result<uint64_t> ResolveRow(storage::Table* table, bool by_key,
                            uint64_t key) {
  if (by_key) {
    storage::HashIndex* index = table->primary_index();
    if (index == nullptr) {
      return Status::InvalidArgument("table '" + table->name() +
                                     "' has no primary index");
    }
    return index->Lookup(key);
  }
  if (key >= table->num_rows()) {
    return Status::OutOfRange("row id out of range");
  }
  return key;
}

}  // namespace

Status Server::DoWrite(txn::Transaction* txn, const PointWrite& write) {
  storage::Table* table = nullptr;
  auto column = ResolveColumn(db_, write.table, write.column, &table);
  if (!column.ok()) return column.status();
  auto row = ResolveRow(table, write.by_key, write.key);
  if (!row.ok()) return row.status();
  txn->Write(column.value(), row.value(), write.raw);
  return Status::OK();
}

Result<uint64_t> Server::DoRead(txn::Transaction* txn, const PointReadMsg& msg,
                                mvcc::IntentInfo* blocking_intent) {
  storage::Table* table = nullptr;
  auto column = ResolveColumn(db_, msg.table, msg.column, &table);
  if (!column.ok()) return column.status();
  auto row = ResolveRow(table, msg.by_key, msg.key);
  if (!row.ok()) return row.status();
  // A prepared-but-undecided write intent makes the slot's latest value
  // unknowable: if the transaction committed at its primary, sister
  // shards may already serve the new state, so answering with the old
  // version here would tear the cross-shard snapshot (money disappears
  // from a transfer mid-resolution). Auto-commit reads therefore bounce
  // on ANY pending intent — the caller resolves through the primary and
  // retries. An explicit transaction whose snapshot predates the
  // prepare is the one safe exception: the intent's outcome can only
  // materialize above prepare_ts, provably outside that snapshot.
  if (blocking_intent != nullptr) {
    mvcc::IntentInfo info;
    if (db_->txn_manager().intents().Lookup(column.value(), row.value(),
                                            &info) &&
        (txn == nullptr || txn->start_ts() >= info.prepare_ts)) {
      *blocking_intent = info;
      return Status::ResourceBusy("read blocked by unresolved write intent");
    }
  }
  if (txn != nullptr) return txn->Read(column.value(), row.value());
  // Auto-commit read: a throwaway transaction gives a consistent
  // committed view (the visibility watermark), unlike a raw slot load
  // that could observe a half-materialized concurrent commit.
  auto read_txn = db_->BeginOltp();
  const uint64_t value = read_txn->Read(column.value(), row.value());
  const Status committed = db_->Commit(read_txn.get());
  if (!committed.ok()) return committed;
  return value;
}

}  // namespace anker::server
