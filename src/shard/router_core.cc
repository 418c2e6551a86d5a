#include "shard/router_core.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "query/merge.h"

namespace anker::shard {

namespace {

using server::Op;
using server::WireError;

using server::OpOnly;

bool IsOkResponse(const std::string& payload) {
  return !payload.empty() && static_cast<Op>(payload[0]) == Op::kOk;
}

bool IsBusyResponse(const std::string& payload) {
  return !payload.empty() && static_cast<Op>(payload[0]) == Op::kBusy;
}

constexpr const char* kRowIdRefusal =
    "row ids are shard-local; address partitioned tables by key through "
    "the router";

/// Wall-clock-seeded base for global transaction ids: the high bits
/// change across router incarnations so a restarted router's counter
/// does not replay a predecessor's gtids (collisions would only cost a
/// retryable abort anyway — the shard's tombstone refuses them).
uint64_t GtidBase() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  return micros << 20;  // Room for ~1M transactions per microsecond tick.
}

}  // namespace

RouterCore::RouterCore(const ShardMap* map, BackendPool* pool,
                       RouterCoreConfig config)
    : map_(map), pool_(pool), config_(config), gtid_base_(GtidBase()) {
  ANKER_CHECK(map_ != nullptr && pool_ != nullptr);
  ANKER_CHECK(map_->num_shards() == pool_->num_shards());
  pool_->SetBusyPolicy(config_.busy_retry_budget,
                       config_.busy_backoff_initial_millis,
                       config_.busy_backoff_max_millis);
}

void RouterCore::RespondError(WireError code, const std::string& message,
                              std::string* out) {
  std::string payload;
  // BUSY keeps its dedicated opcode so client-side retry loops engage.
  const Op op = code == WireError::kResourceBusy ? Op::kBusy : Op::kErr;
  server::EncodeErr(op, {code, message}, &payload);
  server::EncodeFrame(payload, out);
}

void RouterCore::RespondStatus(const Status& status, std::string* out) {
  if (status.ok()) {
    server::EncodeFrame(OpOnly(Op::kOk), out);
  } else {
    RespondError(server::WireErrorFor(status), status.message(), out);
  }
}

bool RouterCore::ForwardVerbatim(server::Client* client,
                                 const std::string& payload,
                                 std::string* out) {
  auto response = client->RoundTrip(payload);
  if (!response.ok()) return false;
  server::EncodeFrame(response.value(), out);
  return true;
}

Result<BackendPool::Lease> RouterCore::AcquireAny() {
  Status last = Status::ResourceBusy("no shards configured");
  // Round-robin start point: any-shard work (replicated reads,
  // single-shard queries, LIST_TABLES) spreads across healthy
  // backends instead of piling onto shard 0.
  const size_t shards = pool_->num_shards();
  const size_t start =
      any_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < shards; ++i) {
    auto lease = pool_->Acquire((start + i) % shards);
    if (lease.ok()) return lease;
    last = lease.status();
  }
  return last;
}

void RouterCore::LoseTxn(SessionState* session, std::string* out) {
  session->txn = {};
  session->in_txn = false;
  RespondError(WireError::kResourceBusy,
               "shard connection lost; transaction aborted", out);
}

bool RouterCore::Handle(SessionState* session, const std::string& payload,
                        std::string* out) {
  if (payload.empty() ||
      !server::IsRequestOp(static_cast<uint8_t>(payload[0]))) {
    RespondError(WireError::kNotSupported, "unknown or non-request opcode",
                 out);
    return false;
  }
  const Op op = static_cast<Op>(payload[0]);
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  // Every body is decoded here, so a malformed one is answered (and the
  // session closed) before any backend hears of it.
  const auto malformed = [this, out] {
    RespondError(WireError::kProtocolError, "malformed request body", out);
    return true;
  };
  switch (op) {
    case Op::kPing:
      server::EncodeFrame(OpOnly(Op::kPong), out);
      return false;
    case Op::kHello:
      RespondError(WireError::kProtocolError,
                   "HELLO must be the first frame, exactly once", out);
      return true;
    case Op::kBegin:
    case Op::kCommit:
    case Op::kAbort:
      HandleTxnOp(session, op, payload, out);
      return false;
    case Op::kRead: {
      server::PointReadMsg msg;
      if (!server::DecodePointRead(body, &msg).ok()) return malformed();
      HandleRead(session, msg, payload, out);
      return false;
    }
    case Op::kWrite:
    case Op::kWriteBatch: {
      std::vector<server::PointWrite> writes(1);
      const Status decoded = op == Op::kWrite
                                 ? server::DecodeWrite(body, &writes[0])
                                 : server::DecodeWriteBatch(body, &writes);
      if (!decoded.ok()) return malformed();
      if (!session->in_txn) {
        RespondError(WireError::kInvalidArgument,
                     "no open transaction (BEGIN first)", out);
        return false;
      }
      // An interactive transaction lives on one shard; the batch must
      // land there as one group (an empty batch writes nothing).
      WriteGroups groups;
      if (!PartitionWrites(writes, &groups, out)) return false;
      if (groups.empty()) {
        RespondStatus(Status::OK(), out);
        return false;
      }
      const size_t shard = groups.front().first;
      if (groups.size() > 1) {
        RespondError(WireError::kNotSupported,
                     "write batch spans shards " + std::to_string(shard) +
                         " and " + std::to_string(groups[1].first) +
                         "; send cross-shard writes as one EXEC_TXN",
                     out);
        return false;
      }
      if (!EnsurePinned(session, shard, out)) return false;
      if (!ForwardVerbatim(session->txn.get(), payload, out)) {
        LoseTxn(session, out);
      }
      return false;
    }
    case Op::kExecTxn: {
      std::vector<server::PointWrite> writes;
      if (!server::DecodeWriteBatch(body, &writes).ok()) return malformed();
      HandleExecTxn(session, writes, payload, out);
      return false;
    }
    case Op::kQuery: {
      server::QueryMsg msg;
      if (!server::DecodeQuery(body, &msg).ok()) return malformed();
      HandleQuery(msg, out);
      return false;
    }
    // Partitioned-table schema/load ops are the loader's job: rows are
    // positional per shard, so the router cannot split them faithfully.
    case Op::kCreateTable: {
      server::CreateTableMsg msg;
      if (!server::DecodeCreateTable(body, &msg).ok()) return malformed();
      if (map_->PartitionKey(msg.name) != nullptr) {
        RespondError(WireError::kNotSupported,
                     "create partitioned tables on each shard directly "
                     "(per-shard row counts differ)",
                     out);
        return false;
      }
      HandleFanout(payload, out);
      return false;
    }
    case Op::kLoad: {
      server::LoadMsg msg;
      if (!server::DecodeLoad(body, &msg).ok()) return malformed();
      if (map_->PartitionKey(msg.table) != nullptr) {
        RespondError(WireError::kNotSupported,
                     "loads are positional; split partitioned-table loads "
                     "at the loader",
                     out);
        return false;
      }
      HandleFanout(payload, out);
      return false;
    }
    case Op::kBuildIndex:
    case Op::kDictDefine:
      HandleFanout(payload, out);
      return false;
    case Op::kListTables:
      HandleListTables(payload, out);
      return false;
    case Op::kRouterStatus: {
      std::string response;
      server::EncodeRouterStatusOk(StatusSnapshot(), &response);
      server::EncodeFrame(response, out);
      return false;
    }
    default:
      // Replication / per-node operations surface: these act on one
      // node's WAL, checkpoints or role — meaningless through a router.
      RespondError(WireError::kNotSupported,
                   "not served by the router; connect to the shard's "
                   "engine server directly",
                   out);
      return false;
  }
}

void RouterCore::HandleTxnOp(SessionState* session, Op op,
                             const std::string& payload, std::string* out) {
  if (op == Op::kBegin) {
    if (session->in_txn) {
      RespondError(WireError::kInvalidArgument,
                   "transaction already open (no nesting)", out);
      return;
    }
    // Acknowledged locally; the session pins to a shard at its first
    // keyed operation (a BEGIN alone costs no backend round trip).
    session->in_txn = true;
    RespondStatus(Status::OK(), out);
    return;
  }
  if (!session->in_txn) {
    RespondError(WireError::kInvalidArgument, "no open transaction", out);
    return;
  }
  if (!session->txn) {
    // Untouched transaction: nothing reached any shard.
    session->in_txn = false;
    if (op == Op::kCommit) {
      std::string response;
      server::EncodeCommitOk(0, &response);
      server::EncodeFrame(response, out);
    } else {
      RespondStatus(Status::OK(), out);
    }
    return;
  }
  auto response = session->txn->RoundTrip(payload);
  if (!response.ok()) {
    session->txn = {};
    session->in_txn = false;
    RespondStatus(
        op == Op::kCommit
            ? Status::IoError(
                  "shard connection lost; commit outcome unknown")
            : Status::OK(),  // A lost ABORT aborted anyway (server-side).
        out);
    return;
  }
  server::EncodeFrame(response.value(), out);
  // BUSY means the shard ran nothing: the transaction is still open on
  // the pinned connection, so the client may retry COMMIT or ABORT.
  if (IsBusyResponse(response.value())) return;
  session->txn = {};
  session->in_txn = false;
  if (op == Op::kCommit) passthrough_txns_.fetch_add(1);
}

void RouterCore::HandleRead(SessionState* session,
                            const server::PointReadMsg& msg,
                            const std::string& payload, std::string* out) {
  const bool partitioned = map_->PartitionKey(msg.table) != nullptr;
  if (partitioned && !msg.by_key) {
    RespondError(WireError::kNotSupported, kRowIdRefusal, out);
    return;
  }

  if (session->in_txn) {
    // A replicated table reads on the pinned shard (any copy is
    // equivalent, and the pinned one sees the transaction's writes); an
    // unpinned transaction pins to any healthy shard here, so later
    // keyed ops agree with this read's transactional view.
    if (!EnsurePinned(session,
                      partitioned ? map_->ShardFor(msg.key) : kAnyShard,
                      out)) {
      return;
    }
    if (!ForwardReadResolving(session->txn.get(), payload, out)) {
      LoseTxn(session, out);
    }
    return;
  }

  // Auto-commit read: one round trip to the owning (or any) shard.
  auto lease =
      partitioned ? pool_->Acquire(map_->ShardFor(msg.key)) : AcquireAny();
  if (!lease.ok()) {
    RespondStatus(lease.status(), out);
    return;
  }
  if (!ForwardReadResolving(lease.value().get(), payload, out)) {
    RespondError(WireError::kResourceBusy, "shard connection lost", out);
  }
}

bool RouterCore::ForwardReadResolving(server::Client* client,
                                      const std::string& payload,
                                      std::string* out) {
  int backoff_millis = config_.busy_backoff_initial_millis;
  for (int attempt = 0; attempt <= config_.intent_resolve_attempts;
       ++attempt) {
    auto response = client->RoundTrip(payload);
    if (!response.ok()) return false;
    if (response.value().empty() ||
        static_cast<Op>(response.value()[0]) != Op::kIntentPending) {
      server::EncodeFrame(response.value(), out);
      return true;
    }
    // The read landed on an unresolved 2PC intent: its coordinating
    // router may be gone, so this router resolves on the reader's
    // behalf — ask the primary shard for the outcome, apply it at the
    // holding shard, retry the read. The final attempt escalates a
    // still-undecided transaction to a durable abort (the coordinator
    // is presumed dead; the primary's tombstone fences it).
    server::IntentPendingMsg pending;
    const std::string_view body =
        std::string_view(response.value()).substr(1);
    if (!server::DecodeIntentPending(body, &pending).ok()) {
      server::EncodeFrame(response.value(), out);
      return true;
    }
    const bool escalate = attempt + 1 >= config_.intent_resolve_attempts;
    bool decided = false;
    const Status resolved = ResolveIntentOnce(
        pending.gtid, pending.primary_shard, client, escalate, &decided);
    if (!resolved.ok() || !decided) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
      backoff_millis =
          std::min(backoff_millis * 2, config_.busy_backoff_max_millis);
    }
  }
  RespondError(WireError::kResourceBusy,
               "read blocked by an unresolved write intent", out);
  return true;
}

Status RouterCore::ResolveIntentOnce(uint64_t gtid, size_t primary_shard,
                                     server::Client* holder,
                                     bool abort_pending, bool* decided) {
  *decided = false;
  if (primary_shard >= pool_->num_shards()) {
    return Status::InvalidArgument("intent names an unknown primary shard");
  }
  uint8_t outcome = 0;
  uint64_t commit_ts = 0;
  {
    auto primary = pool_->Acquire(primary_shard);
    if (!primary.ok()) return primary.status();
    ANKER_RETURN_IF_ERROR(primary.value()->ResolveIntent(
        gtid, abort_pending, &outcome, &commit_ts));
  }
  if (outcome == 0) return Status::OK();  // Still undecided.
  *decided = true;
  intent_resolutions_.fetch_add(1);
  // Land the outcome at the shard whose intent blocked the read; both
  // phase-two ops are idempotent, so racing another resolver is fine.
  return outcome == 1 ? holder->CommitPrepared(gtid, commit_ts, nullptr)
                      : holder->AbortPrepared(gtid);
}

bool RouterCore::EnsurePinned(SessionState* session, size_t shard,
                              std::string* out) {
  if (session->txn) {
    if (shard == kAnyShard || session->txn.shard() == shard) return true;
    RespondError(WireError::kNotSupported,
                 "transaction is pinned to shard " +
                     std::to_string(session->txn.shard()) +
                     " but this operation belongs to shard " +
                     std::to_string(shard) +
                     "; send cross-shard writes as one EXEC_TXN",
                 out);
    return false;
  }
  auto lease = shard == kAnyShard ? AcquireAny() : pool_->Acquire(shard);
  if (!lease.ok()) {
    RespondStatus(lease.status(), out);
    return false;
  }
  auto begun = lease.value()->RoundTrip(OpOnly(Op::kBegin));
  if (!begun.ok() || !IsOkResponse(begun.value())) {
    RespondError(WireError::kResourceBusy, "shard refused transaction open",
                 out);
    return false;
  }
  session->txn = std::move(lease.value());
  return true;
}

void RouterCore::HandleExecTxn(
    SessionState* session, const std::vector<server::PointWrite>& writes,
    const std::string& payload, std::string* out) {
  if (session->in_txn) {
    RespondError(WireError::kInvalidArgument,
                 "EXEC_TXN is auto-commit; a transaction is open on this "
                 "session",
                 out);
    return;
  }
  if (writes.empty()) {
    // An empty transaction commits vacuously; no shard needs to hear
    // about it (LSN 0 = "wrote nothing", same as the engine server).
    std::string response;
    server::EncodeCommitOk(0, &response);
    server::EncodeFrame(response, out);
    return;
  }
  WriteGroups groups;
  if (!PartitionWrites(writes, &groups, out)) return;
  if (groups.size() > 1) {
    TwoPhaseCommit(groups, out);
    return;
  }
  auto lease = pool_->Acquire(groups.front().first);
  if (!lease.ok()) {
    RespondStatus(lease.status(), out);
    return;
  }
  // The pass-through fast path: the ORIGINAL request bytes go to the
  // owning shard and its response comes back verbatim — one
  // router->shard round trip, no re-encode.
  if (ForwardVerbatim(lease.value().get(), payload, out)) {
    passthrough_txns_.fetch_add(1);
  } else {
    RespondStatus(Status::IoError(
                      "shard connection lost; transaction outcome unknown"),
                  out);
  }
}

bool RouterCore::PartitionWrites(const std::vector<server::PointWrite>& writes,
                                 WriteGroups* groups, std::string* out) {
  groups->clear();
  for (const server::PointWrite& write : writes) {
    if (map_->PartitionKey(write.table) == nullptr) {
      RespondError(WireError::kNotSupported,
                   "writes to replicated tables are not routable (every "
                   "shard holds a copy); load them out of band",
                   out);
      return false;
    }
    if (!write.by_key) {
      RespondError(WireError::kNotSupported, kRowIdRefusal, out);
      return false;
    }
    const size_t owner = map_->ShardFor(write.key);
    auto group = std::find_if(
        groups->begin(), groups->end(),
        [owner](const auto& entry) { return entry.first == owner; });
    if (group == groups->end()) {
      groups->emplace_back(owner, std::vector<server::PointWrite>{});
      group = std::prev(groups->end());
    }
    group->second.push_back(write);
  }
  // Primary shard = lowest participating index: every router derives
  // the same commit point from the same write set, so a reader's lazy
  // resolution and the coordinator always agree on where the outcome
  // lives.
  std::sort(groups->begin(), groups->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return true;
}

void RouterCore::AbortPreparedFanout(uint64_t gtid,
                                     const WriteGroups& groups) {
  // Best-effort: every participant gets ABORT_PREPARED. A shard whose
  // prepare never landed fences the gtid with a durable tombstone, so a
  // delayed PREPARE_TXN racing this abort is refused rather than
  // resurrecting the transaction. Unreachable shards are left for lazy
  // reader-driven resolution.
  for (const auto& group : groups) {
    auto lease = pool_->Acquire(group.first);
    if (lease.ok()) (void)lease.value()->AbortPrepared(gtid);
  }
}

void RouterCore::TwoPhaseCommit(const WriteGroups& groups, std::string* out) {
  anker::FaultInjector& faults = anker::FaultInjector::Instance();
  const uint64_t gtid = gtid_base_ + gtid_counter_.fetch_add(1) + 1;
  const uint32_t primary_shard = static_cast<uint32_t>(groups.front().first);

  // Phase one: stage durable write intents on every participant. Each
  // ack carries the shard's prepare stamp, folded into the oracle.
  std::vector<BackendPool::Lease> leases;
  leases.reserve(groups.size());
  uint64_t max_prepare_ts = 0;
  for (const auto& [shard, writes] : groups) {
    auto acquired = pool_->Acquire(shard);
    Status prepared = acquired.status();
    uint64_t prepare_ts = 0;
    if (prepared.ok()) {
      leases.push_back(std::move(acquired.value()));
      prepared = leases.back()->PrepareTxn(gtid, primary_shard, writes,
                                           &prepare_ts, nullptr);
    }
    if (!prepared.ok()) {
      // Unwind: nothing is decided until the primary's COMMIT_PREPARED
      // is durable, so aborting here is always correct. The leases go
      // back first so the fan-out reuses their connections.
      leases.clear();
      AbortPreparedFanout(gtid, groups);
      RespondStatus(
          prepared.code() == StatusCode::kIoError
              ? Status::ResourceBusy("shard " + std::to_string(shard) +
                                     " unreachable during prepare; "
                                     "transaction aborted")
              : prepared,
          out);
      return;
    }
    max_prepare_ts = std::max(max_prepare_ts, prepare_ts);
    faults.MaybeKill("2pc.prepare.post");
  }

  // Decision: one stamp above every prepare stamp. Nothing durable
  // records it yet — a crash before the primary's ack below aborts the
  // transaction (lazy resolution escalates undecided intents to abort).
  oracle_.AdvanceTo(max_prepare_ts);
  const uint64_t commit_ts = oracle_.Next();

  // Phase two: the primary shard (groups.front()) is the commit point —
  // its durable COMMIT_PREPARED record decides the transaction. The
  // remaining participants are then told best-effort; any that miss the
  // memo are healed by reader-driven resolution through the primary.
  uint64_t primary_lsn = 0;
  for (size_t i = 0; i < leases.size(); ++i) {
    faults.MaybeKill("2pc.commit.pre");
    uint64_t lsn = 0;
    const Status committed = leases[i]->CommitPrepared(gtid, commit_ts, &lsn);
    // A failed secondary after the primary's ack does NOT fail the
    // transaction — it is committed; the straggler's intents resolve
    // lazily.
    if (i > 0) continue;
    if (committed.ok()) {
      primary_lsn = lsn;
      continue;
    }
    leases.clear();
    // Only an answer proving the primary did not commit allows the
    // unwind. Anything else — a lost connection, a sync-ack "commit
    // uncertain" (the record IS durable on the primary), BUSY — leaves
    // the outcome unknown to this router: the intents stay for lazy
    // resolution, which asks the primary.
    if (committed.code() == StatusCode::kAborted ||
        committed.code() == StatusCode::kNotFound) {
      AbortPreparedFanout(gtid, groups);
      RespondStatus(committed, out);
    } else {
      RespondStatus(Status::IoError("primary shard did not confirm the "
                                    "commit (" +
                                    committed.message() +
                                    "); transaction outcome unknown"),
                    out);
    }
    return;
  }

  twopc_txns_.fetch_add(1);
  // The LSN is the primary shard's commit record: read-your-writes
  // waits (WAIT_LSN) against the commit point, where the outcome lives.
  std::string response;
  server::EncodeCommitOk(primary_lsn, &response);
  server::EncodeFrame(response, out);
}

void RouterCore::HandleQuery(const server::QueryMsg& msg, std::string* out) {
  const query::ScatterPlan plan =
      query::PlanScatter(msg.query, map_->partitioned());

  if (plan.mode == query::ScatterMode::kUnsupported) {
    RespondError(WireError::kNotSupported,
                 "cross-shard query: " + plan.reason, out);
    return;
  }

  if (plan.mode == query::ScatterMode::kSingleShard) {
    // Replicated-only plan: any one healthy shard holds the answer.
    auto any = AcquireAny();
    if (!any.ok()) {
      RespondStatus(any.status(), out);
      return;
    }
    auto result = any.value()->Query(msg.query, msg.params);
    if (!result.ok()) {
      RespondStatus(result.status(), out);
      return;
    }
    server::EncodeQueryResultFrames(result.value(), out);
    single_shard_queries_.fetch_add(1);
    return;
  }

  // Scatter: every shard runs plan.shard_query; the router merges.
  std::vector<query::QueryResult> parts;
  uint32_t skipped = 0;
  for (size_t shard = 0; shard < pool_->num_shards(); ++shard) {
    auto lease = pool_->Acquire(shard);
    auto result = lease.ok()
                      ? lease.value()->Query(plan.shard_query, msg.params)
                      : Result<query::QueryResult>(lease.status());
    if (!result.ok()) {
      const StatusCode code = result.status().code();
      if (config_.allow_partial && (code == StatusCode::kIoError ||
                                    code == StatusCode::kResourceBusy)) {
        ++skipped;  // Shard down, died mid-query or overloaded: skip it.
        continue;
      }
      RespondStatus(result.status(), out);
      return;
    }
    parts.push_back(std::move(result.value()));
  }
  if (parts.empty()) {
    RespondError(WireError::kResourceBusy, "no shard reachable", out);
    return;
  }
  query::QueryResult merged;
  const Status merged_ok =
      query::MergeShardResults(plan, std::move(parts), &merged);
  if (!merged_ok.ok()) {
    RespondStatus(merged_ok, out);
    return;
  }
  // Degraded results are wire-visible: QUERY_DONE carries the count of
  // shards whose rows are absent, so a client can never mistake a
  // partial SUM/COUNT for the complete answer.
  merged.shards_missing = skipped;
  server::EncodeQueryResultFrames(merged, out);
  scatter_queries_.fetch_add(1);
}

void RouterCore::HandleFanout(const std::string& payload, std::string* out) {
  // All shards must apply DDL/loads: a partial fan-out would fork the
  // replicated schema, so the first unreachable shard fails the op.
  for (size_t shard = 0; shard < pool_->num_shards(); ++shard) {
    auto lease = pool_->Acquire(shard);
    if (!lease.ok()) {
      RespondStatus(lease.status(), out);
      return;
    }
    auto response = lease.value()->RoundTrip(payload);
    if (!response.ok()) {
      RespondError(WireError::kResourceBusy,
                   "shard " + std::to_string(shard) +
                       " connection lost during fan-out",
                   out);
      return;
    }
    if (!IsOkResponse(response.value())) {
      // First failure wins; its response travels back verbatim.
      server::EncodeFrame(response.value(), out);
      return;
    }
  }
  server::EncodeFrame(OpOnly(Op::kOk), out);
  fanout_ops_.fetch_add(1);
}

void RouterCore::HandleListTables(const std::string& payload,
                                  std::string* out) {
  auto any = AcquireAny();
  if (!any.ok()) {
    RespondStatus(any.status(), out);
    return;
  }
  if (!ForwardVerbatim(any.value().get(), payload, out)) {
    RespondError(WireError::kResourceBusy, "shard connection lost", out);
  }
}

void RouterCore::AbandonSession(SessionState* session) {
  if (session->txn) (void)session->txn->RoundTrip(OpOnly(Op::kAbort));
  session->txn = {};
  session->in_txn = false;
}

server::RouterStatusOkMsg RouterCore::StatusSnapshot() {
  server::RouterStatusOkMsg msg;
  msg.shard_count = static_cast<uint32_t>(map_->num_shards());
  msg.healthy_shards = static_cast<uint32_t>(pool_->CountHealthy());
  msg.shard_map_version = map_->version();
  msg.shard_map_digest = map_->digest();
  msg.allow_partial = config_.allow_partial;
  msg.passthrough_txns = passthrough_txns_.load();
  msg.scatter_queries = scatter_queries_.load();
  msg.single_shard_queries = single_shard_queries_.load();
  msg.fanout_ops = fanout_ops_.load();
  msg.twopc_txns = twopc_txns_.load();
  msg.intent_resolutions = intent_resolutions_.load();
  return msg;
}

}  // namespace anker::shard
