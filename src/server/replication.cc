#include "server/replication.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "common/fault_injector.h"
#include "storage/extent.h"
#include "wal/checkpoint.h"
#include "wal/io_util.h"
#include "wal/wal_tail.h"

namespace anker::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Interprets a simple (kOk / kErr / kBusy) response payload.
Status SimpleStatus(const std::string& payload) {
  if (payload.empty()) return Status::IoError("empty response payload");
  const Op op = static_cast<Op>(payload[0]);
  if (op == Op::kOk) return Status::OK();
  if (op == Op::kErr || op == Op::kBusy) {
    ErrMsg err;
    ANKER_RETURN_IF_ERROR(
        DecodeErr(std::string_view(payload).substr(1), &err));
    return StatusFromWire(err.code, err.message);
  }
  return Status::IoError("unexpected response opcode");
}

void MakeBlockingWithTimeout(int fd, int timeout_millis) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  timeval tv{};
  tv.tv_sec = timeout_millis / 1000;
  tv.tv_usec = (timeout_millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// send(2) loop; false on any failure (including the send timeout — a
/// replica that stopped reading is treated as gone, not waited on).
bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicationMaster
// ---------------------------------------------------------------------------

ReplicationMaster::ReplicationMaster(engine::Database* db,
                                     ReplicationMasterConfig config)
    : db_(db), config_(config) {
  ANKER_CHECK(db_ != nullptr);
}

ReplicationMaster::~ReplicationMaster() { Stop(); }

Status ReplicationMaster::Subscribe(int fd, std::string residual_inbox,
                                    const ReplicateHelloMsg& hello) {
  if (db_->log_writer() == nullptr) {
    return Status::NotSupported("durability is off: no WAL to ship");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  if (stopping_.load()) {
    return Status::Aborted("replication master is shutting down");
  }
  Subscriber& sub = subscribers_[hello.replica_id];
  if (sub.connected) {
    // A second connection under the same id is almost always the same
    // replica re-dialing before the primary noticed the old socket die;
    // cut the stale one (its streamer exits on the failed send).
    ::shutdown(sub.fd, SHUT_RDWR);
    sub.connected = false;
  }
  sub.sync_ack = hello.sync_ack;
  sub.connected = true;
  sub.fd = fd;
  sync_subscribers_ = 0;
  for (const auto& [id, s] : subscribers_) {
    if (s.sync_ack) ++sync_subscribers_;
  }
  UpdateRetainLocked();
  if (sync_subscribers_ > 0) {
    db_->SetReplicationWaiter(
        [this](uint64_t lsn) { return WaitSyncAck(lsn); });
  }
  threads_.emplace_back(
      [this, fd, inbox = std::move(residual_inbox), hello]() mutable {
        StreamLoop(fd, std::move(inbox), hello);
      });
  return Status::OK();
}

void ReplicationMaster::Stop() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stopping_.exchange(true)) return;
    for (auto& [id, sub] : subscribers_) {
      if (sub.connected) ::shutdown(sub.fd, SHUT_RDWR);
    }
    threads.swap(threads_);
  }
  ack_cv_.notify_all();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  db_->SetReplicationWaiter(nullptr);
}

Status ReplicationMaster::Decommission(const std::string& replica_id) {
  bool clear_waiter = false;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = subscribers_.find(replica_id);
    if (it == subscribers_.end()) {
      return Status::NotFound("unknown replica id: " + replica_id);
    }
    if (it->second.connected) {
      return Status::InvalidArgument(
          "replica '" + replica_id +
          "' is still connected; stop it before decommissioning");
    }
    subscribers_.erase(it);
    sync_subscribers_ = 0;
    for (const auto& [id, s] : subscribers_) {
      if (s.sync_ack) ++sync_subscribers_;
    }
    clear_waiter = sync_subscribers_ == 0;
    wal::LogWriter* log = db_->log_writer();
    if (log != nullptr && subscribers_.empty()) {
      // UpdateRetainLocked never touches the floor with an empty map;
      // the last decommission must release it explicitly.
      log->SetRetainLsn(UINT64_MAX);
    } else {
      UpdateRetainLocked();
    }
  }
  // Outside the lock: the waiter callback itself takes mutex_.
  if (clear_waiter) db_->SetReplicationWaiter(nullptr);
  ack_cv_.notify_all();
  return Status::OK();
}

size_t ReplicationMaster::connected_subscribers() const {
  std::lock_guard<std::mutex> guard(mutex_);
  size_t n = 0;
  for (const auto& [id, sub] : subscribers_) {
    if (sub.connected) ++n;
  }
  return n;
}

ReplicaStatusOkMsg ReplicationMaster::PrimaryStatus() const {
  ReplicaStatusOkMsg status;
  status.role = NodeRole::kPrimary;
  status.stream_connected = connected_subscribers() > 0;
  wal::LogWriter* log = db_->log_writer();
  if (log != nullptr) {
    status.applied_lsn = log->appended_lsn();
    status.durable_lsn = log->durable_lsn();
  }
  return status;
}

void ReplicationMaster::UpdateRetainLocked() {
  wal::LogWriter* log = db_->log_writer();
  if (log == nullptr || subscribers_.empty()) return;
  uint64_t floor = UINT64_MAX;
  for (const auto& [id, sub] : subscribers_) {
    floor = std::min(floor, sub.acked_durable);
  }
  log->SetRetainLsn(floor);
}

void ReplicationMaster::RecordAck(const std::string& id,
                                  const ReplicaStatusMsg& ack) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    Subscriber& sub = subscribers_[id];
    sub.acked_durable = std::max(sub.acked_durable, ack.durable_lsn);
    sub.acked_applied = std::max(sub.acked_applied, ack.applied_lsn);
    UpdateRetainLocked();
  }
  ack_cv_.notify_all();
}

Status ReplicationMaster::WaitSyncAck(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.ack_wait_millis);
  const auto acked = [&] {
    if (sync_subscribers_ == 0) return true;  // Gate dissolved; ack flows.
    for (const auto& [id, sub] : subscribers_) {
      if (sub.sync_ack && sub.acked_durable >= lsn) return true;
    }
    return false;
  };
  while (!acked()) {
    if (stopping_.load() ||
        ack_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      if (acked()) break;
      // The record IS durable locally; only the replication guarantee
      // is unconfirmed. ResourceBusy = retryable/uncertain, not failed.
      return Status::ResourceBusy(
          "commit uncertain: durable locally, replica ack timed out at LSN " +
          std::to_string(lsn));
    }
  }
  return Status::OK();
}

void ReplicationMaster::MarkDisconnected(const std::string& id) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = subscribers_.find(id);
  if (it != subscribers_.end()) it->second.connected = false;
  // The acked watermark (and so the retention floor) deliberately stays:
  // a reconnecting replica must still find its resume point on disk.
}

bool ReplicationMaster::DrainAcks(const std::string& id, std::string* inbox) {
  size_t offset = 0;
  while (true) {
    std::string_view rest(inbox->data() + offset, inbox->size() - offset);
    std::string_view payload;
    size_t consumed = 0;
    const FrameStatus fs = DecodeFrame(rest, &payload, &consumed);
    if (fs == FrameStatus::kNeedMore) break;
    if (fs == FrameStatus::kCorrupt) return false;
    if (payload.empty() ||
        static_cast<Op>(payload[0]) != Op::kReplicaStatus) {
      return false;  // Only acks travel upstream on a stream connection.
    }
    ReplicaStatusMsg ack;
    if (!DecodeReplicaStatus(payload.substr(1), &ack).ok()) return false;
    RecordAck(id, ack);
    offset += consumed;
  }
  inbox->erase(0, offset);
  return true;
}

void ReplicationMaster::StreamLoop(int fd, std::string inbox,
                                   ReplicateHelloMsg hello) {
  MakeBlockingWithTimeout(
      fd, std::max(2000, config_.heartbeat_millis * 4));
  wal::LogWriter* log = db_->log_writer();
  wal::WalTailer tailer(db_->wal_dir());

  const auto send_error = [&](const Status& status) {
    std::string payload, frame;
    EncodeErr(Op::kErr, {WireErrorFor(status), status.message()}, &payload);
    EncodeFrame(payload, &frame);
    SendAll(fd, frame);
  };

  const Status positioned =
      tailer.Seek(hello.start_lsn, log->durable_lsn() + 1);
  if (!positioned.ok()) {
    // OutOfRange here = the follower needs a checkpoint re-bootstrap
    // (history truncated) or claims divergent history; tell it why.
    send_error(positioned);
    MarkDisconnected(hello.replica_id);
    ::close(fd);
    return;
  }

  // Force an immediate heartbeat so the replica learns the primary's
  // watermark (and that the subscription succeeded) right away.
  auto last_send = Clock::now() - std::chrono::hours(1);
  bool healthy = true;

  while (healthy && !stopping_.load()) {
    // Drain acks the replica pushed (non-blocking).
    char buf[4096];
    while (healthy) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        inbox.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) healthy = false;  // Replica closed.
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN: nothing pending.
    }
    if (!healthy || !DrainAcks(hello.replica_id, &inbox)) break;

    std::vector<wal::TailRecord> batch;
    const Status polled =
        tailer.Poll(log->durable_lsn(), config_.max_batch_bytes, &batch);
    if (!polled.ok()) {
      send_error(polled);
      break;
    }

    const bool heartbeat_due =
        Clock::now() - last_send >=
        std::chrono::milliseconds(config_.heartbeat_millis);
    if (!batch.empty() || heartbeat_due) {
      FaultInjector& faults = FaultInjector::Instance();
      faults.MaybeKill("repl.send");
      if (faults.ShouldFail("repl.send")) break;  // Simulated partition.
      // Re-frame the batch; split so no frame exceeds the wire cap.
      std::string wire;
      std::vector<StreamRecord> frame_records;
      size_t frame_bytes = 0;
      const uint64_t durable = log->durable_lsn();
      const auto flush_frame = [&] {
        std::string payload;
        EncodeLogStream(durable, frame_records, &payload);
        EncodeFrame(payload, &wire);
        frame_records.clear();
        frame_bytes = 0;
      };
      bool encodable = true;
      for (wal::TailRecord& record : batch) {
        const size_t need = record.payload.size() + 64;
        if (need > kMaxFramePayload) {
          send_error(Status::Internal("WAL record exceeds one wire frame"));
          encodable = false;
          break;
        }
        if (!frame_records.empty() &&
            (frame_bytes + need > kMaxFramePayload - 64 ||
             frame_records.size() >= kMaxLogStreamRecords)) {
          flush_frame();
        }
        frame_bytes += need;
        frame_records.push_back({record.lsn, std::move(record.payload)});
      }
      if (!encodable) break;
      flush_frame();  // Also emits the empty heartbeat frame.
      if (!SendAll(fd, wire)) break;
      last_send = Clock::now();
    }

    if (batch.empty()) {
      // Live tail: wait a beat for new durable records instead of
      // spinning. Acks wake nothing here — 2ms keeps sync-ack latency
      // negligible against the fsync they are gated on.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  MarkDisconnected(hello.replica_id);
  ack_cv_.notify_all();
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Checkpoint transfer
// ---------------------------------------------------------------------------

Status EncodeCheckpointStream(const std::string& data_dir, std::string* out) {
  if (data_dir.empty()) {
    return Status::NotSupported("server runs without a data_dir");
  }
  // Only a checkpoint whose manifest passes its CRC is ever shipped.
  std::string ckpt_path;
  auto manifest = wal::CheckpointReader::ReadManifest(data_dir, &ckpt_path);
  if (manifest.status().IsNotFound()) {
    return Status::NotFound(
        "no checkpoint published yet (CHECKPOINT_NOW first)");
  }
  ANKER_RETURN_IF_ERROR(manifest.status());
  const std::string dir_name = ckpt_path.substr(ckpt_path.rfind('/') + 1);

  // Build into a scratch buffer: a file vanishing mid-read (pruned by a
  // newer checkpoint) must not leave half a transfer in `out`.
  std::string wire;
  uint32_t file_count = 0;
  const auto emit_file = [&](const std::string& rel,
                             const std::string& contents) {
    size_t offset = 0;
    do {
      CkptChunkMsg chunk;
      chunk.file = rel;
      chunk.offset = offset;
      const size_t n =
          std::min<size_t>(contents.size() - offset, kMaxCkptChunkBytes);
      chunk.data = contents.substr(offset, n);
      offset += n;
      chunk.last = offset >= contents.size();
      std::string payload;
      EncodeCkptChunk(chunk, &payload);
      EncodeFrame(payload, &wire);
    } while (offset < contents.size());
    ++file_count;
  };
  // `path` lies under data_dir; it travels under its relative name.
  const auto ship = [&](const std::string& path) -> Status {
    std::string contents;
    const Status read = wal::ReadFile(path, &contents);
    if (!read.ok()) {
      return Status::IoError("checkpoint pruned mid-transfer; retry fetch (" +
                             read.message() + ")");
    }
    emit_file(path.substr(data_dir.size() + 1), contents);
    return Status::OK();
  };

  for (const std::string& name :
       wal::CheckpointReader::FileNames(manifest.value())) {
    ANKER_RETURN_IF_ERROR(ship(ckpt_path + "/" + name));
  }
  // Cold-tier extents live outside the checkpoint directory; ship the
  // ones the manifest references so the replica can resolve extent-backed
  // columns.
  const std::string extents_dir = storage::ExtentStore::DirIn(data_dir);
  for (const uint64_t id : manifest.value().extents) {
    ANKER_RETURN_IF_ERROR(
        ship(extents_dir + "/" + storage::ExtentStore::FileName(id)));
  }
  // CURRENT travels last; the fetcher publishes it only after everything
  // else is durable, mirroring how checkpoints flip locally.
  emit_file(wal::kCurrentFileName, dir_name);

  std::string payload;
  EncodeCkptDone(file_count, &payload);
  EncodeFrame(payload, &wire);
  out->append(wire);
  return Status::OK();
}

Status FetchCheckpointInto(Client* client, const std::string& data_dir) {
  ANKER_RETURN_IF_ERROR(wal::EnsureDir(data_dir));
  ANKER_RETURN_IF_ERROR(client->SendOnly(OpOnly(Op::kFetchCheckpoint)));

  // Each file is assembled from its chunks and installed whole (temp +
  // fsync + rename + directory fsync); CURRENT waits for the end.
  std::string current;
  std::string contents;
  while (true) {
    auto received = client->ReceiveOne();
    if (!received.ok()) return received.status();
    const std::string& payload = received.value();
    if (payload.empty()) {
      return Status::IoError("empty frame in checkpoint stream");
    }
    const Op op = static_cast<Op>(payload[0]);
    const std::string_view body = std::string_view(payload).substr(1);

    if (op == Op::kCkptChunk) {
      CkptChunkMsg chunk;
      // Hostile path / lying length: refuse, recover.
      ANKER_RETURN_IF_ERROR(DecodeCkptChunk(body, &chunk));
      if (chunk.offset != contents.size()) {
        return Status::IoError("checkpoint chunk out of order: " + chunk.file);
      }
      contents += chunk.data;
      if (!chunk.last) continue;
      if (chunk.file == wal::kCurrentFileName) {
        current = std::move(contents);
      } else {
        const std::string path = data_dir + "/" + chunk.file;
        ANKER_RETURN_IF_ERROR(wal::EnsureDir(path.substr(0, path.rfind('/'))));
        ANKER_RETURN_IF_ERROR(wal::AtomicWriteFile(path, contents));
      }
      contents.clear();
      continue;
    }
    if (op == Op::kCkptDone) {
      uint32_t file_count = 0;
      ANKER_RETURN_IF_ERROR(DecodeCkptDone(body, &file_count));
      if (current.empty()) {
        return Status::IoError("checkpoint stream carried no CURRENT");
      }
      // The new directories must be durable before CURRENT names one.
      ANKER_RETURN_IF_ERROR(wal::SyncDir(data_dir));
      return wal::PublishCurrent(data_dir, current);
    }
    return SimpleStatus(payload);  // kErr/kBusy (or protocol violation).
  }
}

// ---------------------------------------------------------------------------
// ReplicaController
// ---------------------------------------------------------------------------

ReplicaController::ReplicaController(engine::Database* db,
                                     ReplicaConfig config)
    : db_(db), config_(std::move(config)) {
  ANKER_CHECK(db_ != nullptr);
}

ReplicaController::~ReplicaController() { Stop(); }

Status ReplicaController::Bootstrap(const ReplicaConfig& config,
                                    const std::string& data_dir) {
  ClientOptions options;
  options.auth_token = config.auth_token;
  options.io_timeout_millis = 30000;  // Checkpoints can take a moment.
  auto connected =
      Client::Connect(config.primary_host, config.primary_port, options);
  if (!connected.ok()) return connected.status();
  Client* client = connected.value().get();

  // Force a fresh checkpoint first: bulk LOADs are not WAL-logged, so
  // only a checkpoint taken *now* captures them for the new replica.
  ANKER_RETURN_IF_ERROR(client->CheckpointNow());

  return FetchCheckpointInto(client, data_dir);
}

void ReplicaController::Start() {
  ANKER_CHECK_MSG(!fetcher_.joinable(), "ReplicaController started twice");
  stop_.store(false);
  fetcher_ = std::thread([this] { FetchLoop(); });
}

void ReplicaController::Stop() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (live_client_ != nullptr) live_client_->ShutdownSocket();
  }
  if (fetcher_.joinable()) fetcher_.join();
}

Status ReplicaController::Promote() {
  if (promoted_.load()) return Status::OK();  // Idempotent.
  Stop();
  // Finalize: the in-memory state already reflects every applied record
  // (ApplyReplicated applies before mirroring); making the local mirror
  // durable seals the history this new head will extend. A torn tail
  // from an earlier crash was already repaired by recovery at Open.
  if (db_->log_writer() != nullptr) {
    ANKER_RETURN_IF_ERROR(db_->log_writer()->Sync());
  }
  promoted_.store(true);
  std::fprintf(stderr, "[replica] promoted: accepting writes from LSN %llu\n",
               static_cast<unsigned long long>(db_->applied_lsn()) + 1);
  return Status::OK();
}

ReplicaStatusOkMsg ReplicaController::Status_() const {
  ReplicaStatusOkMsg status;
  status.role = promoted_.load() ? NodeRole::kPromoted : NodeRole::kReplica;
  status.stream_connected = connected_.load();
  status.applied_lsn = db_->applied_lsn();
  if (db_->log_writer() != nullptr) {
    status.durable_lsn = db_->log_writer()->durable_lsn();
  }
  status.primary_addr =
      config_.primary_host + ":" + std::to_string(config_.primary_port);
  std::lock_guard<std::mutex> guard(mutex_);
  status.staleness_millis = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            last_progress_)
          .count());
  return status;
}

Status ReplicaController::SendAck(Client* client) {
  ReplicaStatusMsg ack;
  if (db_->log_writer() != nullptr) {
    // Only fsynced records may be acked: the primary's retention floor
    // and sync-ack gate both trust this watermark to survive our crash.
    ANKER_RETURN_IF_ERROR(db_->log_writer()->Sync());
    ack.durable_lsn = db_->log_writer()->durable_lsn();
  }
  ack.applied_lsn = db_->applied_lsn();
  std::string payload;
  EncodeReplicaStatus(ack, &payload);
  return client->SendOnly(payload);
}

void ReplicaController::FetchLoop() {
  int backoff = config_.backoff_initial_millis;
  while (!stop_.load()) {
    const Clock::time_point session_start = Clock::now();
    RunSession();
    connected_.store(false);
    if (stop_.load()) break;
    // A session that made progress for a while earns a fresh backoff;
    // rapid connect/die cycles keep doubling up to the cap.
    if (Clock::now() - session_start > std::chrono::seconds(2)) {
      backoff = config_.backoff_initial_millis;
    }
    const int delay = needs_rebootstrap_.load()
                          ? config_.backoff_max_millis
                          : backoff;
    for (int waited = 0; waited < delay && !stop_.load(); waited += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    backoff = std::min(backoff * 2, config_.backoff_max_millis);
  }
}

void ReplicaController::RunSession() {
  ClientOptions options;
  options.auth_token = config_.auth_token;
  // The receive timeout doubles as dead-primary detection: heartbeats
  // arrive every heartbeat interval, so a silent stream for this long
  // means the primary (or the path to it) is gone.
  options.io_timeout_millis = config_.stream_timeout_millis;
  auto connected =
      Client::Connect(config_.primary_host, config_.primary_port, options);
  if (!connected.ok()) return;
  std::unique_ptr<Client> client = connected.TakeValue();
  {
    std::lock_guard<std::mutex> guard(mutex_);
    live_client_ = client.get();
  }
  const auto detach = [&] {
    std::lock_guard<std::mutex> guard(mutex_);
    live_client_ = nullptr;
  };

  ReplicateHelloMsg hello;
  hello.replica_id = config_.replica_id;
  hello.start_lsn = db_->applied_lsn() + 1;
  hello.sync_ack = config_.sync_ack;
  std::string payload;
  EncodeReplicateHello(hello, &payload);
  if (!client->SendOnly(payload).ok()) {
    detach();
    return;
  }

  auto last_ack = Clock::now();
  FaultInjector& faults = FaultInjector::Instance();
  while (!stop_.load()) {
    auto received = client->ReceiveOne();
    if (!received.ok()) break;  // Timeout / reset: reconnect with backoff.
    const std::string& frame = received.value();
    if (frame.empty()) break;
    const Op op = static_cast<Op>(frame[0]);
    const std::string_view body = std::string_view(frame).substr(1);

    if (op == Op::kLogStream) {
      uint64_t primary_durable = 0;
      std::vector<StreamRecord> records;
      if (!DecodeLogStream(body, &primary_durable, &records).ok()) {
        break;  // Hostile/corrupt stream bytes: drop and re-dial.
      }
      connected_.store(true);
      needs_rebootstrap_.store(false);
      {
        std::lock_guard<std::mutex> guard(mutex_);
        last_progress_ = Clock::now();
      }
      bool applied_ok = true;
      for (const StreamRecord& record : records) {
        faults.MaybeKill("repl.recv");
        if (faults.ShouldFail("repl.recv")) {
          applied_ok = false;  // Simulated partition mid-batch.
          break;
        }
        const Status applied = db_->ApplyReplicated(record.lsn,
                                                    record.payload);
        if (!applied.ok()) {
          // Gap or bad payload: resuming from applied_lsn()+1 re-ships
          // the missing prefix; a persistently bad record keeps the
          // replica stalled (and visibly stale) rather than corrupt.
          std::fprintf(stderr, "[replica] apply LSN %llu failed: %s\n",
                       static_cast<unsigned long long>(record.lsn),
                       applied.ToString().c_str());
          applied_ok = false;
          break;
        }
      }
      if (!applied_ok) break;
      const bool ack_due =
          !records.empty() ||
          Clock::now() - last_ack >=
              std::chrono::milliseconds(config_.ack_interval_millis);
      if (ack_due) {
        if (!SendAck(client.get()).ok()) break;
        last_ack = Clock::now();
      }
      continue;
    }
    if (op == Op::kErr || op == Op::kBusy) {
      ErrMsg err;
      if (DecodeErr(body, &err).ok() &&
          err.code == WireError::kOutOfRange) {
        // Our resume point was truncated away (offline across too many
        // checkpoints) or our history diverged. Only a fresh bootstrap
        // from a checkpoint can fix this; retries are throttled to the
        // backoff cap and the operator sees why.
        if (!needs_rebootstrap_.exchange(true)) {
          std::fprintf(stderr,
                       "[replica] stream refused: %s — re-seed this "
                       "replica from a fresh checkpoint\n",
                       err.message.c_str());
        }
      }
      break;
    }
    break;  // Anything else on a stream connection is a violation.
  }
  detach();
}

}  // namespace anker::server
