#include "wal/log_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/fault_injector.h"
#include "wal/io_util.h"

namespace anker::wal {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// On a single-CPU host, spinning for the leader's fsync burns the only
/// core the leader needs, and groups can never form behind an in-flight
/// sync (nothing runs concurrently). Yielding instead lets every runnable
/// committer append its record first, so the next leader's one fsync
/// covers them all.
const bool kSingleCpu = std::thread::hardware_concurrency() <= 1;

}  // namespace

LogWriter::LogWriter(std::string wal_dir, LogWriterOptions options)
    : wal_dir_(std::move(wal_dir)), options_(options) {}

LogWriter::~LogWriter() { Stop(); }

Status LogWriter::Open(uint64_t first_segment_seq,
                       const std::vector<PriorSegment>& existing,
                       uint64_t first_lsn) {
  ANKER_CHECK(!opened_);
  ANKER_CHECK(first_lsn >= 1);
  ANKER_RETURN_IF_ERROR(EnsureDir(wal_dir_));
  {
    std::lock_guard<std::mutex> file_guard(file_mutex_);
    // Adopt surviving pre-crash segments as closed: checkpoint truncation
    // walks closed_, and without this the old files would outlive every
    // checkpoint and accumulate across restarts.
    for (const PriorSegment& prior : existing) {
      ANKER_CHECK(prior.seq < first_segment_seq);
      closed_.push_back(Segment{prior.seq, prior.path, prior.max_commit_ts,
                                prior.max_lsn, prior.has_records});
    }
    ANKER_RETURN_IF_ERROR(OpenSegment(first_segment_seq));
  }
  next_lsn_ = first_lsn;
  // Everything below first_lsn was recovered from disk, so it is durable
  // by definition. Leaving the watermarks at 0 would make a restarted
  // primary report durable_lsn=0 and refuse to ship its recovered tail
  // to replicas until the next fresh commit.
  buffered_lsn_ = first_lsn - 1;
  durable_lsn_.store(first_lsn - 1, std::memory_order_release);
  opened_ = true;
  flusher_ = std::thread([this] { FlusherLoop(); });
  return Status::OK();
}

uint64_t LogWriter::Append(std::string_view payload, mvcc::Timestamp max_ts) {
  ANKER_CHECK(opened_);
  FaultInjector::Instance().MaybeKill("wal.append");
  buffer_lock_.lock();
  const uint64_t lsn = next_lsn_++;
  BufferLocked(payload, max_ts, lsn);
  buffer_lock_.unlock();
  // No flusher wake-up: under group commit the waiter flushes itself
  // (leader), under lazy durability the background cadence handles it.
  return lsn;
}

void LogWriter::AppendReplicated(std::string_view payload,
                                 mvcc::Timestamp max_ts, uint64_t lsn) {
  ANKER_CHECK(opened_);
  buffer_lock_.lock();
  ANKER_CHECK_MSG(lsn >= next_lsn_, "replicated LSN would regress the log");
  next_lsn_ = lsn + 1;
  BufferLocked(payload, max_ts, lsn);
  buffer_lock_.unlock();
}

void LogWriter::BufferLocked(std::string_view payload, mvcc::Timestamp max_ts,
                             uint64_t lsn) {
  ANKER_CHECK(payload.size() <= kMaxRecordBytes);
  AppendFrameHeader(static_cast<uint32_t>(payload.size()), lsn, &pending_);
  pending_.append(payload.data(), payload.size());
  pending_boundaries_.push_back(PendingRecord{pending_.size(), max_ts, lsn});
  buffered_lsn_ = lsn;
}

bool LogWriter::TryLeadFlush() {
  bool expected = false;
  if (!flushing_.compare_exchange_strong(expected, true,
                                         std::memory_order_acquire)) {
    return false;
  }

  // Poisoned writers never flush again: a later successful batch would
  // advance durable_lsn_ past the failed batch's records, acknowledging
  // commits whose bytes form a hole in the segment. Once io_status_ is
  // set, durable_lsn_ is frozen and every waiter gets the error.
  {
    std::lock_guard<std::mutex> wait_guard(wait_mutex_);
    if (!io_status_.ok()) {
      flushing_.store(false, std::memory_order_release);
      durable_cv_.notify_all();
      return true;
    }
  }

  buffer_lock_.lock();
  std::string batch = std::move(pending_);
  std::vector<PendingRecord> boundaries = std::move(pending_boundaries_);
  pending_ = std::move(spare_);
  pending_boundaries_ = std::move(spare_boundaries_);
  pending_.clear();
  pending_boundaries_.clear();
  const uint64_t batch_lsn = buffered_lsn_;
  buffer_lock_.unlock();

  if (batch.empty()) {
    // Nothing to do: a previous leader drained the buffer (and published
    // its LSN before dropping the flag, so callers re-checking
    // durable_lsn_ make progress).
    buffer_lock_.lock();
    spare_ = std::move(batch);
    spare_boundaries_ = std::move(boundaries);
    buffer_lock_.unlock();
    flushing_.store(false, std::memory_order_release);
    return true;
  }

  // Checksum every record in the batch — off the commit path, in the
  // shadow of whatever the committers are doing next.
  size_t start = 0;
  for (const PendingRecord& record : boundaries) {
    SealFrame(batch.data() + start, record.end - start);
    start = record.end;
  }

  FaultInjector::Instance().MaybeKill("wal.flush.pre");
  Status s;
  {
    std::lock_guard<std::mutex> file_guard(file_mutex_);
    s = WriteAndMaybeRotate(batch, boundaries);
    // Group-commit segments are opened O_DSYNC: the write itself is the
    // sync, saving one syscall on every flush.
    if (s.ok() && options_.mode != DurabilityMode::kGroupCommit) {
      s = SyncFd(fd_);
    }
  }
  FaultInjector::Instance().MaybeKill("wal.flush.post");
  sync_count_.fetch_add(1, std::memory_order_relaxed);

  if (s.ok()) {
    // Leaders are serialized by flushing_, and batch LSNs are monotonic,
    // so a plain store is safe — and it must happen *before* the flag
    // drop below, or a successor leader could observe an empty buffer
    // while this batch looks non-durable.
    durable_lsn_.store(batch_lsn, std::memory_order_release);
  } else {
    std::lock_guard<std::mutex> wait_guard(wait_mutex_);
    if (io_status_.ok()) io_status_ = s;
  }

  // Return the drained buffers for reuse.
  batch.clear();
  boundaries.clear();
  buffer_lock_.lock();
  spare_ = std::move(batch);
  spare_boundaries_ = std::move(boundaries);
  buffer_lock_.unlock();

  flushing_.store(false, std::memory_order_release);
  {
    // Empty critical section: pairs with the follower's predicate check
    // under wait_mutex_, closing the missed-wakeup window.
    std::lock_guard<std::mutex> wait_guard(wait_mutex_);
  }
  durable_cv_.notify_all();
  return true;
}

Status LogWriter::WaitDurable(uint64_t lsn) {
  if (kSingleCpu) {
    // Batch formation by scheduling: give every runnable committer a
    // chance to append before anyone pays for a flush.
    std::this_thread::yield();
  }
  for (;;) {
    if (durable_lsn_.load(std::memory_order_acquire) >= lsn) {
      return Status::OK();
    }
    if (TryLeadFlush()) {
      // We led: our record is durable now — unless IO is failing, which
      // is the only way a completed flush leaves the LSN behind.
      if (durable_lsn_.load(std::memory_order_acquire) >= lsn) {
        return Status::OK();
      }
      const Status io = io_status();
      if (!io.ok()) return io;
      continue;
    }

    if (kSingleCpu) {
      // Spinning would stall the leader itself; hand it the core.
      std::this_thread::yield();
      continue;
    }
    // Follower: the leader's flush is microseconds on a fast device —
    // spin briefly before paying a sleep/wake round trip.
    for (int spin = 0; spin < 1024; ++spin) {
      if (durable_lsn_.load(std::memory_order_acquire) >= lsn) {
        return Status::OK();
      }
      CpuRelax();
    }

    std::unique_lock<std::mutex> wait_guard(wait_mutex_);
    if (!io_status_.ok()) return io_status_;
    if (durable_lsn_.load(std::memory_order_acquire) >= lsn) {
      return Status::OK();
    }
    if (flushing_.load(std::memory_order_acquire)) {
      // Timed: belt-and-braces against any wake/publish race; the
      // predicate loop above re-checks everything on wake.
      durable_cv_.wait_for(wait_guard, std::chrono::milliseconds(1));
    }
  }
}

Status LogWriter::Sync() {
  buffer_lock_.lock();
  const uint64_t target = buffered_lsn_;
  buffer_lock_.unlock();
  while (durable_lsn_.load(std::memory_order_acquire) < target) {
    {
      std::lock_guard<std::mutex> wait_guard(wait_mutex_);
      if (!io_status_.ok()) return io_status_;
    }
    if (!TryLeadFlush()) std::this_thread::yield();
  }
  return io_status();
}

uint64_t LogWriter::appended_lsn() const {
  buffer_lock_.lock();
  const uint64_t lsn = next_lsn_ - 1;
  buffer_lock_.unlock();
  return lsn;
}

Status LogWriter::io_status() const {
  std::lock_guard<std::mutex> guard(wait_mutex_);
  return io_status_;
}

void LogWriter::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> wait_guard(wait_mutex_);
    flusher_cv_.notify_one();
    durable_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> file_guard(file_mutex_);
  if (fd_ >= 0) {
    ::fdatasync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void LogWriter::FlusherLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> wait_guard(wait_mutex_);
      // Pure cadence: commits never wake the flusher. Under group commit
      // the waiters flush themselves; this loop mops up records nobody
      // acknowledged (lazy commits, schema records, stragglers).
      flusher_cv_.wait_for(
          wait_guard,
          std::chrono::milliseconds(options_.flush_interval_millis),
          [&] { return stop_.load(std::memory_order_acquire); });
    }
    buffer_lock_.lock();
    const bool has_pending = !pending_.empty();
    buffer_lock_.unlock();
    if (has_pending) TryLeadFlush();
  }
  // Shutdown drain: everything buffered must reach the disk before the
  // writer closes, even if a leader is mid-flush right now.
  for (;;) {
    buffer_lock_.lock();
    const bool has_pending = !pending_.empty();
    buffer_lock_.unlock();
    if (!has_pending && !flushing_.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mutex_);
      if (!io_status_.ok() && !flushing_.load(std::memory_order_acquire)) {
        return;  // Poisoned: nothing more will ever reach the disk.
      }
    }
    if (!TryLeadFlush()) std::this_thread::yield();
  }
}

Status LogWriter::WriteAndMaybeRotate(
    const std::string& data, const std::vector<PendingRecord>& boundaries) {
  size_t written = 0;
  size_t record = 0;
  while (record < boundaries.size()) {
    // Rotate between records once the segment is over budget. A single
    // record larger than segment_bytes still lands whole in one segment.
    if (current_.has_records && current_bytes_ >= options_.segment_bytes) {
      ANKER_RETURN_IF_ERROR(CloseSegment());
      ANKER_RETURN_IF_ERROR(OpenSegment(current_.seq + 1));
    }
    // Largest run of records that fits the remaining budget (at least one).
    size_t run_end = record;
    mvcc::Timestamp run_max_ts = 0;
    uint64_t run_max_lsn = 0;
    while (run_end < boundaries.size()) {
      const size_t bytes_through = boundaries[run_end].end - written;
      if (run_end > record &&
          current_bytes_ + bytes_through > options_.segment_bytes) {
        break;
      }
      run_max_ts = std::max(run_max_ts, boundaries[run_end].max_ts);
      run_max_lsn = std::max(run_max_lsn, boundaries[run_end].lsn);
      ++run_end;
      if (current_bytes_ + bytes_through >= options_.segment_bytes) break;
    }
    const size_t end_offset = boundaries[run_end - 1].end;
    ANKER_RETURN_IF_ERROR(
        WriteFully(fd_, data.data() + written, end_offset - written));
    current_bytes_ += end_offset - written;
    current_.max_ts = std::max(current_.max_ts, run_max_ts);
    current_.max_lsn = std::max(current_.max_lsn, run_max_lsn);
    current_.has_records = true;
    written = end_offset;
    record = run_end;
  }
  return Status::OK();
}

Status LogWriter::OpenSegment(uint64_t seq) {
  const std::string path = wal_dir_ + "/" + SegmentFileName(seq);
  int flags = O_CREAT | O_TRUNC | O_WRONLY;
  if (options_.mode == DurabilityMode::kGroupCommit) flags |= O_DSYNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create WAL segment " + path);
  }
  current_ = Segment{seq, path, 0, 0, false};
  std::string header;
  EncodeSegmentHeader(seq, &header);
  ANKER_RETURN_IF_ERROR(WriteFully(fd_, header.data(), header.size()));
  current_bytes_ = header.size();
  // The file name itself must be durable before any record in it is
  // acknowledged; the first batch fsyncs the data, this covers the entry.
  return SyncDir(wal_dir_);
}

Status LogWriter::CloseSegment() {
  ANKER_RETURN_IF_ERROR(SyncFd(fd_));
  ::close(fd_);
  fd_ = -1;
  closed_.push_back(current_);
  return Status::OK();
}

Status LogWriter::TruncateThrough(mvcc::Timestamp ckpt_ts) {
  ANKER_RETURN_IF_ERROR(Sync());
  std::lock_guard<std::mutex> file_guard(file_mutex_);
  // Start a fresh segment so the current one becomes eligible next time.
  if (current_.has_records) {
    ANKER_RETURN_IF_ERROR(CloseSegment());
    ANKER_RETURN_IF_ERROR(OpenSegment(current_.seq + 1));
  }
  // Replication retention: a segment whose newest LSN is above the floor
  // still feeds some replica's tail — covered-by-checkpoint or not, it
  // must stay on disk until every connected replica acknowledges past it.
  const uint64_t retain = retain_lsn_.load(std::memory_order_acquire);
  bool removed = false;
  for (auto it = closed_.begin(); it != closed_.end();) {
    const bool ckpt_covered = !it->has_records || it->max_ts <= ckpt_ts;
    const bool replicas_past = !it->has_records || it->max_lsn <= retain;
    if (ckpt_covered && replicas_past) {
      ANKER_RETURN_IF_ERROR(RemoveFile(it->path));
      it = closed_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (removed) return SyncDir(wal_dir_);
  return Status::OK();
}

}  // namespace anker::wal
