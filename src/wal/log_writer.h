#ifndef ANKER_WAL_LOG_WRITER_H_
#define ANKER_WAL_LOG_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mvcc/timestamp_oracle.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"

namespace anker::wal {

struct LogWriterOptions {
  DurabilityMode mode = DurabilityMode::kGroupCommit;
  /// Segments rotate once they exceed this many bytes (record boundaries
  /// are never split across segments).
  size_t segment_bytes = 8u << 20;
  /// Background flush cadence: the only syncer under lazy durability, a
  /// mop-up for unacknowledged appends under group commit.
  int flush_interval_millis = 5;
};

/// Append-only segmented redo log with leader-based group commit.
///
/// Thread model: Append is called from the commit critical section (the
/// transaction manager serializes committers, so records land in commit-
/// timestamp order — recovery depends on that) and only frames and copies
/// the payload; even the record CRC is computed later, at flush time.
/// Durability happens in two places:
///  - WaitDurable (group commit): the first waiter whose record is not
///    yet durable elects itself *leader* via a CAS on `flushing_` — it
///    takes the whole pending buffer, checksums it, writes, rotates full
///    segments and fsyncs on the calling thread, then publishes the
///    durable LSN and wakes any sleeping followers. No handoff to another
///    thread means no context-switch round trip on the commit path;
///    commits that arrive while the leader's sync is in flight batch into
///    the next leader's flush.
///  - A background flusher wakes every flush_interval_millis and drains
///    whatever nobody is waiting on (lazy commits, schema records).
///
/// Synchronization is deliberately commit-path-friendly: the append
/// buffer is guarded by a spinlock (hold times are a few hundred
/// nanoseconds, and a futex sleep here would put the *commit mutex
/// holder* to sleep, taxing every transaction in the system); the
/// condition variable and its mutex are touched only by followers that
/// exhausted their spin budget and by the cadence flusher.
///
/// IO failures are sticky: the first failed write/fsync poisons the
/// writer and every subsequent WaitDurable/Sync returns the error instead
/// of acknowledging commits that never reached the disk.
class LogWriter {
 public:
  LogWriter(std::string wal_dir, LogWriterOptions options);
  ~LogWriter();
  ANKER_DISALLOW_COPY_AND_MOVE(LogWriter);

  /// Creates the WAL directory if needed, opens segment `first_segment_seq`
  /// for appending and starts the flusher. Recovery passes the sequence
  /// after the highest existing segment plus the surviving pre-crash
  /// segments (from the recovery scan) so checkpoint truncation owns and
  /// eventually deletes them, and `first_lsn` one past the highest LSN
  /// ever issued (scan max_lsn and checkpoint wal_lsn) so LSNs stay
  /// strictly increasing across restarts; a fresh database passes 1, 1
  /// and nothing.
  Status Open(uint64_t first_segment_seq,
              const std::vector<PriorSegment>& existing = {},
              uint64_t first_lsn = 1);

  /// Buffers one framed record; returns its LSN (strictly increasing,
  /// durable in the frame itself since WAL format v2). `max_ts` is the
  /// newest commit timestamp in the record; the writer tracks it per
  /// segment so checkpoint truncation knows which segments a checkpoint
  /// fully covers. Runs inside the commit critical section — pure memory
  /// work, no locks that sleep.
  uint64_t Append(std::string_view payload, mvcc::Timestamp max_ts);

  /// Replica-side append: buffers a record shipped from the primary under
  /// the primary's LSN, keeping the local log LSN-identical to the
  /// primary's so a replica restart resumes the stream from its own scan
  /// and promotion needs no renumbering. `lsn` must exceed every LSN
  /// appended so far (the apply loop filters duplicates); CHECK-enforced
  /// because a regression here would corrupt the log's monotonicity
  /// invariant, not just one record.
  void AppendReplicated(std::string_view payload, mvcc::Timestamp max_ts,
                        uint64_t lsn);

  /// Blocks until everything up to `lsn` is on disk: leads the flush
  /// itself when no flush is in flight, otherwise spins briefly and then
  /// sleeps. Returns OK once durable, or the sticky IO error.
  Status WaitDurable(uint64_t lsn);

  /// Flushes and fsyncs everything appended so far (blocking).
  Status Sync();

  /// Checkpoint truncation: syncs, rotates to a fresh segment, then
  /// deletes every closed segment whose newest record is covered by the
  /// checkpoint (max_ts <= ckpt_ts) AND acknowledged by every connected
  /// replica (max_lsn <= the SetRetainLsn floor).
  Status TruncateThrough(mvcc::Timestamp ckpt_ts);

  /// Replication retention floor: segments holding any record with
  /// lsn > `lsn` survive checkpoint truncation, so the slowest connected
  /// replica can always resume its tail from disk. UINT64_MAX (the
  /// default) means "no replicas — truncate freely".
  void SetRetainLsn(uint64_t lsn) {
    retain_lsn_.store(lsn, std::memory_order_release);
  }
  uint64_t retain_lsn() const {
    return retain_lsn_.load(std::memory_order_acquire);
  }

  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  uint64_t appended_lsn() const;
  /// Cumulative flush+fsync count (observability: group-commit benches
  /// report commits-per-sync).
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  Status io_status() const;

  /// Stops the flusher after a final flush+fsync. Idempotent; also run by
  /// the destructor.
  void Stop();

 private:
  /// Test-and-set spinlock for the append buffer. Hold times are bounded
  /// by one payload memcpy; see the class comment for why sleeping is
  /// unacceptable here.
  class SpinLock {
   public:
    void lock() {
      while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  struct Segment {
    uint64_t seq = 0;
    std::string path;
    mvcc::Timestamp max_ts = 0;
    uint64_t max_lsn = 0;
    bool has_records = false;
  };

  /// One buffered record's bookkeeping: its end offset within pending_,
  /// its newest commit timestamp and its LSN (per-segment LSN ranges feed
  /// the replication retention floor).
  struct PendingRecord {
    size_t end = 0;
    mvcc::Timestamp max_ts = 0;
    uint64_t lsn = 0;
  };

  /// Frames `payload` at `lsn` into pending_. Caller holds buffer_lock_.
  void BufferLocked(std::string_view payload, mvcc::Timestamp max_ts,
                    uint64_t lsn);

  void FlusherLoop();

  /// Leader election + flush: CASes flushing_, drains the pending buffer,
  /// checksums, writes, fsyncs, publishes durable_lsn_ and notifies.
  /// Returns false when another leader holds the flush (caller becomes a
  /// follower), true when it led (possibly over an empty buffer).
  bool TryLeadFlush();

  /// Writes `data` into the current segment, rotating at record
  /// boundaries. Caller holds file_mutex_. `boundaries` holds the byte
  /// offsets (within `data`) where records end, with each record's
  /// max_ts and LSN.
  Status WriteAndMaybeRotate(const std::string& data,
                             const std::vector<PendingRecord>& boundaries);
  Status OpenSegment(uint64_t seq);
  Status CloseSegment();

  const std::string wal_dir_;
  const LogWriterOptions options_;

  // Append buffer (buffer_lock_).
  mutable SpinLock buffer_lock_;
  std::string pending_;
  std::vector<PendingRecord> pending_boundaries_;
  /// Drained batch buffers cycle back here so Append never reallocates
  /// once warm (an alloc inside the commit section would tax every txn).
  std::string spare_;
  std::vector<PendingRecord> spare_boundaries_;
  uint64_t next_lsn_ = 1;
  uint64_t buffered_lsn_ = 0;  ///< Last LSN sitting in pending_.

  // Lock-free state.
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> retain_lsn_{UINT64_MAX};
  std::atomic<bool> flushing_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sync_count_{0};

  // Cold path: sleeping followers + cadence flusher + sticky IO error.
  mutable std::mutex wait_mutex_;
  std::condition_variable durable_cv_;
  std::condition_variable flusher_cv_;
  Status io_status_;

  // File state (file_mutex_; serialized leaders + TruncateThrough).
  std::mutex file_mutex_;
  int fd_ = -1;
  Segment current_;
  size_t current_bytes_ = 0;
  std::vector<Segment> closed_;

  std::thread flusher_;
  bool opened_ = false;
};

}  // namespace anker::wal

#endif  // ANKER_WAL_LOG_WRITER_H_
