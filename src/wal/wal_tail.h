#ifndef ANKER_WAL_WAL_TAIL_H_
#define ANKER_WAL_WAL_TAIL_H_

// Incremental WAL tail reader: the primary-side half of WAL shipping.
// A WalTailer follows the live log directory that a LogWriter is
// appending to, delivering raw record payloads (with their LSNs) in log
// order — including across segment rotations — without any coordination
// with the writer beyond two published watermarks:
//
//  - durable_lsn: records are only delivered once durable (the writer
//    publishes durable_lsn_ after the bytes hit the disk, so a record at
//    or below it is fully written and CRC-valid by the time the tailer
//    can observe the watermark). Shipping only durable records is what
//    keeps a restarted primary from ever being *behind* its replicas.
//  - retain_lsn (LogWriter::SetRetainLsn): checkpoint truncation keeps
//    every segment a registered tail still needs. A tailer that finds its
//    resume point truncated anyway (replica offline across checkpoints)
//    reports OutOfRange — the subscriber must re-bootstrap from a
//    checkpoint, not limp on with a hole.
//
// Thread model: one WalTailer per subscriber, driven from that
// subscriber's streaming thread. It holds one open fd and never writes.

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "wal/wal_format.h"

namespace anker::wal {

/// One shipped record: the frame's LSN plus the raw payload bytes
/// (re-framed by the replica's own LogWriter on arrival).
struct TailRecord {
  uint64_t lsn = 0;
  std::string payload;
};

class WalTailer {
 public:
  explicit WalTailer(std::string wal_dir);
  ~WalTailer();
  ANKER_DISALLOW_COPY_AND_MOVE(WalTailer);

  /// Positions the tail so the next delivered record is the first one
  /// with lsn >= start_lsn. `durable_next_lsn` is one past the owning
  /// LogWriter's durable watermark (durable_lsn() + 1) — the durable
  /// prefix is exactly what is on disk, which is what tells "nothing to
  /// ship yet" apart from "the records you need were truncated":
  ///  - start_lsn beyond every durable record and == durable_next_lsn:
  ///    positioned at the live end, OK (appended-but-unflushed records
  ///    surface on later Polls);
  ///  - start_lsn below the oldest record still on disk: OutOfRange (the
  ///    caller must re-bootstrap from a checkpoint);
  ///  - start_lsn above durable_next_lsn: OutOfRange (the follower
  ///    claims records this log never made durable — divergence, e.g.
  ///    after a promotion elsewhere; only durable records are ever
  ///    shipped, so an honest follower can never be here. Resyncing from
  ///    a checkpoint is the only safe answer).
  Status Seek(uint64_t start_lsn, uint64_t durable_next_lsn);

  /// Reads forward from the current position, appending up to
  /// `max_bytes` worth of records with lsn <= durable_limit to `out`.
  /// Returns OK with zero appended records when fully caught up (live
  /// tail). Handles segment rotation transparently. IoError means the
  /// durable prefix failed its own checksums — real corruption, not a
  /// race; OutOfRange means a needed segment vanished (see retain_lsn
  /// above).
  Status Poll(uint64_t durable_limit, size_t max_bytes,
              std::vector<TailRecord>* out);

  /// LSN of the next record this tail expects to deliver.
  uint64_t next_lsn() const { return next_lsn_; }

 private:
  /// Opens `segment` and validates its header; positions after it.
  Status OpenSegmentFile(const SegmentFile& segment);
  void CloseFile();
  /// Reads up to `len` bytes at offset_ into frame_buf_ and decodes the
  /// frame they start (`check`; the header fields even for a bad frame).
  /// False when fewer than kRecordFrameBytes are written there.
  Result<bool> ReadFrameBytes(size_t len, WalFrame* frame,
                              FrameCheck* check);
  /// Reads one frame at offset_. Outcomes:
  ///  kOk      — *record filled, offset_ advanced;
  ///  kAtEnd   — clean end of written bytes (maybe rotation, maybe live);
  ///  kBeyond  — next record's lsn exceeds `durable_limit` (stop here).
  enum class FrameRead { kOk, kAtEnd, kBeyond };
  Status ReadFrame(uint64_t durable_limit, TailRecord* record,
                   FrameRead* outcome);

  const std::string wal_dir_;
  int fd_ = -1;
  uint64_t seq_ = 0;        ///< Segment currently open (0 = none).
  uint64_t offset_ = 0;     ///< Next unread byte in that segment.
  uint64_t next_lsn_ = 1;   ///< Next LSN to deliver (skip filter).
  std::string frame_buf_;   ///< One frame's bytes, reused across reads.
};

}  // namespace anker::wal

#endif  // ANKER_WAL_WAL_TAIL_H_
