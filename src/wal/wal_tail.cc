#include "wal/wal_tail.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace anker::wal {

namespace {

/// pread that retries EINTR; returns bytes read (short at EOF) or -1.
ssize_t PreadFully(int fd, void* buf, size_t len, uint64_t offset) {
  size_t done = 0;
  char* p = static_cast<char*>(buf);
  while (done < len) {
    const ssize_t n =
        ::pread(fd, p + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

WalTailer::WalTailer(std::string wal_dir) : wal_dir_(std::move(wal_dir)) {}

WalTailer::~WalTailer() { CloseFile(); }

void WalTailer::CloseFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalTailer::OpenSegmentFile(const SegmentFile& segment) {
  CloseFile();
  fd_ = ::open(segment.path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    // The segment the tail needs is gone: truncated away while this
    // follower was behind. Only a checkpoint re-bootstrap can close the
    // hole.
    return Status::OutOfRange("WAL tail segment truncated: " + segment.path);
  }
  char header[kSegmentHeaderBytes];
  const ssize_t n = PreadFully(fd_, header, sizeof(header), 0);
  if (n < 0 || !SegmentHeaderValid(std::string_view(header, n), segment.seq)) {
    CloseFile();
    return Status::IoError("WAL tail: bad segment header in " + segment.path);
  }
  seq_ = segment.seq;
  offset_ = kSegmentHeaderBytes;
  return Status::OK();
}

Result<bool> WalTailer::ReadFrameBytes(size_t len, WalFrame* frame,
                                       FrameCheck* check) {
  frame_buf_.resize(len);
  const ssize_t n = PreadFully(fd_, frame_buf_.data(), len, offset_);
  if (n < 0) return Status::IoError("WAL tail: pread failed");
  frame_buf_.resize(static_cast<size_t>(n));
  *check = DecodeFrame(frame_buf_, frame);
  return frame_buf_.size() >= kRecordFrameBytes;
}

Status WalTailer::ReadFrame(uint64_t durable_limit, TailRecord* record,
                            FrameRead* outcome) {
  // End of the written bytes unless proven otherwise. A live writer only
  // appends whole frames per batch, but a reader can observe a batch
  // mid-write; either way there is nothing deliverable there yet.
  *outcome = FrameRead::kAtEnd;
  WalFrame frame;
  FrameCheck check = FrameCheck::kTruncated;
  auto present = ReadFrameBytes(kRecordFrameBytes, &frame, &check);
  if (!present.ok()) return present.status();
  if (!present.value()) return Status::OK();
  if (frame.lsn > durable_limit) {
    // Written (or mid-write garbage) but not yet durable: never ship it.
    *outcome = FrameRead::kBeyond;
    return Status::OK();
  }
  if (check == FrameCheck::kBadLength) {
    return Status::IoError("WAL tail: implausible record length");
  }
  present = ReadFrameBytes(frame.frame_bytes(), &frame, &check);
  if (!present.ok()) return present.status();
  if (check == FrameCheck::kBadCrc && frame.lsn == next_lsn_) {
    // The durable record this tail is due to deliver fails its own
    // checksum: real corruption on the primary's disk.
    return Status::IoError("WAL tail: checksum mismatch at durable LSN " +
                           std::to_string(frame.lsn));
  }
  // Short or failing the CRC at another LSN: garbage bytes beyond the
  // durable prefix (a durable record is never torn). Not deliverable,
  // not (yet) an error.
  if (check != FrameCheck::kOk) return Status::OK();
  record->lsn = frame.lsn;
  record->payload.assign(frame.payload);
  offset_ += frame.frame_bytes();
  *outcome = FrameRead::kOk;
  return Status::OK();
}

Status WalTailer::Seek(uint64_t start_lsn, uint64_t durable_next_lsn) {
  ANKER_CHECK(start_lsn >= 1);
  if (start_lsn > durable_next_lsn) {
    return Status::OutOfRange(
        "follower is ahead of this log (divergent history)");
  }
  next_lsn_ = start_lsn;

  std::vector<SegmentFile> segments;
  ANKER_RETURN_IF_ERROR(ListSegments(wal_dir_, &segments));
  if (segments.empty()) {
    // No segments yet (writer racing its first OpenSegment); Poll will
    // discover them.
    CloseFile();
    seq_ = 0;
    offset_ = 0;
    if (start_lsn != durable_next_lsn) {
      return Status::OutOfRange("WAL history truncated before requested LSN");
    }
    return Status::OK();
  }

  // Pick the newest segment whose first record is at or below start_lsn.
  // Segments hold contiguous LSN ranges, so that segment (if any)
  // contains the resume point.
  const SegmentFile* target = nullptr;
  uint64_t oldest_first = 0;  // Oldest record LSN on disk (0 = none).
  for (const SegmentFile& segment : segments) {
    ANKER_RETURN_IF_ERROR(OpenSegmentFile(segment));
    WalFrame first;
    FrameCheck check = FrameCheck::kTruncated;
    auto present = ReadFrameBytes(kRecordFrameBytes, &first, &check);
    if (!present.ok()) return present.status();
    if (!present.value()) continue;  // No records.
    if (oldest_first == 0) oldest_first = first.lsn;
    if (first.lsn <= start_lsn) target = &segment;
  }

  if (target == nullptr) {
    if (oldest_first != 0) {
      CloseFile();
      return Status::OutOfRange("WAL history truncated before requested LSN");
    }
    // No records anywhere: valid only when the caller resumes exactly at
    // the durable end (anything older was truncated away — the durable
    // prefix always lives on disk).
    if (start_lsn != durable_next_lsn) {
      CloseFile();
      return Status::OutOfRange("WAL history truncated before requested LSN");
    }
    return OpenSegmentFile(segments.back());
  }

  ANKER_RETURN_IF_ERROR(OpenSegmentFile(*target));
  // Walk frames until the resume point; Poll's lsn < next_lsn_ skip
  // handles anything this coarse walk leaves behind.
  for (;;) {
    WalFrame frame;
    FrameCheck check = FrameCheck::kTruncated;
    auto present = ReadFrameBytes(kRecordFrameBytes, &frame, &check);
    if (!present.ok()) return present.status();
    if (!present.value()) break;                 // Tail of segment.
    if (check == FrameCheck::kBadLength) break;  // Mid-write garbage.
    if (frame.lsn >= start_lsn) break;
    offset_ += frame.frame_bytes();
  }
  return Status::OK();
}

Status WalTailer::Poll(uint64_t durable_limit, size_t max_bytes,
                       std::vector<TailRecord>* out) {
  if (fd_ < 0) {
    std::vector<SegmentFile> segments;
    ANKER_RETURN_IF_ERROR(ListSegments(wal_dir_, &segments));
    if (segments.empty()) return Status::OK();
    ANKER_RETURN_IF_ERROR(OpenSegmentFile(segments.front()));
  }
  size_t bytes = 0;
  while (bytes < max_bytes) {
    TailRecord record;
    FrameRead outcome = FrameRead::kAtEnd;
    ANKER_RETURN_IF_ERROR(ReadFrame(durable_limit, &record, &outcome));
    if (outcome == FrameRead::kBeyond) return Status::OK();
    if (outcome == FrameRead::kAtEnd) {
      // Maybe the writer rotated: the successor segment only exists once
      // this one was closed at a record boundary.
      std::vector<SegmentFile> segments;
      ANKER_RETURN_IF_ERROR(ListSegments(wal_dir_, &segments));
      const auto next = std::find_if(
          segments.begin(), segments.end(),
          [&](const SegmentFile& s) { return s.seq == seq_ + 1; });
      if (next == segments.end()) return Status::OK();  // Live tail.
      ANKER_RETURN_IF_ERROR(OpenSegmentFile(*next));
      continue;
    }
    if (record.lsn < next_lsn_) continue;  // Already delivered; skip.
    if (record.lsn != next_lsn_) {
      return Status::IoError("WAL tail: LSN discontinuity (have " +
                             std::to_string(next_lsn_) + ", found " +
                             std::to_string(record.lsn) + ")");
    }
    bytes += record.payload.size() + kRecordFrameBytes;
    next_lsn_ = record.lsn + 1;
    out->push_back(std::move(record));
  }
  return Status::OK();
}

}  // namespace anker::wal
