#include "wal/log_reader.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "wal/io_util.h"

namespace anker::wal {

namespace {

/// Parses one segment image. Valid records are appended to `records`
/// (paired with their LSN); `*valid_bytes` receives the length of the
/// trustworthy prefix. LSNs must be strictly increasing — `*prev_lsn`
/// carries the last accepted LSN across segments, and a regression is
/// treated like any other corruption at that point. Returns true iff the
/// whole file parsed cleanly (header and every frame).
bool ParseSegment(const std::string& data, uint64_t expected_seq,
                  uint64_t* prev_lsn,
                  std::vector<std::pair<uint64_t, WalRecord>>* records,
                  size_t* valid_bytes) {
  *valid_bytes = 0;
  if (!SegmentHeaderValid(data, expected_seq)) return false;
  *valid_bytes = kSegmentHeaderBytes;
  std::string_view in(data);
  in.remove_prefix(kSegmentHeaderBytes);
  while (!in.empty()) {  // Empty: clean end at a record boundary.
    WalFrame frame;
    if (DecodeFrame(in, &frame) != FrameCheck::kOk ||
        frame.lsn <= *prev_lsn) {
      return false;
    }
    WalRecord record;
    if (!DecodeRecord(frame.payload, &record).ok()) return false;
    *prev_lsn = frame.lsn;
    records->emplace_back(frame.lsn, std::move(record));
    in.remove_prefix(frame.frame_bytes());
    *valid_bytes += frame.frame_bytes();
  }
  return true;
}

Status TruncateFile(const std::string& path, size_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    return Status::IoError("cannot truncate torn WAL tail of " + path);
  }
  return Status::OK();
}

}  // namespace

Result<LogScanResult> LogReader::Scan(const std::string& wal_dir,
                                      const RecordFn& fn, bool repair) {
  LogScanResult result;
  std::vector<SegmentFile> segments;
  ANKER_RETURN_IF_ERROR(ListSegments(wal_dir, &segments));
  if (segments.empty()) return result;
  result.next_segment_seq = segments.back().seq + 1;

  uint64_t prev_lsn = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool is_last = (i + 1 == segments.size());
    std::string data;
    ANKER_RETURN_IF_ERROR(ReadFile(segments[i].path, &data));

    std::vector<std::pair<uint64_t, WalRecord>> records;
    size_t valid_bytes = 0;
    const bool clean = ParseSegment(data, segments[i].seq, &prev_lsn,
                                    &records, &valid_bytes);
    if (!clean && !is_last) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "WAL segment %" PRIu64
                    " is corrupt at byte %zu but newer segments exist; "
                    "refusing to recover past a mid-log hole",
                    segments[i].seq, valid_bytes);
      return Status::IoError(msg);
    }

    PriorSegment prior;
    prior.seq = segments[i].seq;
    prior.path = segments[i].path;
    prior.has_records = !records.empty();
    for (const auto& [lsn, record] : records) {
      if (record.type == RecordType::kCommit) {
        result.max_commit_ts = std::max(result.max_commit_ts,
                                        record.commit_ts);
        prior.max_commit_ts = std::max(prior.max_commit_ts,
                                       record.commit_ts);
      }
      result.max_lsn = std::max(result.max_lsn, lsn);
      prior.max_lsn = std::max(prior.max_lsn, lsn);
      ANKER_RETURN_IF_ERROR(fn(lsn, record));
      ++result.records_read;
    }
    ++result.segments_read;

    bool file_removed = false;
    if (!clean) {
      result.torn_tail = true;
      if (repair) {
        if (valid_bytes < kSegmentHeaderBytes) {
          // Not even the header survived: drop the file entirely so the
          // next scan does not trip over a headerless segment.
          ANKER_RETURN_IF_ERROR(RemoveFile(segments[i].path));
          file_removed = true;
        } else {
          ANKER_RETURN_IF_ERROR(
              TruncateFile(segments[i].path, valid_bytes));
        }
        ANKER_RETURN_IF_ERROR(SyncDir(wal_dir));
      }
    }
    if (!file_removed) result.segments.push_back(std::move(prior));
  }
  return result;
}

}  // namespace anker::wal
