#include "wal/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/fault_injector.h"
#include "wal/crc32c.h"
#include "wal/io_util.h"
#include "wal/wal_format.h"

namespace anker::wal {

namespace {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "checkpoint blob format assumes a little-endian host"
#endif

constexpr uint32_t kColumnMagic = 0x314C4341u;    // "ACL1"
// Incremental column image: extent references instead of slot bytes.
constexpr uint32_t kColumnExtMagic = 0x324C4341u;  // "ACL2"
constexpr uint32_t kIndexMagic = 0x31584941u;     // "AIX1"
// "ANKRMFT3": the covered WAL LSN (wal_lsn, where replicas resume the
// log stream after a bootstrap), the tables, the 2PC section and the
// cold-tier section (extent-id watermark and referenced-extent list).
// Older manifest versions are rejected as malformed.
constexpr uint64_t kManifestMagic = 0x3354464D524B4E41ULL;  // "ANKRMFT3"
constexpr size_t kExtentRefBytes = 8 + 8 + 8 + 4 + 4;
constexpr size_t kBlobHeaderBytes = 4 + 4 + 8;
constexpr char kManifestFileName[] = "MANIFEST";

std::string CheckpointDirName(mvcc::Timestamp ts) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%llu",
                static_cast<unsigned long long>(ts));
  return buf;
}

std::string ColumnFileName(uint32_t table_id, uint32_t column_id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "t%u.c%u", table_id, column_id);
  return buf;
}

std::string IndexFileName(uint32_t table_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%u.idx", table_id);
  return buf;
}

void EncodeManifest(const CheckpointManifest& m, std::string* out) {
  PutU64(out, kManifestMagic);
  PutU64(out, m.checkpoint_ts);
  PutU64(out, m.commit_count);
  PutU64(out, m.next_txn_id);
  PutU64(out, m.wal_lsn);
  PutU32(out, static_cast<uint32_t>(m.tables.size()));
  for (const CheckpointTableMeta& t : m.tables) {
    PutString(out, t.name);
    PutU64(out, t.num_rows);
    PutSchema(t.schema, out);
    PutU32(out, static_cast<uint32_t>(t.dictionaries.size()));
    for (const auto& [column, entries] : t.dictionaries) {
      PutString(out, column);
      PutU32(out, static_cast<uint32_t>(entries.size()));
      for (const std::string& entry : entries) PutString(out, entry);
    }
    PutU8(out, t.has_primary_index ? 1 : 0);
    PutU64(out, t.index_entries);
  }
  // 2PC section (always written by this version; older manifests simply
  // end here and decode with empty vectors).
  PutU32(out, static_cast<uint32_t>(m.prepared.size()));
  for (const CheckpointPreparedTxn& p : m.prepared) {
    PutU64(out, p.gtid);
    PutU32(out, p.primary_shard);
    PutU64(out, p.start_ts);
    PutU64(out, p.prepare_ts);
    PutRedoWrites(p.writes, out);
  }
  PutU32(out, static_cast<uint32_t>(m.outcomes.size()));
  for (const CheckpointTxnOutcome& o : m.outcomes) {
    PutU64(out, o.gtid);
    PutU8(out, o.outcome);
    PutU64(out, o.commit_ts);
  }
  // v3 cold-tier section.
  PutU64(out, m.next_extent_id);
  PutU32(out, static_cast<uint32_t>(m.extents.size()));
  for (const uint64_t id : m.extents) PutU64(out, id);
}

Status DecodeManifest(std::string_view in, CheckpointManifest* m) {
  const Status malformed = Status::IoError("malformed checkpoint manifest");
  uint64_t magic = 0;
  uint32_t ntables = 0;
  if (!GetU64(&in, &magic) || magic != kManifestMagic ||
      !GetU64(&in, &m->checkpoint_ts) || !GetU64(&in, &m->commit_count) ||
      !GetU64(&in, &m->next_txn_id) || !GetU64(&in, &m->wal_lsn) ||
      !GetU32(&in, &ntables)) {
    return malformed;
  }
  m->tables.clear();
  m->tables.reserve(ntables);
  for (uint32_t i = 0; i < ntables; ++i) {
    CheckpointTableMeta t;
    if (!GetString(&in, &t.name) || !GetU64(&in, &t.num_rows) ||
        !GetSchema(&in, &t.schema)) {
      return malformed;
    }
    uint32_t ndicts = 0;
    if (!GetU32(&in, &ndicts)) return malformed;
    for (uint32_t d = 0; d < ndicts; ++d) {
      std::string column;
      uint32_t nentries = 0;
      if (!GetString(&in, &column) || !GetU32(&in, &nentries)) {
        return malformed;
      }
      std::vector<std::string> entries;
      entries.reserve(nentries);
      for (uint32_t e = 0; e < nentries; ++e) {
        std::string entry;
        if (!GetString(&in, &entry)) return malformed;
        entries.push_back(std::move(entry));
      }
      t.dictionaries.emplace_back(std::move(column), std::move(entries));
    }
    uint8_t has_index = 0;
    if (!GetU8(&in, &has_index) || !GetU64(&in, &t.index_entries)) {
      return malformed;
    }
    t.has_primary_index = has_index != 0;
    m->tables.push_back(std::move(t));
  }
  m->prepared.clear();
  m->outcomes.clear();
  m->extents.clear();
  uint32_t nprepared = 0;
  if (!GetU32(&in, &nprepared)) return malformed;
  m->prepared.reserve(nprepared);
  for (uint32_t i = 0; i < nprepared; ++i) {
    CheckpointPreparedTxn p;
    if (!GetU64(&in, &p.gtid) || !GetU32(&in, &p.primary_shard) ||
        !GetU64(&in, &p.start_ts) || !GetU64(&in, &p.prepare_ts) ||
        !GetRedoWrites(&in, &p.writes)) {
      return malformed;
    }
    m->prepared.push_back(std::move(p));
  }
  uint32_t noutcomes = 0;
  if (!GetU32(&in, &noutcomes)) return malformed;
  m->outcomes.reserve(noutcomes);
  for (uint32_t i = 0; i < noutcomes; ++i) {
    CheckpointTxnOutcome o;
    if (!GetU64(&in, &o.gtid) || !GetU8(&in, &o.outcome) ||
        !GetU64(&in, &o.commit_ts)) {
      return malformed;
    }
    m->outcomes.push_back(o);
  }
  uint32_t nextents = 0;
  if (!GetU64(&in, &m->next_extent_id) || !GetU32(&in, &nextents)) {
    return malformed;
  }
  m->extents.reserve(nextents);
  for (uint32_t i = 0; i < nextents; ++i) {
    uint64_t id = 0;
    if (!GetU64(&in, &id)) return malformed;
    m->extents.push_back(id);
  }
  if (!in.empty()) return malformed;
  return Status::OK();
}

/// Reads a blob file written by CheckpointWriter::WriteBlob, verifies its
/// CRC, and returns the magic, item count and body bytes — callers that
/// accept more than one format (LoadColumn: ACL1 or ACL2) branch on the
/// magic after the integrity check.
Status ParseBlob(const std::string& path, uint32_t* magic_out,
                 uint64_t* items_out, std::string* body) {
  std::string data;
  ANKER_RETURN_IF_ERROR(ReadFile(path, &data));
  std::string_view in(data);
  uint32_t magic = 0, pad = 0;
  uint64_t items = 0;
  if (!GetU32(&in, &magic) || !GetU32(&in, &pad) || !GetU64(&in, &items) ||
      in.size() < 4) {
    return Status::IoError("checkpoint blob header mismatch: " + path);
  }
  const size_t body_bytes = in.size() - 4;
  const uint32_t crc = Crc32c(0, in.data(), body_bytes);
  std::string_view trailer = in.substr(body_bytes);
  uint32_t masked = 0;
  if (!GetU32(&trailer, &masked) || UnmaskCrc(masked) != crc) {
    return Status::IoError("checkpoint blob checksum mismatch: " + path);
  }
  *magic_out = magic;
  *items_out = items;
  body->assign(in.data(), body_bytes);
  return Status::OK();
}

/// ParseBlob plus the strict single-format checks: expected magic, item
/// count, and exact body size.
Status ReadBlob(const std::string& path, uint32_t expected_magic,
                uint64_t expected_items, size_t item_bytes,
                std::string* body) {
  uint32_t magic = 0;
  uint64_t items = 0;
  ANKER_RETURN_IF_ERROR(ParseBlob(path, &magic, &items, body));
  if (magic != expected_magic || items != expected_items) {
    return Status::IoError("checkpoint blob header mismatch: " + path);
  }
  if (body->size() != items * item_bytes) {
    return Status::IoError("checkpoint blob size mismatch: " + path);
  }
  return Status::OK();
}

}  // namespace

Status PublishCurrent(const std::string& data_dir,
                      const std::string& dir_name) {
  return AtomicWriteFile(data_dir + "/" + kCurrentFileName, dir_name + "\n");
}

std::string WalDirOf(const std::string& data_dir) { return data_dir + "/wal"; }

bool HasDurableState(const std::string& data_dir) {
  return PathExists(data_dir + "/" + kCurrentFileName) ||
         PathExists(WalDirOf(data_dir));
}

CheckpointWriter::CheckpointWriter(std::string data_dir)
    : data_dir_(std::move(data_dir)) {}

Status CheckpointWriter::Begin(mvcc::Timestamp checkpoint_ts) {
  ANKER_CHECK(!begun_);
  ANKER_RETURN_IF_ERROR(EnsureDir(data_dir_));
  // Two checkpoints can legitimately share a timestamp: bulk loads and
  // table creates change state without drawing commit timestamps, so a
  // homogeneous-mode re-checkpoint may pin the same ckpt_ts with fresher
  // data. Uniquify the directory; CURRENT decides which one is live and
  // Finish() prunes the loser.
  dir_name_ = CheckpointDirName(checkpoint_ts);
  for (int suffix = 1; PathExists(data_dir_ + "/" + dir_name_); ++suffix) {
    dir_name_ =
        CheckpointDirName(checkpoint_ts) + "." + std::to_string(suffix);
  }
  tmp_path_ = data_dir_ + "/" + dir_name_ + ".tmp";
  // A stale .tmp from a crashed checkpoint is dead weight; start over.
  ANKER_RETURN_IF_ERROR(RemoveDirRecursive(tmp_path_));
  ANKER_RETURN_IF_ERROR(EnsureDir(tmp_path_));
  begun_ = true;
  return Status::OK();
}

Status CheckpointWriter::WriteBlob(
    const std::string& path, uint32_t magic,
    const std::function<Status(int fd, uint32_t* crc)>& body,
    uint64_t item_count) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::IoError("cannot create checkpoint file " + path);
  std::string header;
  PutU32(&header, magic);
  PutU32(&header, 0);
  PutU64(&header, item_count);
  ANKER_CHECK(header.size() == kBlobHeaderBytes);
  Status s = WriteFully(fd, header.data(), header.size());
  uint32_t crc = 0;
  if (s.ok()) s = body(fd, &crc);
  if (s.ok()) {
    std::string trailer;
    PutU32(&trailer, MaskCrc(crc));
    s = WriteFully(fd, trailer.data(), trailer.size());
  }
  if (s.ok()) s = SyncFd(fd);
  ::close(fd);
  return s;
}

Status CheckpointWriter::WriteColumnRaw(uint32_t table_id, uint32_t column_id,
                                        const uint64_t* data,
                                        size_t num_rows) {
  ANKER_CHECK(begun_);
  const std::string path =
      tmp_path_ + "/" + ColumnFileName(table_id, column_id);
  return WriteBlob(
      path, kColumnMagic,
      [&](int fd, uint32_t* crc) {
        *crc = Crc32c(0, data, num_rows * sizeof(uint64_t));
        return WriteFully(fd, data, num_rows * sizeof(uint64_t));
      },
      num_rows);
}

Status CheckpointWriter::WriteColumnResolved(
    uint32_t table_id, uint32_t column_id, size_t num_rows,
    const std::function<uint64_t(size_t)>& read) {
  ANKER_CHECK(begun_);
  const std::string path =
      tmp_path_ + "/" + ColumnFileName(table_id, column_id);
  return WriteBlob(
      path, kColumnMagic,
      [&](int fd, uint32_t* crc) {
        constexpr size_t kChunkRows = 1 << 16;
        std::vector<uint64_t> chunk;
        chunk.reserve(std::min(num_rows, kChunkRows));
        for (size_t row = 0; row < num_rows;) {
          chunk.clear();
          const size_t end = std::min(num_rows, row + kChunkRows);
          for (; row < end; ++row) chunk.push_back(read(row));
          *crc = Crc32c(*crc, chunk.data(), chunk.size() * sizeof(uint64_t));
          ANKER_RETURN_IF_ERROR(
              WriteFully(fd, chunk.data(), chunk.size() * sizeof(uint64_t)));
        }
        return Status::OK();
      },
      num_rows);
}

Status CheckpointWriter::WriteColumnExtents(
    uint32_t table_id, uint32_t column_id,
    const std::vector<storage::SegmentExtentRef>& refs) {
  ANKER_CHECK(begun_);
  const std::string path =
      tmp_path_ + "/" + ColumnFileName(table_id, column_id);
  return WriteBlob(
      path, kColumnExtMagic,
      [&](int fd, uint32_t* crc) {
        std::string body;
        body.reserve(refs.size() * kExtentRefBytes);
        for (const storage::SegmentExtentRef& ref : refs) {
          PutU64(&body, ref.extent_id);
          PutU64(&body, ref.row_begin);
          PutU64(&body, ref.row_count);
          PutU32(&body, ref.crc);
          PutU32(&body, 0);  // pad: record stays 32 bytes, 8-aligned
        }
        *crc = Crc32c(0, body.data(), body.size());
        return WriteFully(fd, body.data(), body.size());
      },
      refs.size());
}

Status CheckpointWriter::WriteIndex(uint32_t table_id,
                                    const storage::HashIndex& index) {
  ANKER_CHECK(begun_);
  const std::string path = tmp_path_ + "/" + IndexFileName(table_id);
  return WriteBlob(
      path, kIndexMagic,
      [&](int fd, uint32_t* crc) {
        constexpr size_t kChunkEntries = 1 << 15;
        std::vector<uint64_t> chunk;
        Status s = Status::OK();
        index.ForEach([&](uint64_t key, uint64_t row) {
          if (!s.ok()) return;
          chunk.push_back(key);
          chunk.push_back(row);
          if (chunk.size() >= 2 * kChunkEntries) {
            *crc =
                Crc32c(*crc, chunk.data(), chunk.size() * sizeof(uint64_t));
            s = WriteFully(fd, chunk.data(),
                           chunk.size() * sizeof(uint64_t));
            chunk.clear();
          }
        });
        if (s.ok() && !chunk.empty()) {
          *crc = Crc32c(*crc, chunk.data(), chunk.size() * sizeof(uint64_t));
          s = WriteFully(fd, chunk.data(), chunk.size() * sizeof(uint64_t));
        }
        return s;
      },
      index.size());
}

Status CheckpointWriter::Finish(const CheckpointManifest& manifest) {
  ANKER_CHECK(begun_);
  std::string payload;
  EncodeManifest(manifest, &payload);
  std::string framed;
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  PutU32(&framed, MaskCrc(Crc32c(0, payload.data(), payload.size())));
  framed += payload;

  const std::string manifest_path = tmp_path_ + "/" + kManifestFileName;
  {
    const int fd =
        ::open(manifest_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
      return Status::IoError("cannot create " + manifest_path);
    }
    Status s = WriteFully(fd, framed.data(), framed.size());
    if (s.ok()) s = SyncFd(fd);
    ::close(fd);
    ANKER_RETURN_IF_ERROR(s);
  }
  ANKER_RETURN_IF_ERROR(SyncDir(tmp_path_));

  const std::string final_path = data_dir_ + "/" + dir_name_;
  FaultInjector::Instance().MaybeKill("ckpt.publish.pre");
  if (::rename(tmp_path_.c_str(), final_path.c_str()) != 0) {
    return Status::IoError("cannot publish checkpoint " + final_path);
  }
  ANKER_RETURN_IF_ERROR(SyncDir(data_dir_));

  // Point CURRENT at the new checkpoint; only now is it live.
  ANKER_RETURN_IF_ERROR(PublishCurrent(data_dir_, dir_name_));
  FaultInjector::Instance().MaybeKill("ckpt.publish.post");

  // Prune every other checkpoint (and stale temp directories).
  std::vector<std::string> names;
  ANKER_RETURN_IF_ERROR(ListDir(data_dir_, &names));
  for (const std::string& name : names) {
    if (name.rfind("ckpt-", 0) == 0 && name != dir_name_) {
      ANKER_RETURN_IF_ERROR(RemoveDirRecursive(data_dir_ + "/" + name));
    }
  }
  begun_ = false;
  return SyncDir(data_dir_);
}

void CheckpointWriter::Abort() {
  if (!begun_) return;
  RemoveDirRecursive(tmp_path_);
  begun_ = false;
}

Result<CheckpointManifest> CheckpointReader::ReadManifest(
    const std::string& data_dir, std::string* ckpt_path) {
  std::string current;
  const Status s = ReadFile(data_dir + "/" + kCurrentFileName, &current);
  if (s.IsNotFound()) {
    return Status::NotFound("no checkpoint in " + data_dir);
  }
  ANKER_RETURN_IF_ERROR(s);
  while (!current.empty() &&
         (current.back() == '\n' || current.back() == '\r')) {
    current.pop_back();
  }
  if (current.empty() || current.find('/') != std::string::npos) {
    return Status::IoError("corrupt CURRENT in " + data_dir);
  }
  const std::string path = data_dir + "/" + current;

  std::string framed;
  ANKER_RETURN_IF_ERROR(ReadFile(path + "/" + kManifestFileName, &framed));
  std::string_view in(framed);
  uint32_t len = 0, masked = 0;
  if (!GetU32(&in, &len) || !GetU32(&in, &masked) || in.size() != len) {
    return Status::IoError("corrupt checkpoint manifest frame: " + path);
  }
  if (Crc32c(0, in.data(), in.size()) != UnmaskCrc(masked)) {
    return Status::IoError("checkpoint manifest checksum mismatch: " + path);
  }
  CheckpointManifest manifest;
  ANKER_RETURN_IF_ERROR(DecodeManifest(in, &manifest));
  if (ckpt_path != nullptr) *ckpt_path = path;
  return manifest;
}

std::vector<std::string> CheckpointReader::FileNames(
    const CheckpointManifest& manifest) {
  std::vector<std::string> names = {kManifestFileName};
  for (uint32_t t = 0; t < manifest.tables.size(); ++t) {
    for (uint32_t c = 0; c < manifest.tables[t].schema.size(); ++c) {
      names.push_back(ColumnFileName(t, c));
    }
    if (manifest.tables[t].has_primary_index) {
      names.push_back(IndexFileName(t));
    }
  }
  return names;
}

Status CheckpointReader::LoadColumn(
    const std::string& ckpt_path, uint32_t table_id, uint32_t column_id,
    storage::Column* column, storage::ExtentStore* extents,
    std::vector<storage::SegmentExtentRef>* refs_out) {
  if (refs_out != nullptr) refs_out->clear();
  const std::string path =
      ckpt_path + "/" + ColumnFileName(table_id, column_id);
  std::string body;
  uint32_t magic = 0;
  uint64_t items = 0;
  ANKER_RETURN_IF_ERROR(ParseBlob(path, &magic, &items, &body));
  const size_t num_rows = column->num_rows();

  if (magic == kColumnMagic) {
    if (items != num_rows || body.size() != items * sizeof(uint64_t)) {
      return Status::IoError("checkpoint blob size mismatch: " + path);
    }
    for (size_t row = 0; row < num_rows; ++row) {
      uint64_t raw;
      std::memcpy(&raw, body.data() + row * sizeof(uint64_t),
                  sizeof(uint64_t));
      column->LoadValue(row, raw);
    }
    return Status::OK();
  }

  if (magic != kColumnExtMagic) {
    return Status::IoError("checkpoint blob header mismatch: " + path);
  }
  if (body.size() != items * kExtentRefBytes) {
    return Status::IoError("checkpoint blob size mismatch: " + path);
  }
  if (extents == nullptr) {
    return Status::IoError("extent-backed column " + path +
                           " but no extent store (data_dir misconfigured?)");
  }
  std::string_view in(body);
  uint64_t next_row = 0;
  std::vector<uint64_t> slots;
  for (uint64_t i = 0; i < items; ++i) {
    storage::SegmentExtentRef ref;
    uint32_t pad = 0;
    if (!GetU64(&in, &ref.extent_id) || !GetU64(&in, &ref.row_begin) ||
        !GetU64(&in, &ref.row_count) || !GetU32(&in, &ref.crc) ||
        !GetU32(&in, &pad) || pad != 0) {
      return Status::IoError("malformed extent reference in " + path);
    }
    // References must tile the column contiguously from row 0; anything
    // else means the file and the column disagree about geometry.
    if (ref.row_begin != next_row || ref.row_count == 0 ||
        ref.row_begin + ref.row_count > num_rows) {
      return Status::IoError("extent reference coverage gap in " + path);
    }
    next_row = ref.row_begin + ref.row_count;
    slots.clear();
    ANKER_RETURN_IF_ERROR(extents->Load(ref.extent_id, ref.crc,
                                        ref.row_count, &slots,
                                        &ref.file_bytes));
    for (uint64_t r = 0; r < ref.row_count; ++r) {
      column->LoadValue(ref.row_begin + r, slots[r]);
    }
    if (refs_out != nullptr) refs_out->push_back(ref);
  }
  if (next_row != num_rows) {
    return Status::IoError("extent reference coverage gap in " + path);
  }
  return Status::OK();
}

Status CheckpointReader::LoadIndex(const std::string& ckpt_path,
                                   uint32_t table_id,
                                   uint64_t expected_entries,
                                   storage::HashIndex* index) {
  std::string body;
  ANKER_RETURN_IF_ERROR(ReadBlob(ckpt_path + "/" + IndexFileName(table_id),
                                 kIndexMagic, expected_entries,
                                 2 * sizeof(uint64_t), &body));
  for (uint64_t i = 0; i < expected_entries; ++i) {
    uint64_t key, row;
    std::memcpy(&key, body.data() + i * 16, 8);
    std::memcpy(&row, body.data() + i * 16 + 8, 8);
    ANKER_RETURN_IF_ERROR(index->Insert(key, row));
  }
  return Status::OK();
}

}  // namespace anker::wal
