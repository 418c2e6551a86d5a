#include "storage/extent.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/fault_injector.h"
#include "vm/map_region.h"
#include "wal/crc32c.h"
#include "wal/io_util.h"

namespace anker::storage {

namespace {

constexpr char kExtentPrefix[] = "ext-";
constexpr char kExtentSuffix[] = ".ext";
constexpr char kTmpSuffix[] = ".tmp";

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Parses "ext-<id>.ext" into `id`; false for anything else.
bool ParseExtentName(const std::string& name, uint64_t* id) {
  uint64_t parsed = 0;
  // The round trip rejects trailing bytes and "ext-007.ext" style aliases.
  if (std::sscanf(name.c_str(), "ext-%" SCNu64, &parsed) != 1 ||
      ExtentStore::FileName(parsed) != name) {
    return false;
  }
  *id = parsed;
  return true;
}

}  // namespace

Result<std::unique_ptr<ExtentStore>> ExtentStore::Open(
    const std::string& dir) {
  ANKER_RETURN_IF_ERROR(wal::EnsureDir(dir));
  std::unique_ptr<ExtentStore> store(new ExtentStore(dir));

  std::vector<std::string> names;
  ANKER_RETURN_IF_ERROR(wal::ListDir(dir, &names));
  bool removed_tmp = false;
  uint64_t max_id = 0;
  for (const std::string& name : names) {
    if (EndsWith(name, kTmpSuffix)) {
      // A crash between write and rename leaves a .tmp orphan; it was
      // never referenced by anything durable, so drop it.
      ANKER_RETURN_IF_ERROR(wal::RemoveFile(dir + "/" + name));
      store->tmp_pruned_.fetch_add(1, std::memory_order_relaxed);
      removed_tmp = true;
      continue;
    }
    uint64_t id = 0;
    if (ParseExtentName(name, &id)) max_id = std::max(max_id, id);
  }
  if (removed_tmp) ANKER_RETURN_IF_ERROR(wal::SyncDir(dir));
  store->next_id_.store(max_id + 1, std::memory_order_relaxed);
  return store;
}

std::string ExtentStore::DirIn(const std::string& data_dir) {
  return data_dir + "/extents";
}

std::string ExtentStore::FileName(uint64_t id) {
  return kExtentPrefix + std::to_string(id) + kExtentSuffix;
}

std::string ExtentStore::ExtentPath(uint64_t id) const {
  return dir_ + "/" + FileName(id);
}

void ExtentStore::NoteNextId(uint64_t next_id) {
  uint64_t cur = next_id_.load(std::memory_order_relaxed);
  while (cur < next_id &&
         !next_id_.compare_exchange_weak(cur, next_id,
                                         std::memory_order_relaxed)) {
  }
}

Result<PublishedExtent> ExtentStore::Publish(const uint64_t* slots,
                                             size_t row_count,
                                             ValueType type) {
  PublishedExtent out;
  out.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = EncodeExtent(slots, row_count, type,
                                         &out.encoding);
  out.crc = wal::Crc32c(0, frame.data(), frame.size());
  out.file_bytes = frame.size();

  const std::string final_path = ExtentPath(out.id);
  const std::string tmp_path = final_path + kTmpSuffix;
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("open " + tmp_path + ": " +
                           std::strerror(errno));
  }
  Status s = wal::WriteFully(fd, frame.data(), frame.size());
  if (s.ok()) s = wal::SyncFd(fd);
  ::close(fd);
  FaultInjector& faults = FaultInjector::Instance();
  if (s.ok() && faults.armed() && faults.ShouldFail("extent.publish.pre")) {
    s = Status::IoError("injected failure at extent.publish.pre");
  }
  if (!s.ok()) {
    wal::RemoveFile(tmp_path);
    return s;
  }
  // Kill point before the rename: the durable state still has only the
  // .tmp file, which recovery prunes — the extent never existed.
  faults.MaybeKill("extent.publish.pre");
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    s = Status::IoError("rename " + tmp_path + ": " + std::strerror(errno));
    wal::RemoveFile(tmp_path);
    return s;
  }
  ANKER_RETURN_IF_ERROR(wal::SyncDir(dir_));
  // Kill point after the rename: the extent file is durable but nothing
  // references it yet — recovery prunes it as unreferenced garbage.
  faults.MaybeKill("extent.publish.post");

  extents_published_.fetch_add(1, std::memory_order_relaxed);
  publish_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  return out;
}

Status ExtentStore::Load(uint64_t id, uint32_t expected_crc,
                         uint64_t expected_rows,
                         std::vector<uint64_t>* out, uint64_t* file_bytes) {
  const std::string path = ExtentPath(id);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IoError("fstat " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  // Map the file read-only instead of read()ing it: cold scans stream
  // straight out of the page cache and the decode pass is the only copy.
  auto region = vm::MapRegion::MapSharedFile(fd, size, 0, PROT_READ);
  ::close(fd);
  if (!region.ok()) return region.status();
  const vm::MapRegion& map = region.value();
  const std::string_view frame(reinterpret_cast<const char*>(map.data()),
                               size);

  if (wal::Crc32c(0, frame.data(), frame.size()) != expected_crc) {
    return Status::IoError("extent " + std::to_string(id) +
                           ": file checksum mismatch");
  }
  ANKER_RETURN_IF_ERROR(DecodeExtent(frame, out));
  if (out->size() != expected_rows) {
    return Status::IoError("extent " + std::to_string(id) +
                           ": row count mismatch");
  }
  if (file_bytes != nullptr) *file_bytes = size;
  extents_loaded_.fetch_add(1, std::memory_order_relaxed);
  load_bytes_.fetch_add(size, std::memory_order_relaxed);
  return Status::OK();
}

Status ExtentStore::Prune(const std::unordered_set<uint64_t>& keep) {
  std::vector<std::string> names;
  ANKER_RETURN_IF_ERROR(wal::ListDir(dir_, &names));
  bool removed = false;
  for (const std::string& name : names) {
    if (EndsWith(name, kTmpSuffix)) {
      if (wal::RemoveFile(dir_ + "/" + name).ok()) {
        tmp_pruned_.fetch_add(1, std::memory_order_relaxed);
        removed = true;
      }
      continue;
    }
    uint64_t id = 0;
    if (!ParseExtentName(name, &id) || keep.count(id) != 0) continue;
    if (wal::RemoveFile(dir_ + "/" + name).ok()) {
      files_pruned_.fetch_add(1, std::memory_order_relaxed);
      removed = true;
    }
  }
  if (removed) ANKER_RETURN_IF_ERROR(wal::SyncDir(dir_));
  return Status::OK();
}

ExtentTierCounters ExtentStore::counters() const {
  ExtentTierCounters c;
  c.extents_published = extents_published_.load(std::memory_order_relaxed);
  c.publish_bytes = publish_bytes_.load(std::memory_order_relaxed);
  c.extents_loaded = extents_loaded_.load(std::memory_order_relaxed);
  c.load_bytes = load_bytes_.load(std::memory_order_relaxed);
  c.segments_evicted = segments_evicted_.load(std::memory_order_relaxed);
  c.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  c.segment_fault_ins =
      segment_fault_ins_.load(std::memory_order_relaxed);
  c.fault_in_bytes = fault_in_bytes_.load(std::memory_order_relaxed);
  c.files_pruned = files_pruned_.load(std::memory_order_relaxed);
  c.tmp_pruned = tmp_pruned_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace anker::storage
