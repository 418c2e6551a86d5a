#ifndef ANKER_STORAGE_EXTENT_H_
#define ANKER_STORAGE_EXTENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "storage/extent_codec.h"
#include "storage/value.h"

namespace anker::storage {

/// Identity of one published extent file as seen by segments and
/// checkpoints: enough to find the file, verify it byte-for-byte, and
/// account for its size without re-reading it.
struct PublishedExtent {
  uint64_t id = 0;
  uint32_t crc = 0;  ///< CRC32C over the whole frame file (unmasked).
  uint64_t file_bytes = 0;
  ExtentEncoding encoding = ExtentEncoding::kPlainU64;
};

/// Cold-tier counters, all monotonic over the store's lifetime. The
/// differential residency suite keys off `segment_fault_ins` to prove a
/// run actually crossed the cold tier; the bench emits the publish/reuse
/// byte counters.
struct ExtentTierCounters {
  uint64_t extents_published = 0;
  uint64_t publish_bytes = 0;   ///< Encoded bytes written to extent files.
  uint64_t extents_loaded = 0;  ///< Decode passes (fault-ins + recovery).
  uint64_t load_bytes = 0;
  uint64_t segments_evicted = 0;
  uint64_t evicted_bytes = 0;  ///< Raw slot bytes released to the cold tier.
  uint64_t segment_fault_ins = 0;
  uint64_t fault_in_bytes = 0;  ///< Raw slot bytes restored from extents.
  uint64_t files_pruned = 0;
  uint64_t tmp_pruned = 0;
};

/// Flat store of immutable extent files under `<data_dir>/extents/`, named
/// `ext-<id>.ext`. Publication follows the WAL/checkpoint discipline:
/// write to `ext-<id>.ext.tmp`, fsync, rename, fsync the directory — a
/// crash leaves either a complete published extent or a `.tmp` orphan that
/// Open() prunes. Files are immutable once published; superseded or
/// unreferenced ones are garbage-collected by Prune() against the keep-set
/// derived from the current checkpoint manifest plus live segments.
///
/// Thread safety: Publish and Load are safe to call concurrently. Prune
/// must be serialized against Publish by the caller (the engine runs both
/// under its cold-tier mutex / the checkpoint mutex), otherwise a file
/// published between the keep-set walk and the directory scan could be
/// deleted while referenced.
class ExtentStore {
 public:
  ANKER_DISALLOW_COPY_AND_MOVE(ExtentStore);

  /// Opens (creating if needed) the extent directory, removes orphaned
  /// `.tmp` files from a crashed publication, and seeds the id allocator
  /// past every file on disk.
  static Result<std::unique_ptr<ExtentStore>> Open(const std::string& dir);

  /// Encodes `row_count` slots and durably publishes them as a new extent
  /// file. Honors the `extent.publish.pre` / `extent.publish.post` fault
  /// points (kill or injected IO failure) on either side of the rename.
  Result<PublishedExtent> Publish(const uint64_t* slots, size_t row_count,
                                  ValueType type);

  /// Reads extent `id` back into `out` via a shared read-only mapping,
  /// verifying the whole-file CRC and the advertised row count against the
  /// caller's expectation before any byte is trusted. `file_bytes`, when
  /// non-null, receives the on-disk frame size.
  Status Load(uint64_t id, uint32_t expected_crc, uint64_t expected_rows,
              std::vector<uint64_t>* out, uint64_t* file_bytes = nullptr);

  /// Deletes every published extent whose id is not in `keep`, plus any
  /// stray `.tmp`. Best-effort: individual unlink failures are skipped.
  Status Prune(const std::unordered_set<uint64_t>& keep);

  /// Raises the id allocator to at least `next_id` (recovery replays the
  /// manifest's allocator watermark so restarts never reuse an id).
  void NoteNextId(uint64_t next_id);
  uint64_t next_id() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  /// `<data_dir>/extents`: where a database keeps its extent files.
  static std::string DirIn(const std::string& data_dir);
  /// Name of extent `id`'s file inside the store directory.
  static std::string FileName(uint64_t id);
  std::string ExtentPath(uint64_t id) const;
  const std::string& dir() const { return dir_; }

  /// Coarse LRU clock for coldest-first eviction: bumped once per OLAP
  /// acquisition / enforcement pass, sampled by segment touches.
  uint64_t AdvanceClock() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t clock_now() const {
    return clock_.load(std::memory_order_relaxed);
  }

  /// Counter hooks for ColumnSegments (evictions and fault-ins happen at
  /// the segment layer but are reported centrally).
  void RecordEviction(uint64_t raw_bytes) {
    segments_evicted_.fetch_add(1, std::memory_order_relaxed);
    evicted_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  }
  void RecordFaultIn(uint64_t raw_bytes) {
    segment_fault_ins_.fetch_add(1, std::memory_order_relaxed);
    fault_in_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  }

  ExtentTierCounters counters() const;

 private:
  explicit ExtentStore(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> clock_{0};

  std::atomic<uint64_t> extents_published_{0};
  std::atomic<uint64_t> publish_bytes_{0};
  std::atomic<uint64_t> extents_loaded_{0};
  std::atomic<uint64_t> load_bytes_{0};
  std::atomic<uint64_t> segments_evicted_{0};
  std::atomic<uint64_t> evicted_bytes_{0};
  std::atomic<uint64_t> segment_fault_ins_{0};
  std::atomic<uint64_t> fault_in_bytes_{0};
  std::atomic<uint64_t> files_pruned_{0};
  std::atomic<uint64_t> tmp_pruned_{0};
};

}  // namespace anker::storage

#endif  // ANKER_STORAGE_EXTENT_H_
