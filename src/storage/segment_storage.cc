#include "storage/segment_storage.h"

#include <cstring>

namespace anker::storage {

namespace {

bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

unsigned ShiftFor(size_t v) {
  return static_cast<unsigned>(__builtin_ctzll(v));
}

}  // namespace

ColumnSegments::ColumnSegments(snapshot::SnapshotableBuffer* buffer,
                               mvcc::VersionStore* versions, Latch* latch,
                               size_t num_rows, size_t segment_rows,
                               ValueType type, ExtentStore* store,
                               std::string desc)
    : buffer_(buffer),
      versions_(versions),
      latch_(latch),
      num_rows_(num_rows),
      segment_shift_(ShiftFor(segment_rows)),
      type_(type),
      store_(store),
      desc_(std::move(desc)) {
  ANKER_CHECK_MSG(IsPowerOfTwo(segment_rows) && segment_rows >= 1024,
                  "cold_segment_rows must be a power of two >= 1024");
  ANKER_CHECK(segment_rows <= kMaxExtentRows);
  const size_t count = (num_rows + segment_rows - 1) / segment_rows;
  segments_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto seg = std::make_unique<Segment>();
    seg->row_begin = i * segment_rows;
    seg->row_count = std::min(segment_rows, num_rows - seg->row_begin);
    segments_.push_back(std::move(seg));
  }
}

bool ColumnSegments::TryReadFast(const Segment& seg, size_t row,
                                 uint64_t* out) const {
  const uint64_t g = seg.gen.load(std::memory_order_acquire);
  if ((g & 1) != 0) return false;
  if (seg.state.load(std::memory_order_acquire) != kResident) return false;
  // LoadU64 is an acquire load, so the gen re-check below cannot be
  // reordered before it: a read that overlapped an eviction's page
  // release is reliably detected and discarded.
  const uint64_t value = buffer_->LoadU64(row * sizeof(uint64_t));
  if (seg.gen.load(std::memory_order_acquire) != g) return false;
  *out = value;
  return true;
}

uint64_t ColumnSegments::Read(size_t row) {
  Segment& seg = SegmentFor(row);
  uint64_t value = 0;
  if (TryReadFast(seg, row, &value)) {
    Touch(seg);
    return value;
  }
  // Retry under the segment lock: the seqlock may have failed only
  // because an eviction was mid-release.
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    if (seg.state.load(std::memory_order_relaxed) == kResident) {
      Touch(seg);
      return buffer_->LoadU64(row * sizeof(uint64_t));
    }
  }
  // Cold: fault the segment in under the column's exclusive latch. The
  // restore stores through WriteSpan, which must not race a committer's
  // stores (committers hold the latch shared). The segment
  // lock is NOT held while acquiring the latch — a committer blocked on
  // seg.mu while we waited for its latch would deadlock otherwise.
  ExclusiveGuard guard(*latch_);
  std::lock_guard<std::mutex> lock(seg.mu);
  if (seg.state.load(std::memory_order_relaxed) != kResident) {
    const Status s = FaultInLocked(seg);
    ANKER_CHECK_MSG(s.ok(), "cold segment fault-in failed");
  }
  Touch(seg);
  return buffer_->LoadU64(row * sizeof(uint64_t));
}

std::unique_lock<std::mutex> ColumnSegments::BeginWrite(size_t row) {
  Segment& seg = SegmentFor(row);
  std::unique_lock<std::mutex> lock(seg.mu);
  if (seg.state.load(std::memory_order_relaxed) != kResident) {
    // Write-side fault-in runs in contexts that already serialize stores
    // (commit critical section or quiesced load), so no latch upgrade is
    // needed here.
    const Status s = FaultInLocked(seg);
    ANKER_CHECK_MSG(s.ok(), "cold segment fault-in failed on write");
  }
  seg.dirty_gen.fetch_add(1, std::memory_order_relaxed);
  Touch(seg);
  return lock;
}

Status ColumnSegments::FaultInLocked(Segment& seg) {
  ANKER_CHECK_MSG(seg.extent_id != 0 &&
                      seg.published_gen ==
                          seg.dirty_gen.load(std::memory_order_relaxed),
                  "cold segment without a current extent");
  std::vector<uint64_t> slots;
  ANKER_RETURN_IF_ERROR(store_->Load(seg.extent_id, seg.extent_crc,
                                     seg.row_count, &slots));
  buffer_->WriteSpan(seg.row_begin * sizeof(uint64_t), slots.data(),
                     slots.size() * sizeof(uint64_t));
  // Restoring does not advance dirty_gen: the logical content is exactly
  // the published extent, so incremental checkpoints keep re-referencing
  // it across fault-ins.
  seg.state.store(kResident, std::memory_order_release);
  store_->RecordFaultIn(seg.row_count * sizeof(uint64_t));
  return Status::OK();
}

Result<std::shared_ptr<void>> ColumnSegments::PinResidentLocked() {
  pins_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& seg_ptr : segments_) {
    Segment& seg = *seg_ptr;
    std::lock_guard<std::mutex> lock(seg.mu);
    if (seg.state.load(std::memory_order_relaxed) != kResident) {
      const Status s = FaultInLocked(seg);
      if (!s.ok()) {
        pins_.fetch_sub(1, std::memory_order_release);
        return s;
      }
    }
    Touch(seg);
  }
  std::atomic<uint64_t>* pins = &pins_;
  return std::shared_ptr<void>(static_cast<void*>(this),
                               [pins](void*) {
                                 pins->fetch_sub(
                                     1, std::memory_order_release);
                               });
}

void ColumnSegments::CollectSpillCandidates(
    std::vector<SpillCandidate>* out) const {
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = *segments_[i];
    if (seg.state.load(std::memory_order_acquire) != kResident) continue;
    SpillCandidate c;
    c.segment = i;
    c.last_access = seg.last_access.load(std::memory_order_relaxed);
    c.bytes = seg.row_count * sizeof(uint64_t);
    out->push_back(c);
  }
}

Result<bool> ColumnSegments::TrySpill(size_t segment) {
  ANKER_CHECK(segment < segments_.size());
  Segment& seg = *segments_[segment];
  if (pins_.load(std::memory_order_acquire) > 0) return false;
  if (seg.state.load(std::memory_order_acquire) != kResident) return false;

  // Phase A: make sure a current extent exists. Bytes are captured under
  // the segment lock (excluding writers to this segment only) and tagged
  // with the dirty generation; the durable publish happens outside every
  // lock and is discarded if a write slipped in meanwhile.
  uint64_t captured_gen = 0;
  std::vector<uint64_t> slots;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    if (seg.state.load(std::memory_order_relaxed) != kResident) {
      return false;
    }
    captured_gen = seg.dirty_gen.load(std::memory_order_relaxed);
    if (seg.published_gen != captured_gen) {
      slots.resize(seg.row_count);
      std::memcpy(slots.data(),
                  buffer_->data() + seg.row_begin * sizeof(uint64_t),
                  seg.row_count * sizeof(uint64_t));
    }
  }
  if (!slots.empty()) {
    auto published = store_->Publish(slots.data(), slots.size(), type_);
    if (!published.ok()) return published.status();
    std::lock_guard<std::mutex> lock(seg.mu);
    if (seg.dirty_gen.load(std::memory_order_relaxed) != captured_gen) {
      // A write intervened; the fresh extent is unreferenced garbage the
      // next checkpoint prune collects.
      return false;
    }
    seg.published_gen = captured_gen;
    seg.extent_id = published.value().id;
    seg.extent_crc = published.value().crc;
    seg.extent_bytes = published.value().file_bytes;
  }

  // Phase B: release the buffer range under the column's exclusive latch
  // — it drains committers (ReleaseRange mutates dirty bitmaps that
  // writers also touch) and makes the version-chain walk safe.
  ExclusiveGuard guard(*latch_);
  std::lock_guard<std::mutex> lock(seg.mu);
  if (pins_.load(std::memory_order_relaxed) > 0) return false;
  if (seg.state.load(std::memory_order_relaxed) != kResident) return false;
  if (seg.published_gen != seg.dirty_gen.load(std::memory_order_relaxed)) {
    return false;
  }
  // Only version-free rows may go cold: a cold read restores the newest
  // committed slots, and any reader needing an older version would have
  // nothing to resolve against.
  if (versions_->HasVersionsInRange(seg.row_begin,
                                    seg.row_begin + seg.row_count)) {
    return false;
  }
  seg.gen.fetch_add(1, std::memory_order_release);  // Odd: readers bail.
  const Status released = buffer_->ReleaseRange(
      seg.row_begin * sizeof(uint64_t), seg.row_count * sizeof(uint64_t));
  if (released.ok()) {
    seg.state.store(kCold, std::memory_order_release);
  }
  seg.gen.fetch_add(1, std::memory_order_release);
  if (!released.ok()) return released;
  store_->RecordEviction(seg.row_count * sizeof(uint64_t));
  return true;
}

void ColumnSegments::SampleDirtyGens(std::vector<uint64_t>* out) const {
  out->clear();
  out->reserve(segments_.size());
  for (const auto& seg_ptr : segments_) {
    out->push_back(seg_ptr->dirty_gen.load(std::memory_order_relaxed));
  }
}

Result<std::vector<SegmentExtentRef>> ColumnSegments::CollectCheckpointRefs(
    const uint64_t* image, const std::vector<uint64_t>& image_gens) {
  ANKER_CHECK(image != nullptr && image_gens.size() == segments_.size());
  std::vector<SegmentExtentRef> refs;
  refs.reserve(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = *segments_[i];
    const uint64_t image_gen = image_gens[i];
    SegmentExtentRef ref;
    ref.row_begin = seg.row_begin;
    ref.row_count = seg.row_count;

    {
      std::lock_guard<std::mutex> lock(seg.mu);
      if (seg.published_gen == image_gen) {
        // The published extent was captured at exactly the image's
        // content version — same generation, same bytes. Re-reference.
        ref.extent_id = seg.extent_id;
        ref.crc = seg.extent_crc;
        ref.file_bytes = seg.extent_bytes;
        ref.reused = true;
        refs.push_back(ref);
        continue;
      }
    }
    // Encode from the (immutable) image — no lock needed — and publish
    // outside every lock.
    auto published =
        store_->Publish(image + seg.row_begin, seg.row_count, type_);
    if (!published.ok()) return published.status();
    {
      // The extent is the segment's content at image_gen; record that
      // unconditionally. If no write landed since the seal the extent is
      // current (published_gen == dirty_gen) and a later spill evicts
      // without republishing; otherwise it is stale and the currency
      // check handles it. No concurrent publisher can race this: spills
      // hold the engine's cold mutex and checkpoints are serialized.
      std::lock_guard<std::mutex> lock(seg.mu);
      seg.published_gen = image_gen;
      seg.extent_id = published.value().id;
      seg.extent_crc = published.value().crc;
      seg.extent_bytes = published.value().file_bytes;
    }
    ref.extent_id = published.value().id;
    ref.crc = published.value().crc;
    ref.file_bytes = published.value().file_bytes;
    ref.reused = false;
    refs.push_back(ref);
  }
  return refs;
}

void ColumnSegments::NoteRecoveredExtent(const SegmentExtentRef& ref) {
  if (ref.row_begin + ref.row_count > num_rows_) return;
  const size_t index = ref.row_begin >> segment_shift_;
  if (index >= segments_.size()) return;
  Segment& seg = *segments_[index];
  if (seg.row_begin != ref.row_begin || seg.row_count != ref.row_count) {
    // Segment geometry changed across restarts; the rows are loaded, the
    // ref just cannot be reused. The next checkpoint re-publishes.
    return;
  }
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.published_gen = seg.dirty_gen.load(std::memory_order_relaxed);
  seg.extent_id = ref.extent_id;
  seg.extent_crc = ref.crc;
  seg.extent_bytes = ref.file_bytes;
}

void ColumnSegments::AppendLiveExtents(
    std::unordered_set<uint64_t>* keep) const {
  for (const auto& seg_ptr : segments_) {
    const Segment& seg = *seg_ptr;
    std::lock_guard<std::mutex> lock(seg.mu);
    if (seg.extent_id != 0) keep->insert(seg.extent_id);
  }
}

uint64_t ColumnSegments::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& seg_ptr : segments_) {
    if (seg_ptr->state.load(std::memory_order_acquire) == kResident) {
      total += seg_ptr->row_count * sizeof(uint64_t);
    }
  }
  return total;
}

uint64_t ColumnSegments::cold_bytes() const {
  uint64_t total = 0;
  for (const auto& seg_ptr : segments_) {
    if (seg_ptr->state.load(std::memory_order_acquire) == kCold) {
      total += seg_ptr->row_count * sizeof(uint64_t);
    }
  }
  return total;
}

}  // namespace anker::storage
