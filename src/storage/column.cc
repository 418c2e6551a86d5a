#include "storage/column.h"

namespace anker::storage {

Column::Column(std::string name, ValueType type,
               std::unique_ptr<snapshot::SnapshotableBuffer> buffer,
               size_t num_rows)
    : name_(std::move(name)),
      type_(type),
      buffer_(std::move(buffer)),
      versions_(std::make_unique<mvcc::VersionStore>(num_rows)),
      num_rows_(num_rows) {
  ANKER_CHECK(buffer_->size() >= num_rows_ * sizeof(uint64_t));
}

void Column::EnableTiering(ExtentStore* store, size_t segment_rows) {
  ANKER_CHECK(segments_ == nullptr);
  segments_ = std::make_unique<ColumnSegments>(
      buffer_.get(), versions_.get(), &latch_, num_rows_, segment_rows,
      type_, store, name_);
}

void Column::LoadValue(size_t row, uint64_t raw) {
  ANKER_CHECK(row < num_rows_);
  std::unique_lock<std::mutex> segment_lock;
  if (segments_ != nullptr) segment_lock = segments_->BeginWrite(row);
  buffer_->StoreU64(row * sizeof(uint64_t), raw);
}

uint64_t Column::ApplyCommittedWrite(size_t row, uint64_t new_raw,
                                     mvcc::Timestamp commit_ts) {
  ANKER_CHECK(row < num_rows_);
  // BeginWrite faults the segment in when cold and holds the segment
  // lock across the slot store, so extent captures never see a torn
  // write. The old value is read only after residency is ensured.
  std::unique_lock<std::mutex> segment_lock;
  if (segments_ != nullptr) segment_lock = segments_->BeginWrite(row);
  const uint64_t old_raw = buffer_->LoadU64(row * sizeof(uint64_t));
  // Publication order: chain node first, slot second. A reader that
  // observes the new slot value is then guaranteed to observe the node
  // carrying the old one (both stores are release, loads acquire).
  versions_->AddVersion(row, old_raw, commit_ts);
  buffer_->StoreU64(row * sizeof(uint64_t), new_raw);
  return old_raw;
}

Result<ColumnSnapshot> Column::MaterializeSnapshot(
    mvcc::Timestamp epoch_ts, mvcc::Timestamp seal_ts,
    mvcc::Timestamp min_active_ts) {
  // A chain segment cut below is freed only after the guard is released:
  // freeing its blocks and arena must not keep committers waiting.
  std::shared_ptr<mvcc::ChainDirectory> dropped;
  // Exclusive latch: drains and blocks updaters for the duration of the
  // snapshot (paper Section 2.2.3).
  ExclusiveGuard guard(latch_);

  ColumnSnapshot snap;
  snap.epoch_ts = epoch_ts;
  snap.seal_ts = seal_ts;

  // Cold segments must be restored before the snapshot view is taken
  // (the view is an image of the live buffer), and stay pinned for the
  // snapshot's lifetime so eviction cannot zero pages under its scans.
  if (segments_ != nullptr) {
    auto lease = segments_->PinResidentLocked();
    if (!lease.ok()) return lease.status();
    snap.residency_lease = lease.TakeValue();
    // Sampled under the same exclusive latch that freezes updaters: the
    // gens identify exactly the content the view below will capture.
    segments_->SampleDirtyGens(&snap.segment_gens);
  }

  auto view = buffer_->TakeSnapshot();
  if (!view.ok()) return view.status();
  snap.view = view.TakeValue();

  std::shared_ptr<mvcc::ChainDirectory> sealed =
      versions_->SealEpoch(seal_ts);
  // Hand the chains over only if the segment actually carries versions;
  // a clean snapshot scans with zero per-row overhead.
  if (sealed->TotalVersions() > 0) {
    snap.chains = sealed;
  }
  // If no in-flight transaction is older than the sealed segment, the live
  // column never needs to descend into it (or anything older): cut the
  // link so retiring the snapshot really frees the chains.
  if (min_active_ts >= sealed->seal_ts()) {
    dropped = versions_->current()->DropPrev();
  } else if (sealed->prev() != nullptr &&
             min_active_ts >= sealed->prev()->seal_ts()) {
    dropped = sealed->DropPrev();
  }
  return snap;
}

Result<std::shared_ptr<void>> Column::PinResident() {
  if (segments_ == nullptr) return std::shared_ptr<void>();
  // Exclusive latch: the pin's fault-ins restore bytes through WriteSpan,
  // whose dirty tracking requires committers drained.
  ExclusiveGuard guard(latch_);
  return segments_->PinResidentLocked();
}

}  // namespace anker::storage
