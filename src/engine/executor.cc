#include "engine/executor.h"

#include "storage/value.h"

namespace anker::engine {

ColumnReader ColumnReader::ForSnapshot(const storage::ColumnSnapshot& snap,
                                       size_t num_rows) {
  return ColumnReader(snap.view->data(), snap.chains.get(), snap.epoch_ts,
                      num_rows, /*allows_ts_skip=*/true);
}

ColumnReader ColumnReader::ForLive(const storage::Column* column,
                                   mvcc::Timestamp read_ts) {
  return ColumnReader(column->raw_data(),
                      column->versions()->current_raw(), read_ts,
                      column->num_rows(), /*allows_ts_skip=*/false);
}

uint64_t ColumnReader::ResolveChain(size_t row, uint64_t slot) const {
  uint64_t candidate = slot;
  const mvcc::ChainDirectory* dir = dir_;
  while (dir != nullptr) {
    // Node payloads are read through the TSAN-annotated accessors: a
    // commit may recycle-and-rewrite a node this walk still holds (see
    // StoreNodePayload in ChainDirectory::AddVersion); the caller's
    // seqlock validation rejects the block if that happened.
    for (const mvcc::VersionNode* node = dir->Head(row); node != nullptr;
         node = mvcc::LoadNext(node)) {
      if (mvcc::LoadNodeTs(node) <= read_ts_) return candidate;
      candidate = mvcc::LoadNodeValue(node);
    }
    if (read_ts_ >= dir->prev_seal_ts()) return candidate;
    const mvcc::ChainDirectory* prev = dir->prev_raw();
    if (prev == nullptr) return candidate;
    dir = prev;
  }
  return candidate;
}

ScanDriver::ScanDriver(std::vector<const ColumnReader*> readers)
    : readers_(std::move(readers)) {
  ANKER_CHECK(!readers_.empty());
  num_rows_ = readers_[0]->num_rows();
  raw_bases_.reserve(readers_.size());
  for (const ColumnReader* reader : readers_) {
    ANKER_CHECK(reader->num_rows() == num_rows_);
    raw_bases_.push_back(reader->raw_base());
  }
  // A reader older than the previous epoch's seal may need versions from
  // older chain segments, which the per-block metadata of the current
  // segment knows nothing about: such readers must resolve every row.
  needs_prev_.resize(readers_.size());
  for (size_t i = 0; i < readers_.size(); ++i) {
    const ColumnReader& reader = *readers_[i];
    needs_prev_[i] = reader.versioned() &&
                     reader.read_ts() < reader.dir()->prev_seal_ts();
  }
}

ScanDriver::BlockMode ScanDriver::ClassifyBlock(
    size_t block, BlockScratch* scratch) const {
  const size_t begin = block * mvcc::kRowsPerBlock;
  bool any_relevant = false;
  bool write_in_progress = false;
  bool any_needs_prev = false;
  for (size_t i = 0; i < readers_.size(); ++i) {
    const ColumnReader& reader = *readers_[i];
    if (!reader.versioned()) {
      scratch->seqs[i] = 0;
      scratch->hint_first[i] = SIZE_MAX;
      scratch->hint_last[i] = 0;
      continue;
    }
    if (needs_prev_[i]) any_needs_prev = true;
    const mvcc::BlockInfo info = reader.dir()->GetBlockInfo(block);
    scratch->seqs[i] = info.seq;
    if ((info.seq & 1) != 0) write_in_progress = true;
    // Snapshot readers may prove a block version-free from its newest
    // version timestamp (the common case: handed-over chains predate the
    // epoch) and scan it tight; live readers must check per row inside the
    // versioned range, like the homogeneous baseline the paper measures.
    const bool relevant =
        info.has_versions &&
        (!reader.allows_ts_skip() || info.max_ts > reader.read_ts());
    if (relevant) {
      any_relevant = true;
      scratch->hint_first[i] = begin + info.first_versioned;
      scratch->hint_last[i] = begin + info.last_versioned;
    } else {
      scratch->hint_first[i] = SIZE_MAX;
      scratch->hint_last[i] = 0;
    }
  }
  if (write_in_progress || any_needs_prev) return BlockMode::kSafe;
  return any_relevant ? BlockMode::kHinted : BlockMode::kTight;
}

bool ScanDriver::BlockStable(size_t block,
                             const std::vector<uint64_t>& seqs) const {
  for (size_t i = 0; i < readers_.size(); ++i) {
    const ColumnReader& reader = *readers_[i];
    if (!reader.versioned()) continue;
    if (reader.dir()->GetBlockInfo(block).seq != seqs[i]) return false;
  }
  return true;
}

const uint64_t* ScanDriver::StageHinted(size_t i, size_t begin, size_t end,
                                        const BlockScratch& scratch,
                                        uint64_t* stage) const {
  const size_t first = scratch.hint_first[i];
  const size_t last = scratch.hint_last[i];
  const uint64_t* raw = raw_bases_[i];
  if (first == SIZE_MAX) {
#ifdef ANKER_TSAN
    // Kernels read spans with plain loads; stage via relaxed atomics.
    for (size_t r = begin; r < end; ++r) {
      stage[r - begin] = RawSlotLoad(raw + r);
    }
    return stage;
#else
    // No relevant versions in this block for this reader: expose the raw
    // span directly, no copy.
    return raw + begin;
#endif
  }
  const ColumnReader& reader = *readers_[i];
  const size_t resolve_begin = std::max(begin, first);
  const size_t resolve_end = std::min(end, last + 1);
  for (size_t r = begin; r < resolve_begin; ++r) {
    stage[r - begin] = RawSlotLoad(raw + r);
  }
  for (size_t r = resolve_begin; r < resolve_end; ++r) {
    stage[r - begin] = reader.Get(r);
  }
  for (size_t r = resolve_end; r < end; ++r) {
    stage[r - begin] = RawSlotLoad(raw + r);
  }
  return stage;
}

const uint64_t* ScanDriver::StageSafe(size_t i, size_t begin, size_t end,
                                      uint64_t* stage) const {
  const ColumnReader& reader = *readers_[i];
  for (size_t r = begin; r < end; ++r) stage[r - begin] = reader.Get(r);
  return stage;
}

double ScanColumnSum(const ColumnReader& reader, bool as_double,
                     ScanStats* stats, const ScanOptions& options) {
  ScanDriver driver({&reader});
  double total = 0.0;
  driver.FoldBlockwise<double>(
      &total,
      [as_double](double& acc, const ScanBlock& block) {
        for (size_t r = 0; r < block.rows; ++r) {
          const uint64_t raw = block.cols[0][r];
          acc += as_double ? storage::DecodeDouble(raw)
                           : static_cast<double>(storage::DecodeInt64(raw));
        }
      },
      [](double& total_acc, double&& local) { total_acc += local; }, stats,
      options);
  return total;
}

}  // namespace anker::engine
