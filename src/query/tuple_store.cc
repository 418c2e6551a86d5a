#include "query/tuple_store.h"

#include <algorithm>
#include <cstring>

namespace anker::query {

TempTupleStore::TempTupleStore(size_t width, SpillArena* arena)
    : width_(width), arena_(arena) {
  ANKER_CHECK_MSG(width_ > 0, "tuple store needs at least one column");
}

TempTupleStore::~TempTupleStore() {
  for (Chunk& c : chunks_) {
    if (c.data != nullptr) arena_->Sub(chunk_bytes());
  }
  if (file_ != nullptr) std::fclose(file_);
}

Status TempTupleStore::EnsureTail() {
  if (!chunks_.empty() && tail_rows_ < kChunkRows) return Status::OK();
  // Current tail is complete: spill it first if over budget, then start
  // a fresh chunk.
  if (!chunks_.empty() && arena_->OverBudget()) {
    ANKER_RETURN_IF_ERROR(SpillChunk(&chunks_.back()));
  }
  chunks_.emplace_back();
  Chunk& c = chunks_.back();
  c.data = std::make_unique_for_overwrite<uint64_t[]>(width_ * kChunkRows);
  arena_->Add(chunk_bytes());
  tail_rows_ = 0;
  return Status::OK();
}

Status TempTupleStore::Append(const uint64_t* row) {
  ANKER_CHECK_MSG(!sealed_, "Append after Finish");
  ANKER_RETURN_IF_ERROR(EnsureTail());
  uint64_t* base = chunks_.back().data.get();
  for (size_t c = 0; c < width_; ++c) {
    base[c * kChunkRows + tail_rows_] = row[c];
  }
  ++tail_rows_;
  chunks_.back().rows = tail_rows_;
  ++rows_;
  return Status::OK();
}

Status TempTupleStore::AppendGather(const uint64_t* const* cols,
                                    const uint16_t* src, size_t r) {
  ANKER_CHECK_MSG(!sealed_, "Append after Finish");
  ANKER_RETURN_IF_ERROR(EnsureTail());
  uint64_t* base = chunks_.back().data.get();
  for (size_t c = 0; c < width_; ++c) {
    base[c * kChunkRows + tail_rows_] = cols[src[c]][r];
  }
  ++tail_rows_;
  chunks_.back().rows = tail_rows_;
  ++rows_;
  return Status::OK();
}

Status TempTupleStore::SpillChunk(Chunk* chunk) {
  if (chunk->data == nullptr) return Status::OK();  // Already spilled.
  if (file_ == nullptr) {
    file_ = std::tmpfile();
    if (file_ == nullptr) {
      return Status::IoError("cannot create spill file for tuple store");
    }
  }
  // Only the occupied prefix of each column is written; ReadSlice knows
  // the on-disk column stride is chunk->rows, not kChunkRows.
  const size_t bytes_per_col = chunk->rows * sizeof(uint64_t);
  chunk->file_offset = file_bytes_;
  if (std::fseek(file_, file_bytes_, SEEK_SET) != 0) {
    return Status::IoError("seek failed on tuple-store spill file");
  }
  for (size_t c = 0; c < width_; ++c) {
    const uint64_t* col = chunk->data.get() + c * kChunkRows;
    if (std::fwrite(col, 1, bytes_per_col, file_) != bytes_per_col) {
      return Status::IoError("short write to tuple-store spill file");
    }
  }
  file_bytes_ += static_cast<long>(width_ * bytes_per_col);
  arena_->Sub(chunk_bytes());
  arena_->spilled_chunks += 1;
  arena_->spilled_bytes += width_ * bytes_per_col;
  chunk->data.reset();
  return Status::OK();
}

Status TempTupleStore::Finish() {
  if (sealed_) return Status::OK();
  sealed_ = true;
  // A partially filled tail stays resident unless the arena is over
  // budget; completed stores are usually consumed immediately.
  if (!chunks_.empty() && arena_->OverBudget()) {
    ANKER_RETURN_IF_ERROR(SpillChunk(&chunks_.back()));
  }
  return Status::OK();
}

size_t TempTupleStore::chunk_rows(size_t chunk) const {
  ANKER_CHECK(chunk < chunks_.size());
  return chunks_[chunk].rows;
}

Status TempTupleStore::ReadSlice(size_t chunk, size_t row0, size_t n,
                                 uint64_t* dst) const {
  const Chunk& c = chunks_[chunk];
  ANKER_CHECK(row0 + n <= c.rows);
  if (c.data != nullptr) {
    for (size_t col = 0; col < width_; ++col) {
      std::memcpy(dst + col * n, c.data.get() + col * kChunkRows + row0,
                  n * sizeof(uint64_t));
    }
    return Status::OK();
  }
  // Spilled: column stride on disk is c.rows.
  for (size_t col = 0; col < width_; ++col) {
    const long off = c.file_offset +
                     static_cast<long>((col * c.rows + row0) *
                                       sizeof(uint64_t));
    if (std::fseek(file_, off, SEEK_SET) != 0) {
      return Status::IoError("seek failed on tuple-store spill file");
    }
    if (std::fread(dst + col * n, sizeof(uint64_t), n, file_) != n) {
      return Status::IoError("short read from tuple-store spill file");
    }
  }
  return Status::OK();
}

Status TempTupleStore::ForEachChunk(
    const std::function<Status(const uint64_t* const* cols,
                               size_t rows)>& fn) const {
  ANKER_CHECK_MSG(sealed_, "ForEachChunk before Finish");
  std::vector<const uint64_t*> col_ptrs(width_);
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    if (c.rows == 0) continue;
    if (c.data != nullptr) {
      for (size_t col = 0; col < width_; ++col) {
        col_ptrs[col] = c.data.get() + col * kChunkRows;
      }
      ANKER_RETURN_IF_ERROR(fn(col_ptrs.data(), c.rows));
    } else {
      scratch_.resize(width_ * c.rows);
      ANKER_RETURN_IF_ERROR(ReadSlice(i, 0, c.rows, scratch_.data()));
      for (size_t col = 0; col < width_; ++col) {
        col_ptrs[col] = scratch_.data() + col * c.rows;
      }
      ANKER_RETURN_IF_ERROR(fn(col_ptrs.data(), c.rows));
    }
  }
  return Status::OK();
}

TempTupleStore::SliceReader::SliceReader(const TempTupleStore* store,
                                         size_t chunk, size_t buffer_rows)
    : store_(store),
      chunk_(chunk),
      limit_(store->chunk_rows(chunk)),
      buffer_rows_(buffer_rows == 0 ? 1 : buffer_rows),
      col_ptrs_(store->width()) {}

Result<size_t> TempTupleStore::SliceReader::Next(
    const uint64_t* const** cols) {
  if (next_ >= limit_) return size_t{0};
  const size_t n = std::min(buffer_rows_, limit_ - next_);
  buffer_.resize(store_->width() * n);
  ANKER_RETURN_IF_ERROR(
      store_->ReadSlice(chunk_, next_, n, buffer_.data()));
  for (size_t col = 0; col < store_->width(); ++col) {
    col_ptrs_[col] = buffer_.data() + col * n;
  }
  next_ += n;
  *cols = col_ptrs_.data();
  return n;
}

}  // namespace anker::query
