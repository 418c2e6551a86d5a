#ifndef ANKER_QUERY_TUPLE_STORE_H_
#define ANKER_QUERY_TUPLE_STORE_H_

// Spill-capable intermediate tuple storage for the operator DAG
// (query/dag.h). A TempTupleStore holds fixed-width rows of raw 8-byte
// slot values in column-major chunks, so downstream operators evaluate
// expressions over chunk spans with the exact same scalar interpreter the
// scan kernels use (plan.h's EvalScalar over `const uint64_t* const*`).
//
// Memory is governed by a per-execution SpillArena: once the arena's
// budget is exceeded, completed chunks are flushed to an anonymous
// temporary file and reloaded chunk-at-a-time (or slice-at-a-time for
// merge phases), which keeps multi-join pipelines within bounded memory.
// Spilling never changes results: chunk order and intra-chunk row order
// are preserved exactly.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace anker::query {

/// Per-execution memory budget shared by every store of one query run.
/// Not thread-safe: the DAG executor materializes stages sequentially.
class SpillArena {
 public:
  explicit SpillArena(size_t threshold_bytes)
      : threshold_(threshold_bytes) {}

  size_t threshold() const { return threshold_; }
  size_t used() const { return used_; }
  bool OverBudget() const { return used_ > threshold_; }
  void Add(size_t bytes) { used_ += bytes; }
  void Sub(size_t bytes) { used_ -= bytes < used_ ? bytes : used_; }

  /// Aggregated spill activity across all stores of the execution.
  size_t spilled_chunks = 0;
  size_t spilled_bytes = 0;

 private:
  size_t threshold_;
  size_t used_ = 0;
};

class TempTupleStore {
 public:
  /// Rows per column-major chunk. Chunks are the spill and streaming
  /// granule; 4096 rows x 8 bytes = 32 KiB per column.
  static constexpr size_t kChunkRows = 4096;

  /// `width` = slots per row; `arena` must outlive the store.
  TempTupleStore(size_t width, SpillArena* arena);
  ~TempTupleStore();
  ANKER_DISALLOW_COPY_AND_MOVE(TempTupleStore);

  size_t width() const { return width_; }
  size_t rows() const { return rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  bool spilled() const { return file_ != nullptr; }

  /// Appends one row-major row. May spill a completed chunk (IoError).
  Status Append(const uint64_t* row);

  /// Appends one row gathered from column spans: row r of `cols[src[i]]`
  /// becomes slot i. `src` has width() entries.
  Status AppendGather(const uint64_t* const* cols, const uint16_t* src,
                      size_t r);

  /// Seals the store for reading. Append is invalid afterwards.
  Status Finish();

  /// Streams every chunk in insertion order as column-major spans:
  /// fn(cols, rows) where cols[c][0..rows) is slot c. Spilled chunks are
  /// loaded one at a time into an internal scratch buffer.
  Status ForEachChunk(
      const std::function<Status(const uint64_t* const* cols,
                                 size_t rows)>& fn) const;

  /// Sequential reader over one chunk's rows in [0, chunk_rows(chunk)),
  /// buffering at most `buffer_rows` rows — the bounded-memory input of
  /// the external merge in the sort operator. Readers must not outlive
  /// the store; any number may be open concurrently (pread-style I/O).
  class SliceReader {
   public:
    SliceReader() = default;
    SliceReader(const TempTupleStore* store, size_t chunk,
                size_t buffer_rows);

    bool exhausted() const { return next_ >= limit_; }
    /// Loads the next slice; returns row count (0 when exhausted) and
    /// points *cols at width() column spans of that many rows.
    Result<size_t> Next(const uint64_t* const** cols);

   private:
    const TempTupleStore* store_ = nullptr;
    size_t chunk_ = 0;
    size_t next_ = 0;
    size_t limit_ = 0;
    size_t buffer_rows_ = 0;
    std::vector<uint64_t> buffer_;
    std::vector<const uint64_t*> col_ptrs_;
  };

  size_t chunk_rows(size_t chunk) const;

 private:
  friend class SliceReader;

  struct Chunk {
    /// Column-major, kChunkRows per column; null when spilled. Slots past
    /// `rows` stay uninitialized: nothing reads them.
    std::unique_ptr<uint64_t[]> data;
    long file_offset = -1;       ///< Offset in `file_` when spilled.
    size_t rows = 0;
  };

  size_t chunk_bytes() const {
    return width_ * kChunkRows * sizeof(uint64_t);
  }
  Status SpillChunk(Chunk* chunk);
  Status EnsureTail();
  /// Reads rows [row0, row0+n) of `chunk`, column-major with stride n,
  /// into `dst` (n * width slots). In-memory chunks are copied; spilled
  /// chunks are read with positional I/O.
  Status ReadSlice(size_t chunk, size_t row0, size_t n,
                   uint64_t* dst) const;

  size_t width_;
  SpillArena* arena_;
  std::vector<Chunk> chunks_;
  size_t rows_ = 0;
  size_t tail_rows_ = 0;  ///< Rows in chunks_.back().
  bool sealed_ = false;
  std::FILE* file_ = nullptr;  ///< Anonymous spill file, lazily created.
  long file_bytes_ = 0;
  mutable std::vector<uint64_t> scratch_;  ///< ForEachChunk reload buffer.
};

}  // namespace anker::query

#endif  // ANKER_QUERY_TUPLE_STORE_H_
