// Execution of the operator DAG (query/dag.h): morsel-parallel scan
// leaves (exec.cc) feeding partitioned hash joins, hash aggregation,
// window functions and sort/top-k through spill-capable TempTupleStores.
//
// Determinism: scan output is reassembled in block order regardless of
// morsel parallelism; the hash join emits (partition, probe order); sorts
// use a total order (keys, then the full row). A DAG execution without a
// scan→aggregate leaf therefore produces bit-identical rows across
// serial/parallel scans, spill thresholds, processing modes and buffer
// backends — the contract the differential plan fuzzer asserts. A leaf
// merges per-worker partial sums, so its sums may differ in the last
// bits between scan configurations; its group order is the packed-key
// order in all of them.

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "query/dag.h"
#include "query/plan.h"
#include "query/tuple_store.h"

namespace anker::query {

namespace {

constexpr size_t kJoinPartitions = 8;
constexpr size_t kMergeBufferRows = 256;

/// Total-order three-way compare of one slot value under its schema type,
/// with a raw-bits tiebreak so bit-distinct equal values (-0.0 vs 0.0)
/// still order deterministically.
int CompareTyped(uint64_t a, uint64_t b, ExprType type) {
  switch (type) {
    case ExprType::kDouble: {
      const double x = storage::DecodeDouble(a);
      const double y = storage::DecodeDouble(b);
      if (x < y) return -1;
      if (x > y) return 1;
      break;
    }
    case ExprType::kDict: {
      const uint32_t x = storage::DecodeDict(a);
      const uint32_t y = storage::DecodeDict(b);
      if (x < y) return -1;
      if (x > y) return 1;
      break;
    }
    default: {
      const int64_t x = storage::DecodeInt64(a);
      const int64_t y = storage::DecodeInt64(b);
      if (x < y) return -1;
      if (x > y) return 1;
      break;
    }
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Row compare: sort keys first (desc flips), then the full row ascending
/// as the tiebreak — a total order over distinct rows.
int RowCompare(const uint64_t* a, const uint64_t* b,
               const std::vector<DagSortKey>& keys,
               const std::vector<DagOutCol>& schema) {
  for (const DagSortKey& key : keys) {
    const int c = CompareTyped(a[key.col], b[key.col], schema[key.col].type);
    if (c != 0) return key.desc ? -c : c;
  }
  for (size_t c = 0; c < schema.size(); ++c) {
    const int r = CompareTyped(a[c], b[c], schema[c].type);
    if (r != 0) return r;
  }
  return 0;
}

uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void AppendKeyBytes(const uint64_t* const* cols, size_t row,
                    const std::vector<uint16_t>& key_slots,
                    std::string* out) {
  out->clear();
  for (const uint16_t slot : key_slots) {
    const uint64_t raw = cols[slot][row];
    out->append(reinterpret_cast<const char*>(&raw), sizeof(raw));
  }
}

std::vector<uint16_t> IdentitySrc(size_t width) {
  std::vector<uint16_t> src(width);
  for (size_t i = 0; i < width; ++i) src[i] = static_cast<uint16_t>(i);
  return src;
}

/// Streams `in` through tuple filters into a fresh store (no-op without
/// filters). Used for sub-input filters and join post filters live in
/// their own operators; this one handles DagScan::sub_filters and the
/// plan's final filter.
Status FilterStore(std::unique_ptr<TempTupleStore>* cur,
                   const std::vector<DagOutCol>& schema,
                   const std::vector<Expr>& filters, const Params& params,
                   SpillArena* arena) {
  if (filters.empty()) return Status::OK();
  std::vector<BoundScalar> bound;
  bound.reserve(filters.size());
  for (const Expr& f : filters) {
    auto b = BindTupleScalar(f, schema, params);
    if (!b.ok()) return b.status();
    bound.push_back(b.TakeValue());
  }
  const size_t width = schema.size();
  const std::vector<uint16_t> identity = IdentitySrc(width);
  auto out = std::make_unique<TempTupleStore>(width, arena);
  ANKER_RETURN_IF_ERROR((*cur)->Finish());
  ANKER_RETURN_IF_ERROR((*cur)->ForEachChunk(
      [&](const uint64_t* const* cols, size_t rows) -> Status {
        for (size_t r = 0; r < rows; ++r) {
          bool pass = true;
          for (const BoundScalar& f : bound) {
            if (!EvalScalarBool(f, cols, r)) {
              pass = false;
              break;
            }
          }
          if (!pass) continue;
          ANKER_RETURN_IF_ERROR(out->AppendGather(cols, identity.data(), r));
        }
        return Status::OK();
      }));
  *cur = std::move(out);
  return Status::OK();
}

Status RunPipeline(const DagPlan& dag, bool use_leaf,
                   const engine::OlapContext& ctx, const Params& params,
                   const engine::ScanOptions& scan_opts, SpillArena* arena,
                   uint64_t* rows_scanned, engine::ScanStats* stats,
                   std::unique_ptr<TempTupleStore>* out);

/// Materializes one DAG input (base-table scan or sub-query pipeline plus
/// tuple filters) into a store of the input's schema width.
Status RunScanInput(const DagScan& scan, const engine::OlapContext& ctx,
                    const Params& params,
                    const engine::ScanOptions& scan_opts, SpillArena* arena,
                    uint64_t* rows_scanned, engine::ScanStats* stats,
                    std::unique_ptr<TempTupleStore>* out) {
  if (scan.table != nullptr) {
    return RunBaseScan(scan, nullptr, ctx, params, scan_opts, arena,
                       rows_scanned, stats, out);
  }
  if (scan.sub == nullptr || scan.sub->dag == nullptr) {
    return Status::Internal("DAG scan input has neither table nor sub-plan");
  }
  // A sub-query keeps hash aggregation even where it has a leaf: its
  // sequential, first-seen-order sums stay bit-identical across scan
  // parallelism, which the outer stages' determinism rests on.
  ANKER_RETURN_IF_ERROR(RunPipeline(*scan.sub->dag, /*use_leaf=*/false, ctx,
                                    params, scan_opts, arena, rows_scanned,
                                    stats, out));
  return FilterStore(out, scan.schema, scan.sub_filters, params, arena);
}

/// Partitioned hash build/probe join. Both sides are hash-partitioned on
/// the key bytes; per partition the build side is loaded row-major and
/// indexed, then the probe side streams through in store order.
Status RunJoin(const DagJoin& join, const std::vector<DagOutCol>& probe_schema,
               const engine::OlapContext& ctx, const Params& params,
               const engine::ScanOptions& scan_opts, SpillArena* arena,
               engine::ScanStats* stats,
               std::unique_ptr<TempTupleStore>* cur) {
  std::unique_ptr<TempTupleStore> build_store;
  ANKER_RETURN_IF_ERROR(RunScanInput(join.build, ctx, params, scan_opts,
                                     arena, nullptr, stats, &build_store));
  ANKER_RETURN_IF_ERROR(build_store->Finish());
  ANKER_RETURN_IF_ERROR((*cur)->Finish());

  const size_t pw = probe_schema.size();
  const size_t bw = join.build.schema.size();
  const size_t ow = join.schema.size();
  const bool keyed = !join.probe_keys.empty();

  // Bind the residual over the combined probe ++ full build schema, and
  // the post filters over the output schema.
  BoundScalar residual;
  std::vector<DagOutCol> combined;
  if (join.residual.valid()) {
    combined = probe_schema;
    combined.insert(combined.end(), join.build.schema.begin(),
                    join.build.schema.end());
    auto bound = BindTupleScalar(join.residual, combined, params);
    if (!bound.ok()) return bound.status();
    residual = bound.TakeValue();
  }
  std::vector<BoundScalar> post;
  post.reserve(join.post_filters.size());
  for (const Expr& f : join.post_filters) {
    auto bound = BindTupleScalar(f, join.schema, params);
    if (!bound.ok()) return bound.status();
    post.push_back(bound.TakeValue());
  }

  // Partition both sides by key-byte hash (everything lands in partition
  // 0 for a keyless cross join).
  const size_t nparts = keyed ? kJoinPartitions : 1;
  std::vector<std::unique_ptr<TempTupleStore>> probe_parts;
  std::vector<std::unique_ptr<TempTupleStore>> build_parts;
  for (size_t p = 0; p < nparts; ++p) {
    probe_parts.push_back(std::make_unique<TempTupleStore>(pw, arena));
    build_parts.push_back(std::make_unique<TempTupleStore>(bw, arena));
  }
  const std::vector<uint16_t> probe_identity = IdentitySrc(pw);
  const std::vector<uint16_t> build_identity = IdentitySrc(bw);
  std::string key;
  ANKER_RETURN_IF_ERROR((*cur)->ForEachChunk(
      [&](const uint64_t* const* cols, size_t rows) -> Status {
        for (size_t r = 0; r < rows; ++r) {
          size_t p = 0;
          if (keyed) {
            AppendKeyBytes(cols, r, join.probe_keys, &key);
            p = HashBytes(key) % kJoinPartitions;
          }
          ANKER_RETURN_IF_ERROR(
              probe_parts[p]->AppendGather(cols, probe_identity.data(), r));
        }
        return Status::OK();
      }));
  ANKER_RETURN_IF_ERROR(build_store->ForEachChunk(
      [&](const uint64_t* const* cols, size_t rows) -> Status {
        for (size_t r = 0; r < rows; ++r) {
          size_t p = 0;
          if (keyed) {
            AppendKeyBytes(cols, r, join.build_keys, &key);
            p = HashBytes(key) % kJoinPartitions;
          }
          ANKER_RETURN_IF_ERROR(
              build_parts[p]->AppendGather(cols, build_identity.data(), r));
        }
        return Status::OK();
      }));
  build_store.reset();

  auto out = std::make_unique<TempTupleStore>(ow, arena);
  // Evaluation buffers: one combined probe+build row (residual), one
  // output row (post filters + emission).
  std::vector<uint64_t> pair_row(pw + bw, 0);
  std::vector<const uint64_t*> pair_cols(pw + bw);
  for (size_t c = 0; c < pw + bw; ++c) pair_cols[c] = &pair_row[c];
  std::vector<uint64_t> out_row(ow, 0);
  std::vector<const uint64_t*> out_cols(ow);
  for (size_t c = 0; c < ow; ++c) out_cols[c] = &out_row[c];

  auto emit = [&](const uint64_t* const* probe_cols, size_t r,
                  const uint64_t* build_row, bool matched) -> Status {
    for (size_t c = 0; c < pw; ++c) out_row[c] = probe_cols[c][r];
    size_t slot = pw;
    for (const uint16_t b : join.build_out) {
      out_row[slot++] = build_row != nullptr ? build_row[b] : 0;
    }
    if (join.type == JoinType::kLeftOuter) {
      out_row[slot++] = storage::EncodeInt64(matched ? 1 : 0);
    }
    for (const BoundScalar& f : post) {
      if (!EvalScalarBool(f, out_cols.data(), 0)) return Status::OK();
    }
    return out->Append(out_row.data());
  };

  for (size_t p = 0; p < nparts; ++p) {
    ANKER_RETURN_IF_ERROR(build_parts[p]->Finish());
    ANKER_RETURN_IF_ERROR(probe_parts[p]->Finish());
    // Load the partition's build rows row-major and index them by key.
    std::vector<uint64_t> build_rows;
    build_rows.reserve(build_parts[p]->rows() * bw);
    ANKER_RETURN_IF_ERROR(build_parts[p]->ForEachChunk(
        [&](const uint64_t* const* cols, size_t rows) -> Status {
          for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < bw; ++c) {
              build_rows.push_back(cols[c][r]);
            }
          }
          return Status::OK();
        }));
    const size_t build_count = build_rows.size() / bw;
    std::unordered_map<std::string, std::vector<uint32_t>> index;
    if (keyed) {
      for (size_t r = 0; r < build_count; ++r) {
        key.clear();
        for (const uint16_t slot : join.build_keys) {
          const uint64_t raw = build_rows[r * bw + slot];
          key.append(reinterpret_cast<const char*>(&raw), sizeof(raw));
        }
        index[key].push_back(static_cast<uint32_t>(r));
      }
    }

    std::vector<uint32_t> all_rows;
    if (!keyed) {
      all_rows.resize(build_count);
      for (size_t r = 0; r < build_count; ++r) {
        all_rows[r] = static_cast<uint32_t>(r);
      }
    }
    const std::vector<uint32_t> empty_rows;

    ANKER_RETURN_IF_ERROR(probe_parts[p]->ForEachChunk(
        [&](const uint64_t* const* cols, size_t rows) -> Status {
          for (size_t r = 0; r < rows; ++r) {
            const std::vector<uint32_t>* candidates = &empty_rows;
            if (keyed) {
              AppendKeyBytes(cols, r, join.probe_keys, &key);
              auto it = index.find(key);
              if (it != index.end()) candidates = &it->second;
            } else {
              candidates = &all_rows;
            }
            bool any = false;
            for (const uint32_t b : *candidates) {
              const uint64_t* build_row = build_rows.data() + b * bw;
              if (residual.root != nullptr) {
                for (size_t c = 0; c < pw; ++c) pair_row[c] = cols[c][r];
                std::memcpy(pair_row.data() + pw, build_row,
                            bw * sizeof(uint64_t));
                if (!EvalScalarBool(residual, pair_cols.data(), 0)) {
                  continue;
                }
              }
              any = true;
              if (join.type == JoinType::kLeftSemi ||
                  join.type == JoinType::kLeftAnti) {
                break;
              }
              ANKER_RETURN_IF_ERROR(emit(cols, r, build_row, true));
            }
            if (join.type == JoinType::kLeftSemi && any) {
              ANKER_RETURN_IF_ERROR(emit(cols, r, nullptr, true));
            } else if (join.type == JoinType::kLeftAnti && !any) {
              ANKER_RETURN_IF_ERROR(emit(cols, r, nullptr, false));
            } else if (join.type == JoinType::kLeftOuter && !any) {
              ANKER_RETURN_IF_ERROR(emit(cols, r, nullptr, false));
            }
          }
          return Status::OK();
        }));
    probe_parts[p].reset();
    build_parts[p].reset();
  }
  *cur = std::move(out);
  return Status::OK();
}

/// Hash aggregation: insertion-ordered groups over raw-byte keys, one
/// double accumulator per aggregate plus a shared row count and optional
/// per-aggregate distinct sets.
Status RunAggregate(const DagAggregate& agg,
                    const std::vector<DagOutCol>& in_schema,
                    const Params& params, SpillArena* arena,
                    std::unique_ptr<TempTupleStore>* cur) {
  struct GroupState {
    std::vector<uint64_t> keys;
    std::vector<double> acc;
    uint64_t count = 0;
  };
  std::vector<BoundScalar> inputs(agg.aggs.size());
  for (size_t i = 0; i < agg.aggs.size(); ++i) {
    if (!agg.aggs[i].expr.valid()) continue;
    auto bound = BindTupleScalar(agg.aggs[i].expr, in_schema, params);
    if (!bound.ok()) return bound.status();
    inputs[i] = bound.TakeValue();
  }
  std::unordered_map<std::string, size_t> group_index;
  std::vector<GroupState> groups;
  std::vector<std::vector<std::unordered_set<uint64_t>>> distinct;

  ANKER_RETURN_IF_ERROR((*cur)->Finish());
  std::string key;
  ANKER_RETURN_IF_ERROR((*cur)->ForEachChunk(
      [&](const uint64_t* const* cols, size_t rows) -> Status {
        for (size_t r = 0; r < rows; ++r) {
          AppendKeyBytes(cols, r, agg.group_cols, &key);
          auto it = group_index.find(key);
          size_t g;
          if (it == group_index.end()) {
            g = groups.size();
            group_index.emplace(key, g);
            GroupState state;
            state.keys.reserve(agg.group_cols.size());
            for (const uint16_t slot : agg.group_cols) {
              state.keys.push_back(cols[slot][r]);
            }
            state.acc.resize(agg.aggs.size(), 0.0);
            for (size_t i = 0; i < agg.aggs.size(); ++i) {
              if (agg.aggs[i].kind == AggKind::kMin) {
                state.acc[i] = std::numeric_limits<double>::infinity();
              } else if (agg.aggs[i].kind == AggKind::kMax) {
                state.acc[i] = -std::numeric_limits<double>::infinity();
              }
            }
            groups.push_back(std::move(state));
            distinct.emplace_back(agg.aggs.size());
          } else {
            g = it->second;
          }
          GroupState& state = groups[g];
          ++state.count;
          for (size_t i = 0; i < agg.aggs.size(); ++i) {
            const DagAggSpec& spec = agg.aggs[i];
            switch (spec.kind) {
              case AggKind::kCount:
                break;
              case AggKind::kSum:
              case AggKind::kAvg:
                state.acc[i] += EvalScalarDouble(inputs[i], cols, r);
                break;
              case AggKind::kMin:
                state.acc[i] = std::min(
                    state.acc[i], EvalScalarDouble(inputs[i], cols, r));
                break;
              case AggKind::kMax:
                state.acc[i] = std::max(
                    state.acc[i], EvalScalarDouble(inputs[i], cols, r));
                break;
              case AggKind::kCountDistinct: {
                const ScalarValue v =
                    EvalScalar(inputs[i].root.get(), cols, r);
                const uint64_t ident =
                    v.type == ExprType::kDouble
                        ? storage::EncodeDouble(v.d)
                        : static_cast<uint64_t>(v.i);
                distinct[g][i].insert(ident);
                break;
              }
            }
          }
        }
        return Status::OK();
      }));

  // A global aggregate (no group keys) over empty input yields one
  // identity row — count = 0, sum = 0, min/max = ±infinity — matching
  // the fused/vectorized fast paths and SQL's COUNT semantics. Grouped
  // aggregates stay empty: there are no groups to report.
  if (agg.group_cols.empty() && groups.empty()) {
    GroupState state;
    state.acc.resize(agg.aggs.size(), 0.0);
    for (size_t i = 0; i < agg.aggs.size(); ++i) {
      if (agg.aggs[i].kind == AggKind::kMin) {
        state.acc[i] = std::numeric_limits<double>::infinity();
      } else if (agg.aggs[i].kind == AggKind::kMax) {
        state.acc[i] = -std::numeric_limits<double>::infinity();
      }
    }
    groups.push_back(std::move(state));
    distinct.emplace_back(agg.aggs.size());
  }

  BoundScalar having;
  if (agg.having.valid()) {
    auto bound = BindTupleScalar(agg.having, agg.schema, params);
    if (!bound.ok()) return bound.status();
    having = bound.TakeValue();
  }

  const size_t width = agg.schema.size();
  auto out = std::make_unique<TempTupleStore>(width, arena);
  std::vector<uint64_t> row(width, 0);
  std::vector<const uint64_t*> row_cols(width);
  for (size_t c = 0; c < width; ++c) row_cols[c] = &row[c];
  for (size_t g = 0; g < groups.size(); ++g) {
    const GroupState& state = groups[g];
    for (size_t k = 0; k < state.keys.size(); ++k) row[k] = state.keys[k];
    for (size_t i = 0; i < agg.aggs.size(); ++i) {
      double v = state.acc[i];
      switch (agg.aggs[i].kind) {
        case AggKind::kCount:
          v = static_cast<double>(state.count);
          break;
        case AggKind::kAvg:
          v = state.count > 0 ? state.acc[i] /
                                    static_cast<double>(state.count)
                              : 0.0;
          break;
        case AggKind::kCountDistinct:
          v = static_cast<double>(distinct[g][i].size());
          break;
        default:
          break;
      }
      row[state.keys.size() + i] = storage::EncodeDouble(v);
    }
    if (having.root != nullptr &&
        !EvalScalarBool(having, row_cols.data(), 0)) {
      continue;
    }
    ANKER_RETURN_IF_ERROR(out->Append(row.data()));
  }
  *cur = std::move(out);
  return Status::OK();
}

/// External sort of a sealed store: per-chunk in-memory sorts into a run
/// store (runs align 1:1 with chunks), then a bounded-memory k-way merge
/// through SliceReaders. `fn` receives rows in sorted order.
Status SortedScan(const TempTupleStore& in,
                  const std::vector<DagSortKey>& keys,
                  const std::vector<DagOutCol>& schema, SpillArena* arena,
                  const std::function<Status(const uint64_t* row)>& fn) {
  const size_t width = schema.size();
  TempTupleStore runs(width, arena);
  std::vector<uint64_t> rows;
  std::vector<const uint64_t*> row_ptrs;
  ANKER_RETURN_IF_ERROR(in.ForEachChunk(
      [&](const uint64_t* const* cols, size_t n) -> Status {
        rows.assign(width * n, 0);
        row_ptrs.resize(n);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = 0; c < width; ++c) {
            rows[r * width + c] = cols[c][r];
          }
          row_ptrs[r] = rows.data() + r * width;
        }
        std::sort(row_ptrs.begin(), row_ptrs.end(),
                  [&](const uint64_t* a, const uint64_t* b) {
                    return RowCompare(a, b, keys, schema) < 0;
                  });
        for (const uint64_t* row : row_ptrs) {
          ANKER_RETURN_IF_ERROR(runs.Append(row));
        }
        return Status::OK();
      }));
  ANKER_RETURN_IF_ERROR(runs.Finish());

  struct Cursor {
    TempTupleStore::SliceReader reader;
    const uint64_t* const* cols = nullptr;
    size_t n = 0;
    size_t pos = 0;
    std::vector<uint64_t> row;
    bool done = false;
  };
  std::vector<Cursor> cursors(runs.num_chunks());
  auto advance = [&](Cursor* cur) -> Status {
    if (cur->pos >= cur->n) {
      auto next = cur->reader.Next(&cur->cols);
      if (!next.ok()) return next.status();
      cur->n = next.value();
      cur->pos = 0;
      if (cur->n == 0) {
        cur->done = true;
        return Status::OK();
      }
    }
    for (size_t c = 0; c < width; ++c) {
      cur->row[c] = cur->cols[c][cur->pos];
    }
    ++cur->pos;
    return Status::OK();
  };
  for (size_t i = 0; i < cursors.size(); ++i) {
    cursors[i].reader =
        TempTupleStore::SliceReader(&runs, i, kMergeBufferRows);
    cursors[i].row.resize(width);
    ANKER_RETURN_IF_ERROR(advance(&cursors[i]));
  }
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].done) continue;
      if (best < 0 ||
          RowCompare(cursors[i].row.data(), cursors[best].row.data(), keys,
                     schema) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    ANKER_RETURN_IF_ERROR(fn(cursors[best].row.data()));
    ANKER_RETURN_IF_ERROR(advance(&cursors[best]));
  }
  return Status::OK();
}

/// Window stage: sort by (partition, order, tiebreak), then stream one
/// partition at a time, appending the function outputs.
Status RunWindow(const DagWindow& win,
                 const std::vector<DagOutCol>& in_schema,
                 const Params& params, SpillArena* arena,
                 std::unique_ptr<TempTupleStore>* cur) {
  const size_t in_width = in_schema.size();
  const size_t out_width = win.schema.size();
  std::vector<BoundScalar> inputs(win.funcs.size());
  for (size_t i = 0; i < win.funcs.size(); ++i) {
    if (!win.funcs[i].input.valid()) continue;
    auto bound = BindTupleScalar(win.funcs[i].input, in_schema, params);
    if (!bound.ok()) return bound.status();
    inputs[i] = bound.TakeValue();
  }
  std::vector<DagSortKey> sort_keys;
  for (const uint16_t p : win.partition_cols) {
    sort_keys.push_back(DagSortKey{p, false});
  }
  sort_keys.insert(sort_keys.end(), win.order.begin(), win.order.end());

  ANKER_RETURN_IF_ERROR((*cur)->Finish());
  auto out = std::make_unique<TempTupleStore>(out_width, arena);

  // Partition buffer (row-major input rows). Windows typically run after
  // aggregation, so partitions are small; correctness does not depend on
  // that, only memory use does.
  std::vector<uint64_t> part_rows;
  std::vector<uint64_t> out_row(out_width, 0);
  std::vector<const uint64_t*> row_cols(in_width);

  auto same_partition = [&](const uint64_t* a, const uint64_t* b) {
    for (const uint16_t p : win.partition_cols) {
      if (a[p] != b[p]) return false;
    }
    return true;
  };
  auto order_equal = [&](const uint64_t* a, const uint64_t* b) {
    for (const DagSortKey& key : win.order) {
      if (CompareTyped(a[key.col], b[key.col], in_schema[key.col].type) !=
          0) {
        return false;
      }
    }
    return true;
  };

  auto flush_partition = [&]() -> Status {
    const size_t n = part_rows.size() / in_width;
    if (n == 0) return Status::OK();
    // Whole-partition aggregates.
    std::vector<double> agg(win.funcs.size(), 0.0);
    for (size_t i = 0; i < win.funcs.size(); ++i) {
      if (win.funcs[i].fn == WinFn::kMin) {
        agg[i] = std::numeric_limits<double>::infinity();
      } else if (win.funcs[i].fn == WinFn::kMax) {
        agg[i] = -std::numeric_limits<double>::infinity();
      }
    }
    for (size_t r = 0; r < n; ++r) {
      const uint64_t* row = part_rows.data() + r * in_width;
      for (size_t c = 0; c < in_width; ++c) row_cols[c] = &row[c];
      for (size_t i = 0; i < win.funcs.size(); ++i) {
        switch (win.funcs[i].fn) {
          case WinFn::kSum:
          case WinFn::kAvg:
            agg[i] += EvalScalarDouble(inputs[i], row_cols.data(), 0);
            break;
          case WinFn::kMin:
            agg[i] = std::min(
                agg[i], EvalScalarDouble(inputs[i], row_cols.data(), 0));
            break;
          case WinFn::kMax:
            agg[i] = std::max(
                agg[i], EvalScalarDouble(inputs[i], row_cols.data(), 0));
            break;
          default:
            break;
        }
      }
    }
    // Emission pass: rank tracks the start of the current order-key run.
    size_t run_start = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t* row = part_rows.data() + r * in_width;
      if (r > 0 &&
          !order_equal(row, part_rows.data() + (r - 1) * in_width)) {
        run_start = r;
      }
      for (size_t c = 0; c < in_width; ++c) out_row[c] = row[c];
      for (size_t i = 0; i < win.funcs.size(); ++i) {
        double v = 0.0;
        switch (win.funcs[i].fn) {
          case WinFn::kRank:
            v = static_cast<double>(run_start + 1);
            break;
          case WinFn::kRowNumber:
            v = static_cast<double>(r + 1);
            break;
          case WinFn::kCount:
            v = static_cast<double>(n);
            break;
          case WinFn::kSum:
          case WinFn::kMin:
          case WinFn::kMax:
            v = agg[i];
            break;
          case WinFn::kAvg:
            v = agg[i] / static_cast<double>(n);
            break;
        }
        out_row[in_width + i] = storage::EncodeDouble(v);
      }
      ANKER_RETURN_IF_ERROR(out->Append(out_row.data()));
    }
    part_rows.clear();
    return Status::OK();
  };

  ANKER_RETURN_IF_ERROR(SortedScan(
      **cur, sort_keys, in_schema, arena,
      [&](const uint64_t* row) -> Status {
        if (!part_rows.empty() &&
            !same_partition(row, part_rows.data())) {
          ANKER_RETURN_IF_ERROR(flush_partition());
        }
        part_rows.insert(part_rows.end(), row, row + in_width);
        return Status::OK();
      }));
  ANKER_RETURN_IF_ERROR(flush_partition());
  *cur = std::move(out);
  return Status::OK();
}

/// Final ordering: top-k via a bounded heap when a limit accompanies the
/// order keys, full external sort otherwise, plain head for a bare limit.
Status RunOrderLimit(const DagPlan& dag, SpillArena* arena,
                     std::unique_ptr<TempTupleStore>* cur) {
  if (dag.order.empty() && dag.limit < 0) return Status::OK();
  const size_t width = dag.schema.size();
  ANKER_RETURN_IF_ERROR((*cur)->Finish());
  auto out = std::make_unique<TempTupleStore>(width, arena);

  if (dag.order.empty()) {
    // Bare limit: first `limit` rows in store order.
    size_t remaining = static_cast<size_t>(dag.limit);
    ANKER_RETURN_IF_ERROR((*cur)->ForEachChunk(
        [&](const uint64_t* const* cols, size_t rows) -> Status {
          std::vector<uint64_t> row(width);
          for (size_t r = 0; r < rows && remaining > 0; ++r, --remaining) {
            for (size_t c = 0; c < width; ++c) row[c] = cols[c][r];
            ANKER_RETURN_IF_ERROR(out->Append(row.data()));
          }
          return Status::OK();
        }));
    *cur = std::move(out);
    return Status::OK();
  }

  if (dag.limit >= 0) {
    // Top-k: max-heap of the k smallest rows under the total order.
    const size_t k = static_cast<size_t>(dag.limit);
    if (k == 0) {
      *cur = std::move(out);
      return Status::OK();
    }
    auto less = [&](const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
      return RowCompare(a.data(), b.data(), dag.order, dag.schema) < 0;
    };
    std::vector<std::vector<uint64_t>> heap;
    ANKER_RETURN_IF_ERROR((*cur)->ForEachChunk(
        [&](const uint64_t* const* cols, size_t rows) -> Status {
          std::vector<uint64_t> row(width);
          for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < width; ++c) row[c] = cols[c][r];
            if (heap.size() < k) {
              heap.push_back(row);
              std::push_heap(heap.begin(), heap.end(), less);
            } else if (less(row, heap.front())) {
              std::pop_heap(heap.begin(), heap.end(), less);
              heap.back() = row;
              std::push_heap(heap.begin(), heap.end(), less);
            }
          }
          return Status::OK();
        }));
    std::sort(heap.begin(), heap.end(), less);
    for (const std::vector<uint64_t>& row : heap) {
      ANKER_RETURN_IF_ERROR(out->Append(row.data()));
    }
    *cur = std::move(out);
    return Status::OK();
  }

  // Full sort, no limit.
  ANKER_RETURN_IF_ERROR(SortedScan(
      **cur, dag.order, dag.schema, arena,
      [&](const uint64_t* row) { return out->Append(row); }));
  *cur = std::move(out);
  return Status::OK();
}

Status RunPipeline(const DagPlan& dag, bool use_leaf,
                   const engine::OlapContext& ctx, const Params& params,
                   const engine::ScanOptions& scan_opts, SpillArena* arena,
                   uint64_t* rows_scanned, engine::ScanStats* stats,
                   std::unique_ptr<TempTupleStore>* out) {
  std::unique_ptr<TempTupleStore> cur;
  const std::vector<DagOutCol>* schema = &dag.scan.schema;
  if (use_leaf && dag.leaf.present) {
    ANKER_RETURN_IF_ERROR(RunBaseScan(dag.scan, &dag.leaf, ctx, params,
                                      scan_opts, arena, rows_scanned, stats,
                                      &cur));
    schema = &dag.agg.schema;
  } else {
    ANKER_RETURN_IF_ERROR(RunScanInput(dag.scan, ctx, params, scan_opts,
                                       arena, rows_scanned, stats, &cur));
    for (const DagJoin& join : dag.joins) {
      ANKER_RETURN_IF_ERROR(RunJoin(join, *schema, ctx, params, scan_opts,
                                    arena, stats, &cur));
      schema = &join.schema;
    }
    if (dag.agg.present) {
      ANKER_RETURN_IF_ERROR(RunAggregate(dag.agg, *schema, params, arena,
                                         &cur));
      schema = &dag.agg.schema;
    }
  }
  if (dag.window.present) {
    ANKER_RETURN_IF_ERROR(RunWindow(dag.window, *schema, params, arena,
                                    &cur));
    schema = &dag.window.schema;
  }
  if (dag.final_filter.valid()) {
    ANKER_RETURN_IF_ERROR(FilterStore(&cur, *schema, {dag.final_filter},
                                      params, arena));
  }
  if (!dag.select.empty()) {
    auto selected =
        std::make_unique<TempTupleStore>(dag.select.size(), arena);
    ANKER_RETURN_IF_ERROR(cur->Finish());
    ANKER_RETURN_IF_ERROR(cur->ForEachChunk(
        [&](const uint64_t* const* cols, size_t rows) -> Status {
          for (size_t r = 0; r < rows; ++r) {
            ANKER_RETURN_IF_ERROR(
                selected->AppendGather(cols, dag.select.data(), r));
          }
          return Status::OK();
        }));
    cur = std::move(selected);
  }
  ANKER_RETURN_IF_ERROR(RunOrderLimit(dag, arena, &cur));
  ANKER_RETURN_IF_ERROR(cur->Finish());
  *out = std::move(cur);
  return Status::OK();
}

}  // namespace

Status ExecuteDag(const CompiledQuery& plan, const engine::OlapContext& ctx,
                  const Params& params, const ExecOptions& options,
                  QueryResult* result) {
  if (plan.dag == nullptr) {
    return Status::Internal("plan carries no DAG lowering");
  }
  const DagPlan& dag = *plan.dag;
  SpillArena arena(options.spill_threshold_bytes);
  const engine::ScanOptions scan_opts = options.scan_options != nullptr
                                            ? *options.scan_options
                                            : ctx.scan_options();
  uint64_t rows_scanned = 0;
  engine::ScanStats stats;
  std::unique_ptr<TempTupleStore> final_store;
  ANKER_RETURN_IF_ERROR(RunPipeline(dag, !options.force_dag, ctx, params,
                                    scan_opts, &arena, &rows_scanned, &stats,
                                    &final_store));

  // Assemble: double-typed schema columns land in `values`, the integer
  // domains (dict codes, dates, int64) in `keys`.
  result->columns.clear();
  result->key_names.clear();
  result->key_types.clear();
  result->interleave.clear();
  result->rows.clear();
  std::vector<size_t> value_slots;
  std::vector<size_t> key_slots;
  for (size_t c = 0; c < dag.schema.size(); ++c) {
    if (dag.schema[c].type == ExprType::kDouble) {
      result->columns.push_back(dag.schema[c].name);
      result->interleave.push_back(1);
      value_slots.push_back(c);
    } else {
      result->key_names.push_back(dag.schema[c].name);
      result->key_types.push_back(dag.schema[c].type);
      result->interleave.push_back(0);
      key_slots.push_back(c);
    }
  }
  ANKER_RETURN_IF_ERROR(final_store->ForEachChunk(
      [&](const uint64_t* const* cols, size_t rows) -> Status {
        for (size_t r = 0; r < rows; ++r) {
          QueryResult::Row row;
          row.keys.reserve(key_slots.size());
          for (const size_t slot : key_slots) {
            const uint64_t raw = cols[slot][r];
            if (dag.schema[slot].type == ExprType::kDict) {
              row.keys.push_back(storage::DecodeDict(raw));
            } else {
              row.keys.push_back(
                  static_cast<uint64_t>(storage::DecodeInt64(raw)));
            }
          }
          row.values.reserve(value_slots.size());
          for (const size_t slot : value_slots) {
            row.values.push_back(storage::DecodeDouble(cols[slot][r]));
          }
          result->rows.push_back(std::move(row));
        }
        return Status::OK();
      }));
  result->rows_scanned = rows_scanned;
  result->scan = stats;
  return Status::OK();
}

}  // namespace anker::query
