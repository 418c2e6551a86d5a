// The DAG's base-scan leaf (RunBaseScan) and the Execute entry point.
//
// Every base-table scan runs inside ScanDriver::FoldBlockwise, so version
// handling (snapshot vs live, tight vs staged blocks, seqlock retries) is
// entirely the engine's business: a block always arrives as plain value
// spans, and the same arithmetic runs in every processing mode — which is
// what keeps query results bit-identical across modes. Each block goes to
// one of three consumers: emitted rows (block-ordered runs feeding the
// rest of the pipeline), a fused grouped kernel (fused.cc), or the
// vectorized aggregate of a scan→aggregate leaf.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "query/dag.h"
#include "query/query.h"

namespace anker::query {

namespace {

constexpr size_t kBlockCap = mvcc::kRowsPerBlock;

inline double D(uint64_t raw) { return storage::DecodeDouble(raw); }

/// Leaf accumulator handed through FoldBlockwise. The slot array is left
/// uninitialized on construction (a per-block Acc is constructed for
/// every 1024-row block); PrepSlots copies the leaf's initial slot image
/// and flips `inited` — merge treats uninitialized accumulators as empty.
struct ExecAcc {
  ExecAcc() {}  // NOLINT: slots stay uninitialized by design.
  bool inited = false;
  double slots[kMaxTotalSlots];  ///< BuildLeaf caps total_slots here.
};

/// Per-participant selection and key buffers, recycled through a pool
/// because fold participants are created by the engine, not by us (and
/// help-while-waiting worker nesting makes thread_local scratch unsafe).
struct Scratch {
  Scratch() : sel_a(kBlockCap), sel_b(kBlockCap), keys(kBlockCap) {}
  std::vector<uint16_t> sel_a, sel_b;
  std::vector<uint32_t> keys;
};

class ScratchPool {
 public:
  std::unique_ptr<Scratch> Acquire() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<Scratch> scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<Scratch>();
  }

  void Release(std::unique_ptr<Scratch> scratch) {
    std::lock_guard<std::mutex> guard(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

/// The scan's filter with params folded in: range predicates, then the
/// generic terms for the scalar interpreter.
struct BoundFilter {
  std::vector<BoundPred> preds;
  std::vector<BoundScalar> generic;
};

/// Everything a leaf execution binds: kExpr aggregate inputs and the
/// initial slot image (zeroes; +-inf for min/max slots).
struct BoundLeaf {
  const DagLeaf* leaf = nullptr;
  std::vector<BoundScalar> inputs;  ///< By aggregate slot; kExpr only.
  std::vector<double> init_slots;
  std::vector<uint8_t> slot_op;  ///< Per in-group slot: 0 +, 1 min, 2 max.
  bool has_minmax = false;
};

Status BindLeaf(const DagLeaf& leaf, const DagScan& scan,
                const Params& params, BoundLeaf* bound) {
  bound->leaf = &leaf;
  bound->inputs.resize(leaf.aggs.size());
  for (size_t i = 0; i < leaf.aggs.size(); ++i) {
    if (leaf.aggs[i].form != AggForm::kExpr) continue;
    auto input = BindTupleScalar(leaf.aggs[i].expr, scan.schema, params);
    if (!input.ok()) return input.status();
    bound->inputs[i] = input.TakeValue();
  }

  bound->slot_op.assign(leaf.num_slots, 0);
  for (const AggSpec& agg : leaf.aggs) {
    if (agg.kind == AggKind::kMin) bound->slot_op[agg.slot] = 1;
    if (agg.kind == AggKind::kMax) bound->slot_op[agg.slot] = 2;
  }
  bound->init_slots.assign(leaf.total_slots, 0.0);
  for (size_t s = 0; s < leaf.total_slots; ++s) {
    const uint8_t op = bound->slot_op[s % leaf.num_slots];
    if (op == 1) {
      bound->init_slots[s] = std::numeric_limits<double>::infinity();
      bound->has_minmax = true;
    } else if (op == 2) {
      bound->init_slots[s] = -std::numeric_limits<double>::infinity();
      bound->has_minmax = true;
    }
  }
  return Status::OK();
}

inline void PrepSlots(const BoundLeaf& bound, ExecAcc* acc) {
  if (acc->inited) return;
  std::memcpy(acc->slots, bound.init_slots.data(),
              bound.leaf->total_slots * sizeof(double));
  acc->inited = true;
}

/// ---- selection passes ---------------------------------------------------

size_t FilterPass(const BoundPred& pred, const uint64_t* col,
                  const uint16_t* sel, size_t k, uint16_t* out) {
  size_t kept = 0;
  if (pred.is_double) {
    const double lo = pred.dlo;
    const double hi = pred.dhi;
    if (sel == nullptr) {
      for (size_t i = 0; i < k; ++i) {
        out[kept] = static_cast<uint16_t>(i);
        const double v = D(col[i]);
        kept += static_cast<size_t>(v >= lo && v <= hi);
      }
    } else {
      for (size_t i = 0; i < k; ++i) {
        out[kept] = sel[i];
        const double v = D(col[sel[i]]);
        kept += static_cast<size_t>(v >= lo && v <= hi);
      }
    }
  } else {
    const int64_t lo = pred.ilo;
    const int64_t hi = pred.ihi;
    if (sel == nullptr) {
      for (size_t i = 0; i < k; ++i) {
        out[kept] = static_cast<uint16_t>(i);
        const int64_t v = static_cast<int64_t>(col[i]);
        kept += static_cast<size_t>(v >= lo && v <= hi);
      }
    } else {
      for (size_t i = 0; i < k; ++i) {
        out[kept] = sel[i];
        const int64_t v = static_cast<int64_t>(col[sel[i]]);
        kept += static_cast<size_t>(v >= lo && v <= hi);
      }
    }
  }
  return kept;
}

size_t GenericPass(const BoundScalar& pred, const uint64_t* const* cols,
                   const uint16_t* sel, size_t k, uint16_t* out) {
  size_t kept = 0;
  for (size_t i = 0; i < k; ++i) {
    const uint16_t r = sel == nullptr ? static_cast<uint16_t>(i) : sel[i];
    out[kept] = r;
    kept += static_cast<size_t>(EvalScalarBool(pred, cols, r));
  }
  return kept;
}

/// Runs the filter chain; returns the surviving count and points *sel at
/// the surviving selection (nullptr = all rows).
size_t RunFilters(const BoundFilter& bound, const uint64_t* const* cols,
                  size_t n, Scratch* scratch, const uint16_t** sel) {
  *sel = nullptr;
  size_t k = n;
  uint16_t* bufs[2] = {scratch->sel_a.data(), scratch->sel_b.data()};
  int which = 0;
  for (const BoundPred& pred : bound.preds) {
    k = FilterPass(pred, cols[pred.col], *sel, k, bufs[which]);
    *sel = bufs[which];
    which ^= 1;
    if (k == 0) return 0;
  }
  for (const BoundScalar& pred : bound.generic) {
    k = GenericPass(pred, cols, *sel, k, bufs[which]);
    *sel = bufs[which];
    which ^= 1;
    if (k == 0) return 0;
  }
  return k;
}

/// ---- vectorized aggregate --------------------------------

/// 4-way unrolled sum: breaks the serial add dependency chain, which
/// makes dense column sums ~3x faster than a per-row fold. The partial
/// order is fixed, so results stay deterministic for a given block
/// structure.
template <typename ValueFn>
inline double SumReduce(size_t k, ValueFn&& value) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    s0 += value(i);
    s1 += value(i + 1);
    s2 += value(i + 2);
    s3 += value(i + 3);
  }
  for (; i < k; ++i) s0 += value(i);
  return (s0 + s1) + (s2 + s3);
}

void ReduceAgg(const AggSpec& agg, const uint64_t* const* cols,
               const uint16_t* sel, size_t k, double* slot) {
  auto row = [&](size_t i) -> size_t {
    return sel == nullptr ? i : sel[i];
  };
  switch (agg.form) {
    case AggForm::kCount:
      *slot += static_cast<double>(k);
      return;
    case AggForm::kSum: {
      const uint64_t* a = cols[agg.a];
      *slot += SumReduce(k, [&](size_t i) { return D(a[row(i)]); });
      return;
    }
    case AggForm::kSumMul: {
      const uint64_t* a = cols[agg.a];
      const uint64_t* b = cols[agg.b];
      *slot += SumReduce(k, [&](size_t i) {
        const size_t r = row(i);
        return D(a[r]) * D(b[r]);
      });
      return;
    }
    case AggForm::kSumOneMinusMul: {
      const uint64_t* a = cols[agg.a];
      const uint64_t* b = cols[agg.b];
      *slot += SumReduce(k, [&](size_t i) {
        const size_t r = row(i);
        return D(a[r]) * (1.0 - D(b[r]));
      });
      return;
    }
    case AggForm::kSumChargeMul: {
      const uint64_t* a = cols[agg.a];
      const uint64_t* b = cols[agg.b];
      const uint64_t* c = cols[agg.c];
      *slot += SumReduce(k, [&](size_t i) {
        const size_t r = row(i);
        return D(a[r]) * (1.0 - D(b[r])) * (1.0 + D(c[r]));
      });
      return;
    }
    case AggForm::kMin: {
      const uint64_t* a = cols[agg.a];
      double m = *slot;
      for (size_t i = 0; i < k; ++i) m = std::min(m, D(a[row(i)]));
      *slot = m;
      return;
    }
    case AggForm::kMax: {
      const uint64_t* a = cols[agg.a];
      double m = *slot;
      for (size_t i = 0; i < k; ++i) m = std::max(m, D(a[row(i)]));
      *slot = m;
      return;
    }
    case AggForm::kExpr:  // Reduced by ReduceExpr.
      return;
  }
}

/// Reduces a non-menu aggregate input, evaluated per selected row by the
/// scalar interpreter. Kept out of ReduceAgg: with these loops beside
/// them, ReduceAgg's menu-form loops compiled measurably slower.
void ReduceExpr(AggKind kind, const BoundScalar& input,
                const uint64_t* const* cols, const uint16_t* sel, size_t k,
                double* slot) {
  auto value = [&](size_t i) {
    return EvalScalarDouble(input, cols, sel == nullptr ? i : sel[i]);
  };
  switch (kind) {
    case AggKind::kMin: {
      double m = *slot;
      for (size_t i = 0; i < k; ++i) m = std::min(m, value(i));
      *slot = m;
      return;
    }
    case AggKind::kMax: {
      double m = *slot;
      for (size_t i = 0; i < k; ++i) m = std::max(m, value(i));
      *slot = m;
      return;
    }
    default:
      *slot += SumReduce(k, value);
      return;
  }
}

/// Packs the group key of each selected row into scratch->keys,
/// premultiplied by the group stride.
void ComputeKeys(const DagLeaf& leaf, const uint64_t* const* cols,
                 const uint16_t* sel, size_t k, Scratch* scratch) {
  uint32_t* keys = scratch->keys.data();
  const uint32_t stride = static_cast<uint32_t>(leaf.num_slots);
  bool first = true;
  for (size_t kc = 0; kc < leaf.key.cols.size(); ++kc) {
    const uint64_t* col = cols[leaf.key.cols[kc]];
    const uint32_t bits = leaf.key.bits[kc];
    const uint32_t mask = (uint32_t{1} << bits) - 1;
    if (first) {
      for (size_t i = 0; i < k; ++i) {
        const size_t r = sel == nullptr ? i : sel[i];
        keys[i] = static_cast<uint32_t>(col[r]) & mask;
      }
      first = false;
    } else {
      for (size_t i = 0; i < k; ++i) {
        const size_t r = sel == nullptr ? i : sel[i];
        keys[i] = (keys[i] << bits) |
                  (static_cast<uint32_t>(col[r]) & mask);
      }
    }
  }
  for (size_t i = 0; i < k; ++i) keys[i] *= stride;
}

/// Folds a block's k selected rows into the leaf slots: ungrouped leaves
/// reduce aggregate-at-a-time with unrolled sums, grouped leaves update
/// each row's group slots row by row.
void AggregateBlock(const BoundLeaf& bound, const uint64_t* const* cols,
                    const uint16_t* sel, size_t k, Scratch* scratch,
                    double* slots) {
  const DagLeaf& leaf = *bound.leaf;
  if (!leaf.key.grouped()) {
    for (const AggSpec& agg : leaf.aggs) {
      if (agg.form == AggForm::kExpr) {
        ReduceExpr(agg.kind, bound.inputs[agg.slot], cols, sel, k,
                   slots + agg.slot);
      } else {
        ReduceAgg(agg, cols, sel, k, slots + agg.slot);
      }
    }
    return;
  }
  ComputeKeys(leaf, cols, sel, k, scratch);
  const uint32_t* keys = scratch->keys.data();
  for (size_t i = 0; i < k; ++i) {
    const size_t r = sel == nullptr ? i : sel[i];
    double* slot = slots + keys[i];
    for (const AggSpec& agg : leaf.aggs) {
      double v = 0;
      switch (agg.form) {
        case AggForm::kCount:
          slot[agg.slot] += 1.0;
          continue;
        case AggForm::kSum:
          v = D(cols[agg.a][r]);
          break;
        case AggForm::kSumMul:
          v = D(cols[agg.a][r]) * D(cols[agg.b][r]);
          break;
        case AggForm::kSumOneMinusMul:
          v = D(cols[agg.a][r]) * (1.0 - D(cols[agg.b][r]));
          break;
        case AggForm::kSumChargeMul:
          v = D(cols[agg.a][r]) * (1.0 - D(cols[agg.b][r])) *
              (1.0 + D(cols[agg.c][r]));
          break;
        case AggForm::kMin:
          slot[agg.slot] = std::min(slot[agg.slot], D(cols[agg.a][r]));
          continue;
        case AggForm::kMax:
          slot[agg.slot] = std::max(slot[agg.slot], D(cols[agg.a][r]));
          continue;
        case AggForm::kExpr:
          v = EvalScalarDouble(bound.inputs[agg.slot], cols, r);
          if (agg.kind == AggKind::kMin) {
            slot[agg.slot] = std::min(slot[agg.slot], v);
            continue;
          }
          if (agg.kind == AggKind::kMax) {
            slot[agg.slot] = std::max(slot[agg.slot], v);
            continue;
          }
          break;
      }
      slot[agg.slot] += v;
    }
  }
}

void FusedBlock(const DagLeaf& leaf, const BoundFilter& filter,
                ExecAcc& acc, const engine::ScanBlock& block) {
  FusedKey key;
  key.k0 = block.cols[leaf.key.cols[0]];
  key.mask0 = (uint32_t{1} << leaf.key.bits[0]) - 1;
  if (leaf.key.cols.size() == 2) {
    key.k1 = block.cols[leaf.key.cols[1]];
    key.mask1 = (uint32_t{1} << leaf.key.bits[1]) - 1;
    key.shift1 = leaf.key.bits[1];
  }
  key.stride = static_cast<uint32_t>(leaf.num_slots);

  // Operand value slots in the layout the matched kernel expects
  // (deduplicated or flat; see fused.cc's OpndPattern).
  const uint64_t* vals[48];
  ANKER_CHECK(leaf.fused_vals.size() <= 48);
  for (size_t v = 0; v < leaf.fused_vals.size(); ++v) {
    vals[v] = block.cols[leaf.fused_vals[v]];
  }
  leaf.fused->Select(filter.preds.size())(acc.slots, block.cols,
                                          filter.preds.data(),
                                          filter.preds.size(), key, vals,
                                          block.rows);
}

/// Writes the leaf's groups as aggregate-stage rows in packed-key order:
/// the unpacked key codes, then the visible aggregates (Avg divided by
/// the count). Empty groups are skipped; an ungrouped leaf always writes
/// its one row, the identity row when no row passed.
Status WriteGroups(const BoundLeaf& bound, const ExecAcc& total,
                   SpillArena* arena, std::unique_ptr<TempTupleStore>* out) {
  const DagLeaf& leaf = *bound.leaf;
  const double* slots =
      total.inited ? total.slots : bound.init_slots.data();
  const size_t nkeys = leaf.key.cols.size();
  size_t width = nkeys;
  for (const AggSpec& agg : leaf.aggs) width += agg.hidden ? 0 : 1;
  *out = std::make_unique<TempTupleStore>(width, arena);
  std::vector<uint64_t> row(width);
  for (uint32_t g = 0; g < leaf.key.num_groups; ++g) {
    const double* group = slots + g * leaf.num_slots;
    if (leaf.key.grouped() && group[leaf.count_slot] == 0) continue;
    // Unpack the group key codes (most significant key column first, the
    // packing order of ComputeKeys / the fused kernels).
    uint32_t rest = g;
    for (size_t kc = nkeys; kc-- > 0;) {
      const uint32_t bits = leaf.key.bits[kc];
      row[kc] = storage::EncodeDict(rest & ((uint32_t{1} << bits) - 1));
      rest >>= bits;
    }
    size_t c = nkeys;
    for (const AggSpec& agg : leaf.aggs) {
      if (agg.hidden) continue;
      double value = group[agg.slot];
      if (agg.kind == AggKind::kAvg) {
        const double count = group[leaf.count_slot];
        value = count > 0 ? value / count : 0.0;
      }
      row[c++] = storage::EncodeDouble(value);
    }
    ANKER_RETURN_IF_ERROR((*out)->Append(row.data()));
  }
  return Status::OK();
}

/// Leaf consumers: fused kernels filter inside their row loop; the
/// vectorized aggregate takes the selection RunFilters leaves.
Status RunLeaf(const engine::ScanDriver& driver, const BoundFilter& filter,
               const BoundLeaf& bound, ScratchPool* pool,
               const engine::ScanOptions& scan_opts, SpillArena* arena,
               engine::ScanStats* stats,
               std::unique_ptr<TempTupleStore>* out) {
  const DagLeaf& leaf = *bound.leaf;
  auto merge = [&](ExecAcc& into, ExecAcc&& from) {
    if (!from.inited) return;
    if (!into.inited) {
      into.inited = true;
      std::memcpy(into.slots, from.slots, leaf.total_slots * sizeof(double));
      return;
    }
    if (!bound.has_minmax) {
      for (size_t s = 0; s < leaf.total_slots; ++s) {
        into.slots[s] += from.slots[s];
      }
      return;
    }
    for (size_t s = 0; s < leaf.total_slots; ++s) {
      switch (bound.slot_op[s % leaf.num_slots]) {
        case 1:
          into.slots[s] = std::min(into.slots[s], from.slots[s]);
          break;
        case 2:
          into.slots[s] = std::max(into.slots[s], from.slots[s]);
          break;
        default:
          into.slots[s] += from.slots[s];
          break;
      }
    }
  };

  ExecAcc total;
  driver.FoldBlockwise<ExecAcc>(
      &total,
      [&](ExecAcc& acc, const engine::ScanBlock& block) {
        PrepSlots(bound, &acc);
        if (leaf.fused != nullptr) {
          FusedBlock(leaf, filter, acc, block);
          return;
        }
        std::unique_ptr<Scratch> scratch = pool->Acquire();
        const uint16_t* sel = nullptr;
        const size_t k =
            RunFilters(filter, block.cols, block.rows, scratch.get(), &sel);
        if (k > 0) {
          AggregateBlock(bound, block.cols, sel, k, scratch.get(),
                         acc.slots);
        }
        pool->Release(std::move(scratch));
      },
      merge, stats, scan_opts);
  return WriteGroups(bound, total, arena, out);
}

/// Emits the passing rows, reassembled in block order so parallel and
/// serial scans produce identical stores.
Status EmitRows(const engine::ScanDriver& driver, const BoundFilter& filter,
                ScratchPool* pool, const engine::ScanOptions& scan_opts,
                engine::ScanStats* stats, TempTupleStore* out) {
  const size_t width = out->width();
  // Per-block row-major runs keyed by block begin; the post-fold sort by
  // begin restores block order whatever the morsel schedule was.
  struct Acc {
    std::vector<std::pair<size_t, std::vector<uint64_t>>> runs;
  };
  Acc total{};
  driver.FoldBlockwise<Acc>(
      &total,
      [&](Acc& acc, const engine::ScanBlock& block) {
        std::unique_ptr<Scratch> scratch = pool->Acquire();
        const uint16_t* sel = nullptr;
        const size_t k =
            RunFilters(filter, block.cols, block.rows, scratch.get(), &sel);
        if (k > 0) {
          acc.runs.emplace_back(block.begin, std::vector<uint64_t>(k * width));
          uint64_t* run = acc.runs.back().second.data();
          for (size_t i = 0; i < k; ++i) {
            const size_t r = sel == nullptr ? i : sel[i];
            for (size_t c = 0; c < width; ++c) {
              run[i * width + c] = block.cols[c][r];
            }
          }
        }
        pool->Release(std::move(scratch));
      },
      [](Acc& into, Acc&& from) {
        into.runs.insert(into.runs.end(),
                         std::make_move_iterator(from.runs.begin()),
                         std::make_move_iterator(from.runs.end()));
      },
      stats, scan_opts);

  std::sort(total.runs.begin(), total.runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& run : total.runs) {
    const size_t n = run.second.size() / width;
    for (size_t r = 0; r < n; ++r) {
      ANKER_RETURN_IF_ERROR(out->Append(run.second.data() + r * width));
    }
  }
  return Status::OK();
}

}  // namespace

Status RunBaseScan(const DagScan& scan, const DagLeaf* leaf,
                   const engine::OlapContext& ctx, const Params& params,
                   const engine::ScanOptions& scan_opts, SpillArena* arena,
                   uint64_t* rows_scanned, engine::ScanStats* stats,
                   std::unique_ptr<TempTupleStore>* out) {
  BoundFilter filter;
  ANKER_RETURN_IF_ERROR(BindPredsFor(scan.preds, scan.columns, scan.table,
                                     params, &filter.preds));
  filter.generic.reserve(scan.generic_preds.size());
  for (const GenericPred& pred : scan.generic_preds) {
    auto bound = BindTupleScalar(pred.expr, scan.schema, params);
    if (!bound.ok()) return bound.status();
    filter.generic.push_back(bound.TakeValue());
  }
  BoundLeaf bound_leaf;
  if (leaf != nullptr) {
    ANKER_RETURN_IF_ERROR(BindLeaf(*leaf, scan, params, &bound_leaf));
  }

  std::vector<engine::ColumnReader> readers;
  readers.reserve(scan.columns.size());
  for (storage::Column* column : scan.columns) {
    auto reader = ctx.TryReader(column);
    if (!reader.ok()) return reader.status();
    readers.push_back(reader.value());
  }
  std::vector<const engine::ColumnReader*> reader_ptrs;
  reader_ptrs.reserve(readers.size());
  for (const engine::ColumnReader& reader : readers) {
    reader_ptrs.push_back(&reader);
  }
  engine::ScanDriver driver(std::move(reader_ptrs));

  ScratchPool pool;
  engine::ScanStats local_stats;
  if (leaf != nullptr) {
    ANKER_RETURN_IF_ERROR(RunLeaf(driver, filter, bound_leaf, &pool,
                                  scan_opts, arena, &local_stats, out));
  } else {
    *out = std::make_unique<TempTupleStore>(scan.columns.size(), arena);
    ANKER_RETURN_IF_ERROR(EmitRows(driver, filter, &pool, scan_opts,
                                   &local_stats, out->get()));
  }
  if (rows_scanned != nullptr) *rows_scanned += driver.num_rows();
  stats->Merge(local_stats);
  return Status::OK();
}

Status Execute(const Query& query, const engine::OlapContext& ctx,
               const Params& params, QueryResult* result) {
  return Execute(query, ctx, params, ExecOptions(), result);
}

Status Execute(const Query& query, const engine::OlapContext& ctx,
               const Params& params, const ExecOptions& exec_options,
               QueryResult* result) {
  if (!query.valid()) return Status::InvalidArgument("invalid query");
  const CompiledQuery& plan = query.plan();

  // A binding the plan never references is a recoverable error, not a
  // silent no-op (typo'd parameter names must surface).
  for (const auto& entry : params.values()) {
    if (!std::binary_search(plan.param_names.begin(),
                            plan.param_names.end(), entry.first)) {
      return Status::InvalidArgument("parameter '" + entry.first +
                                     "' is not used by this query");
    }
  }
  return ExecuteDag(plan, ctx, params, exec_options, result);
}

}  // namespace anker::query
