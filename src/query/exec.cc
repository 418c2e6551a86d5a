// Execution of compiled queries over the engine's blockwise scan fold.
//
// All three strategies run inside ScanDriver::FoldBlockwise, so version
// handling (snapshot vs live, tight vs staged blocks, seqlock retries) is
// entirely the engine's business: a block always arrives as plain value
// spans, and the same arithmetic runs in every processing mode — which is
// what keeps query results bit-identical across modes.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>

#include "query/dag.h"
#include "query/query.h"

namespace anker::query {

namespace {

constexpr size_t kBlockCap = mvcc::kRowsPerBlock;

inline double D(uint64_t raw) { return storage::DecodeDouble(raw); }

/// Accumulator handed through FoldBlockwise. The slot array is left
/// uninitialized on construction (a per-block Acc is constructed for
/// every 1024-row block); PrepSlots copies the plan's initial slot image
/// and flips `inited` — merge treats uninitialized accumulators as empty.
struct ExecAcc {
  ExecAcc() {}  // NOLINT: slots stay uninitialized by design.
  bool inited = false;
  uint64_t rows = 0;
  double slots[kMaxTotalSlots];  ///< Build caps total_slots at this size.
};

/// Per-participant working memory of the vectorized strategies,
/// recycled through a pool because fold participants are created by the
/// engine, not by us (and help-while-waiting worker nesting makes
/// thread_local scratch unsafe).
struct Scratch {
  explicit Scratch(size_t num_temps) {
    sel_a.resize(kBlockCap);
    sel_b.resize(kBlockCap);
    keys.resize(kBlockCap);
    temps.resize(std::max<size_t>(1, num_temps) * kBlockCap);
  }
  std::vector<uint16_t> sel_a, sel_b;
  std::vector<uint32_t> keys;
  std::vector<double> temps;
  double* temp(size_t t) { return temps.data() + t * kBlockCap; }
};

class ScratchPool {
 public:
  explicit ScratchPool(size_t num_temps) : num_temps_(num_temps) {}

  std::unique_ptr<Scratch> Acquire() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<Scratch> scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<Scratch>(num_temps_);
  }

  void Release(std::unique_ptr<Scratch> scratch) {
    std::lock_guard<std::mutex> guard(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  size_t num_temps_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

/// Everything bound for one execution: predicates with params folded in,
/// const operands of the temp program, and the initial slot image
/// (zeroes; +-inf for min/max slots).
struct BoundQuery {
  const CompiledQuery* plan = nullptr;
  std::vector<BoundPred> preds;
  std::vector<BoundScalar> generic;
  std::vector<double> cvals;  ///< Per prog instruction.
  std::vector<double> init_slots;
  std::vector<uint8_t> slot_op;  ///< Per in-group slot: 0 +, 1 min, 2 max.
  bool has_minmax = false;
  std::unique_ptr<ScratchPool> pool;
};

Status Bind(const CompiledQuery& plan, const Params& params,
            BoundQuery* bound) {
  bound->plan = &plan;
  ANKER_RETURN_IF_ERROR(BindPredsFor(plan.preds, plan.columns, plan.table,
                                     params, &bound->preds));
  bound->generic.clear();
  for (const GenericPred& pred : plan.generic_preds) {
    // A fast-path plan shares its DAG plan's scan: same columns, same
    // indexes, so generic predicates bind over that scan's schema.
    auto scalar = BindTupleScalar(pred.expr, plan.dag->scan.schema, params);
    if (!scalar.ok()) return scalar.status();
    bound->generic.push_back(scalar.TakeValue());
  }
  bound->cvals.assign(plan.prog.size(), 0.0);
  for (size_t i = 0; i < plan.prog.size(); ++i) {
    if (plan.prog[i].cexpr == nullptr) continue;
    auto value = EvalConstExpr(plan.prog[i].cexpr.get(), params);
    if (!value.ok()) return value.status();
    const ConstValue& v = value.value();
    bound->cvals[i] = v.type == ExprType::kDouble
                          ? storage::DecodeDouble(v.raw)
                          : static_cast<double>(storage::DecodeInt64(v.raw));
  }

  bound->slot_op.assign(plan.num_slots, 0);
  for (const AggSpec& agg : plan.aggs) {
    if (agg.kind == AggKind::kMin) bound->slot_op[agg.slot] = 1;
    if (agg.kind == AggKind::kMax) bound->slot_op[agg.slot] = 2;
  }
  bound->init_slots.assign(plan.total_slots, 0.0);
  for (size_t s = 0; s < plan.total_slots; ++s) {
    const uint8_t op = bound->slot_op[s % plan.num_slots];
    if (op == 1) {
      bound->init_slots[s] = std::numeric_limits<double>::infinity();
      bound->has_minmax = true;
    } else if (op == 2) {
      bound->init_slots[s] = -std::numeric_limits<double>::infinity();
      bound->has_minmax = true;
    }
  }
  bound->pool = std::make_unique<ScratchPool>(plan.num_temps);
  return Status::OK();
}

inline void PrepSlots(const BoundQuery& bound, ExecAcc* acc) {
  if (acc->inited) return;
  std::memcpy(acc->slots, bound.init_slots.data(),
              bound.plan->total_slots * sizeof(double));
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
size_t RunFilters(const BoundQuery& bound, const uint64_t* const* cols,
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

/// ---- vectorized temp program --------------------------------------------

void RunProg(const BoundQuery& bound, const uint64_t* const* cols,
             const uint16_t* sel, size_t k, Scratch* scratch) {
  const CompiledQuery& plan = *bound.plan;
  for (size_t pc = 0; pc < plan.prog.size(); ++pc) {
    const VecInst& inst = plan.prog[pc];
    double* dst = scratch->temp(inst.dst);
    switch (inst.op) {
      case VecOp::kLoadF64: {
        const uint64_t* col = cols[inst.col];
        if (sel == nullptr) {
          for (size_t i = 0; i < k; ++i) dst[i] = D(col[i]);
        } else {
          for (size_t i = 0; i < k; ++i) dst[i] = D(col[sel[i]]);
        }
        break;
      }
      case VecOp::kLoadI64: {
        const uint64_t* col = cols[inst.col];
        if (sel == nullptr) {
          for (size_t i = 0; i < k; ++i) {
            dst[i] = static_cast<double>(static_cast<int64_t>(col[i]));
          }
        } else {
          for (size_t i = 0; i < k; ++i) {
            dst[i] = static_cast<double>(static_cast<int64_t>(col[sel[i]]));
          }
        }
        break;
      }
      case VecOp::kLoadDict: {
        const uint64_t* col = cols[inst.col];
        if (sel == nullptr) {
          for (size_t i = 0; i < k; ++i) {
            dst[i] = static_cast<double>(storage::DecodeDict(col[i]));
          }
        } else {
          for (size_t i = 0; i < k; ++i) {
            dst[i] = static_cast<double>(storage::DecodeDict(col[sel[i]]));
          }
        }
        break;
      }
      case VecOp::kConst: {
        const double c = bound.cvals[pc];
        for (size_t i = 0; i < k; ++i) dst[i] = c;
        break;
      }
      case VecOp::kAdd: {
        const double* a = scratch->temp(inst.a);
        const double* b = scratch->temp(inst.b);
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] + b[i];
        break;
      }
      case VecOp::kSub: {
        const double* a = scratch->temp(inst.a);
        const double* b = scratch->temp(inst.b);
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] - b[i];
        break;
      }
      case VecOp::kMul: {
        const double* a = scratch->temp(inst.a);
        const double* b = scratch->temp(inst.b);
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] * b[i];
        break;
      }
      case VecOp::kAddC: {
        const double* a = scratch->temp(inst.a);
        const double c = bound.cvals[pc];
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] + c;
        break;
      }
      case VecOp::kSubC: {
        const double* a = scratch->temp(inst.a);
        const double c = bound.cvals[pc];
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] - c;
        break;
      }
      case VecOp::kRsubC: {
        const double* a = scratch->temp(inst.a);
        const double c = bound.cvals[pc];
        for (size_t i = 0; i < k; ++i) dst[i] = c - a[i];
        break;
      }
      case VecOp::kMulC: {
        const double* a = scratch->temp(inst.a);
        const double c = bound.cvals[pc];
        for (size_t i = 0; i < k; ++i) dst[i] = a[i] * c;
        break;
      }
    }
  }
}

/// ---- reductions (ungrouped / vectorized) --------------------------------

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
               const uint16_t* sel, size_t k, Scratch* scratch,
               double* slot) {
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
    case AggForm::kExpr: {
      const double* t = scratch->temp(agg.temp);
      switch (agg.kind) {
        case AggKind::kMin: {
          double m = *slot;
          for (size_t i = 0; i < k; ++i) m = std::min(m, t[i]);
          *slot = m;
          return;
        }
        case AggKind::kMax: {
          double m = *slot;
          for (size_t i = 0; i < k; ++i) m = std::max(m, t[i]);
          *slot = m;
          return;
        }
        default:
          *slot += SumReduce(k, [&](size_t i) { return t[i]; });
          return;
      }
    }
  }
}

/// ---- grouped strategies -------------------------------------------------

void ComputeKeys(const CompiledQuery& plan, const uint64_t* const* cols,
                 const uint16_t* sel, size_t k, Scratch* scratch) {
  uint32_t* keys = scratch->keys.data();
  const uint32_t stride = static_cast<uint32_t>(plan.num_slots);
  bool first = true;
  for (size_t kc = 0; kc < plan.key.cols.size(); ++kc) {
    const uint64_t* col = cols[plan.key.cols[kc]];
    const uint32_t bits = plan.key.bits[kc];
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

void GroupedVecBlock(const BoundQuery& bound, ExecAcc& acc,
                     const engine::ScanBlock& block, Scratch* scratch) {
  const CompiledQuery& plan = *bound.plan;
  const uint16_t* sel = nullptr;
  const size_t k =
      RunFilters(bound, block.cols, block.rows, scratch, &sel);
  if (k == 0) return;
  if (!plan.prog.empty()) RunProg(bound, block.cols, sel, k, scratch);
  ComputeKeys(plan, block.cols, sel, k, scratch);
  const uint32_t* keys = scratch->keys.data();
  for (size_t i = 0; i < k; ++i) {
    const size_t r = sel == nullptr ? i : sel[i];
    double* slot = acc.slots + keys[i];
    for (const AggSpec& agg : plan.aggs) {
      double v = 0;
      switch (agg.form) {
        case AggForm::kCount:
          slot[agg.slot] += 1.0;
          continue;
        case AggForm::kSum:
          v = D(block.cols[agg.a][r]);
          break;
        case AggForm::kSumMul:
          v = D(block.cols[agg.a][r]) * D(block.cols[agg.b][r]);
          break;
        case AggForm::kSumOneMinusMul:
          v = D(block.cols[agg.a][r]) *
              (1.0 - D(block.cols[agg.b][r]));
          break;
        case AggForm::kSumChargeMul:
          v = D(block.cols[agg.a][r]) *
              (1.0 - D(block.cols[agg.b][r])) *
              (1.0 + D(block.cols[agg.c][r]));
          break;
        case AggForm::kMin:
          slot[agg.slot] = std::min(slot[agg.slot],
                                    D(block.cols[agg.a][r]));
          continue;
        case AggForm::kMax:
          slot[agg.slot] = std::max(slot[agg.slot],
                                    D(block.cols[agg.a][r]));
          continue;
        case AggForm::kExpr:
          v = scratch->temp(agg.temp)[i];
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

void FusedBlock(const BoundQuery& bound, ExecAcc& acc,
                const engine::ScanBlock& block) {
  const CompiledQuery& plan = *bound.plan;
  FusedKey key;
  key.k0 = block.cols[plan.key.cols[0]];
  key.mask0 = (uint32_t{1} << plan.key.bits[0]) - 1;
  if (plan.key.cols.size() == 2) {
    key.k1 = block.cols[plan.key.cols[1]];
    key.mask1 = (uint32_t{1} << plan.key.bits[1]) - 1;
    key.shift1 = plan.key.bits[1];
  }
  key.stride = static_cast<uint32_t>(plan.num_slots);

  // Operand value slots in the layout the matched kernel expects
  // (deduplicated or flat; see fused.cc's OpndPattern).
  const uint64_t* vals[48];
  ANKER_CHECK(plan.fused_vals.size() <= 48);
  for (size_t v = 0; v < plan.fused_vals.size(); ++v) {
    vals[v] = block.cols[plan.fused_vals[v]];
  }
  plan.fused->Select(bound.preds.size())(acc.slots, block.cols,
                                         bound.preds.data(),
                                         bound.preds.size(), key, vals,
                                         block.rows);
}

void VectorizedBlock(const BoundQuery& bound, ExecAcc& acc,
                     const engine::ScanBlock& block, Scratch* scratch) {
  const CompiledQuery& plan = *bound.plan;
  const uint16_t* sel = nullptr;
  const size_t k =
      RunFilters(bound, block.cols, block.rows, scratch, &sel);
  if (k == 0) return;
  if (!plan.prog.empty()) RunProg(bound, block.cols, sel, k, scratch);
  for (const AggSpec& agg : plan.aggs) {
    ReduceAgg(agg, block.cols, sel, k, scratch, acc.slots + agg.slot);
  }
}

/// ---- result assembly ----------------------------------------------------

void Assemble(const BoundQuery& bound, const ExecAcc& total,
              const engine::ScanStats& stats, QueryResult* result) {
  const CompiledQuery& plan = *bound.plan;
  result->columns.clear();
  result->key_names = plan.key_names;
  // Fast-path group keys are always packed dictionary codes.
  result->key_types.assign(plan.key_names.size(), ExprType::kDict);
  result->rows.clear();
  result->rows_scanned = total.rows;
  result->scan = stats;
  for (const AggSpec& agg : plan.aggs) {
    if (!agg.hidden) result->columns.push_back(agg.name);
  }

  const double* slots = total.slots;
  std::vector<double> empty;
  if (!total.inited) {
    empty = bound.init_slots;
    slots = empty.data();
  }

  for (uint32_t g = 0; g < plan.key.num_groups; ++g) {
    const double* group = slots + g * plan.num_slots;
    if (plan.key.grouped()) {
      ANKER_CHECK(plan.count_slot >= 0);
      if (group[plan.count_slot] == 0) continue;
    }
    QueryResult::Row row;
    // Unpack the group key codes (most significant key column first, the
    // packing order of ComputeKeys / the fused kernels).
    uint32_t rest = g;
    row.keys.resize(plan.key.cols.size());
    for (size_t kc = plan.key.cols.size(); kc-- > 0;) {
      const uint32_t bits = plan.key.bits[kc];
      row.keys[kc] = rest & ((uint32_t{1} << bits) - 1);
      rest >>= bits;
    }
    for (const AggSpec& agg : plan.aggs) {
      if (agg.hidden) continue;
      double value = group[agg.slot];
      if (agg.kind == AggKind::kAvg) {
        const double count = group[plan.count_slot];
        value = count > 0 ? value / count : 0.0;
      }
      row.values.push_back(value);
    }
    result->rows.push_back(std::move(row));
  }
}

}  // namespace

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

  if (plan.strategy == ExecStrategy::kDag ||
      (exec_options.force_dag && plan.dag != nullptr)) {
    return ExecuteDag(plan, ctx, params, exec_options, result);
  }

  BoundQuery bound;
  ANKER_RETURN_IF_ERROR(Bind(plan, params, &bound));

  std::vector<engine::ColumnReader> readers;
  readers.reserve(plan.columns.size());
  for (storage::Column* column : plan.columns) {
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

  auto merge = [&](ExecAcc& into, ExecAcc&& from) {
    if (!from.inited) return;
    if (!into.inited) {
      into.inited = true;
      into.rows = from.rows;
      std::memcpy(into.slots, from.slots,
                  plan.total_slots * sizeof(double));
      return;
    }
    into.rows += from.rows;
    if (!bound.has_minmax) {
      for (size_t s = 0; s < plan.total_slots; ++s) {
        into.slots[s] += from.slots[s];
      }
      return;
    }
    for (size_t s = 0; s < plan.total_slots; ++s) {
      switch (bound.slot_op[s % plan.num_slots]) {
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

  ExecAcc total{};
  engine::ScanStats stats;
  const engine::ScanOptions options = exec_options.scan_options != nullptr
                                          ? *exec_options.scan_options
                                          : ctx.scan_options();

  switch (plan.strategy) {
    case ExecStrategy::kFusedGrouped: {
      driver.FoldBlockwise<ExecAcc>(
          &total,
          [&](ExecAcc& acc, const engine::ScanBlock& block) {
            PrepSlots(bound, &acc);
            acc.rows += block.rows;
            FusedBlock(bound, acc, block);
          },
          merge, &stats, options);
      break;
    }
    case ExecStrategy::kGroupedVec: {
      driver.FoldBlockwise<ExecAcc>(
          &total,
          [&](ExecAcc& acc, const engine::ScanBlock& block) {
            PrepSlots(bound, &acc);
            acc.rows += block.rows;
            std::unique_ptr<Scratch> scratch = bound.pool->Acquire();
            GroupedVecBlock(bound, acc, block, scratch.get());
            bound.pool->Release(std::move(scratch));
          },
          merge, &stats, options);
      break;
    }
    case ExecStrategy::kVectorized: {
      driver.FoldBlockwise<ExecAcc>(
          &total,
          [&](ExecAcc& acc, const engine::ScanBlock& block) {
            PrepSlots(bound, &acc);
            acc.rows += block.rows;
            std::unique_ptr<Scratch> scratch = bound.pool->Acquire();
            VectorizedBlock(bound, acc, block, scratch.get());
            bound.pool->Release(std::move(scratch));
          },
          merge, &stats, options);
      break;
    }
    case ExecStrategy::kDag:
      return Status::Internal("kDag strategy reached the fast-path switch");
  }

  Assemble(bound, total, stats, result);
  return Status::OK();
}

}  // namespace anker::query
