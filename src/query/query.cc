#include "query/query.h"

#include <algorithm>
#include <string>

#include "query/dag.h"

namespace anker::query {

Params& Params::SetInt(const std::string& name, int64_t value) {
  values_[name] = Value{ExprType::kInt64, storage::EncodeInt64(value), "",
                        false};
  return *this;
}
Params& Params::SetDouble(const std::string& name, double value) {
  values_[name] = Value{ExprType::kDouble, storage::EncodeDouble(value), "",
                        false};
  return *this;
}
Params& Params::SetDate(const std::string& name, int64_t days) {
  values_[name] = Value{ExprType::kDate, storage::EncodeDate(days), "",
                        false};
  return *this;
}
Params& Params::SetDictCode(const std::string& name, uint32_t code) {
  values_[name] = Value{ExprType::kDict, storage::EncodeDict(code), "",
                        false};
  return *this;
}
Params& Params::SetString(const std::string& name, std::string text) {
  values_[name] = Value{ExprType::kDict, 0, std::move(text), true};
  return *this;
}

const Params::Value* Params::Find(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

Agg Sum(Expr expr) { return Agg(AggKind::kSum, std::move(expr)); }
Agg Count() { return Agg(AggKind::kCount, Expr()); }
Agg Avg(Expr expr) { return Agg(AggKind::kAvg, std::move(expr)); }
Agg Min(Expr expr) { return Agg(AggKind::kMin, std::move(expr)); }
Agg Max(Expr expr) { return Agg(AggKind::kMax, std::move(expr)); }
Agg CountDistinct(Expr expr) {
  return Agg(AggKind::kCountDistinct, std::move(expr));
}

WindowDef WinRank(std::string name) {
  return WindowDef{std::move(name), WinFn::kRank, Expr()};
}
WindowDef WinRowNumber(std::string name) {
  return WindowDef{std::move(name), WinFn::kRowNumber, Expr()};
}
WindowDef WinCount(std::string name) {
  return WindowDef{std::move(name), WinFn::kCount, Expr()};
}
WindowDef WinSum(Expr input, std::string name) {
  return WindowDef{std::move(name), WinFn::kSum, std::move(input)};
}
WindowDef WinAvg(Expr input, std::string name) {
  return WindowDef{std::move(name), WinFn::kAvg, std::move(input)};
}
WindowDef WinMin(Expr input, std::string name) {
  return WindowDef{std::move(name), WinFn::kMin, std::move(input)};
}
WindowDef WinMax(Expr input, std::string name) {
  return WindowDef{std::move(name), WinFn::kMax, std::move(input)};
}

JoinInput::JoinInput(const Query& sub) : sub_(sub.shared_plan()) {}

double QueryResult::Value(const std::string& name) const {
  ANKER_CHECK_MSG(!rows.empty(), "QueryResult::Value on empty result");
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return rows[0].values[i];
  }
  ANKER_CHECK_MSG(false, ("unknown aggregate '" + name + "'").c_str());
  return 0;
}

QueryBuilder Query::On(storage::Table* table) { return QueryBuilder(table); }
QueryBuilder Query::On(const Query& sub) { return QueryBuilder(sub); }

QueryBuilder::QueryBuilder(const Query& sub) : sub_(sub.shared_plan()) {}

QueryBuilder& QueryBuilder::Filter(Expr predicate) {
  filter_ = filter_.valid() ? (std::move(filter_) && std::move(predicate))
                            : std::move(predicate);
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(std::vector<Agg> aggs) {
  for (Agg& agg : aggs) aggs_.push_back(std::move(agg));
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(std::vector<std::string> columns) {
  for (std::string& name : columns) group_by_.push_back(std::move(name));
  return *this;
}

QueryBuilder& QueryBuilder::Join(JoinInput build, JoinType type,
                                 std::vector<std::string> probe_keys,
                                 std::vector<std::string> build_keys,
                                 Expr residual) {
  joins_.push_back(JoinClause{std::move(build), type, std::move(probe_keys),
                              std::move(build_keys), std::move(residual)});
  return *this;
}

QueryBuilder& QueryBuilder::Having(Expr predicate) {
  having_ = having_.valid() ? (std::move(having_) && std::move(predicate))
                            : std::move(predicate);
  return *this;
}

QueryBuilder& QueryBuilder::Window(std::vector<WindowDef> funcs,
                                   std::vector<std::string> partition_by,
                                   std::vector<SortSpec> order) {
  has_window_ = true;
  for (WindowDef& def : funcs) win_funcs_.push_back(std::move(def));
  win_partition_ = std::move(partition_by);
  win_order_ = std::move(order);
  return *this;
}

QueryBuilder& QueryBuilder::PostFilter(Expr predicate) {
  post_filter_ = post_filter_.valid()
                     ? (std::move(post_filter_) && std::move(predicate))
                     : std::move(predicate);
  return *this;
}

QueryBuilder& QueryBuilder::Select(std::vector<SelectItem> items) {
  for (SelectItem& item : items) select_.push_back(std::move(item));
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(std::vector<SortSpec> keys) {
  for (SortSpec& key : keys) order_by_.push_back(std::move(key));
  return *this;
}

QueryBuilder& QueryBuilder::Limit(int64_t n) {
  limit_ = n;
  return *this;
}


namespace {

constexpr uint32_t kMaxGroups = 1024;

uint32_t BitsFor(size_t domain) {
  uint32_t bits = 1;
  while ((size_t{1} << bits) < domain) ++bits;
  return bits;
}

/// True when the accepted DAG plan is a filtered, optionally grouped
/// aggregation over one base table and nothing more: the shapes a
/// scan→aggregate leaf can run.
bool HasLeafShape(const DagPlan& dag) {
  if (dag.scan.table == nullptr || !dag.joins.empty() || !dag.agg.present ||
      dag.agg.having.valid() || dag.window.present ||
      dag.final_filter.valid() || !dag.select.empty() ||
      !dag.order.empty() || dag.limit >= 0) {
    return false;
  }
  for (const DagAggSpec& agg : dag.agg.aggs) {
    if (agg.kind == AggKind::kCountDistinct) return false;
  }
  return true;
}

/// Slot of a column the DAG scan already projects (every column a
/// fast-path declaration references is in its scan schema).
uint16_t ScanSlot(const std::vector<DagOutCol>& schema,
                  const std::string& name) {
  const int slot = FindSlot(schema, name);
  ANKER_CHECK(slot >= 0);
  return static_cast<uint16_t>(slot);
}

/// Flattens a multiplication chain into its factors.
void MulFactors(const ExprNode* node, std::vector<const ExprNode*>* out) {
  if (node->kind == ExprKind::kMul) {
    MulFactors(node->lhs.get(), out);
    MulFactors(node->rhs.get(), out);
    return;
  }
  out->push_back(node);
}

bool IsLiteralOne(const ExprNode* node) {
  return node->kind == ExprKind::kLiteral && !node->is_string &&
         node->type == ExprType::kDouble &&
         storage::DecodeDouble(node->raw) == 1.0;
}

bool IsDoubleCol(const ExprNode* node, const std::vector<DagOutCol>& schema) {
  if (node->kind != ExprKind::kColumn) return false;
  const int slot = FindSlot(schema, node->name);
  return slot >= 0 && schema[slot].type == ExprType::kDouble;
}

/// Classifies one multiplication factor for fused-form matching.
enum class FactorKind { kCol, kOneMinusCol, kOnePlusCol, kOther };

FactorKind ClassifyFactor(const ExprNode* node,
                          const std::vector<DagOutCol>& schema,
                          const ExprNode** col_out) {
  if (IsDoubleCol(node, schema)) {
    *col_out = node;
    return FactorKind::kCol;
  }
  if (node->kind == ExprKind::kSub && IsLiteralOne(node->lhs.get()) &&
      IsDoubleCol(node->rhs.get(), schema)) {
    *col_out = node->rhs.get();
    return FactorKind::kOneMinusCol;
  }
  if (node->kind == ExprKind::kAdd) {
    if (IsLiteralOne(node->lhs.get()) &&
        IsDoubleCol(node->rhs.get(), schema)) {
      *col_out = node->rhs.get();
      return FactorKind::kOnePlusCol;
    }
    if (IsLiteralOne(node->rhs.get()) &&
        IsDoubleCol(node->lhs.get(), schema)) {
      *col_out = node->lhs.get();
      return FactorKind::kOnePlusCol;
    }
  }
  return FactorKind::kOther;
}

/// Tries to match an aggregate input expression onto the fused form menu
/// (double columns only — the kernels read raw slots as doubles).
/// Returns kExpr when the shape is outside the menu.
AggForm MatchForm(AggKind kind, const ExprNode* node,
                  const std::vector<DagOutCol>& schema, uint16_t* a,
                  uint16_t* b, uint16_t* c) {
  auto use = [&](const ExprNode* col_node, uint16_t* out) {
    *out = ScanSlot(schema, col_node->name);
  };
  if (kind == AggKind::kMin || kind == AggKind::kMax) {
    if (IsDoubleCol(node, schema)) {
      use(node, a);
      return kind == AggKind::kMin ? AggForm::kMin : AggForm::kMax;
    }
    return AggForm::kExpr;
  }
  // Sum / Avg shapes.
  std::vector<const ExprNode*> factors;
  MulFactors(node, &factors);
  const ExprNode* cols_found[3] = {nullptr, nullptr, nullptr};
  if (factors.size() == 1) {
    const ExprNode* col = nullptr;
    if (ClassifyFactor(factors[0], schema, &col) == FactorKind::kCol) {
      use(col, a);
      return AggForm::kSum;
    }
    return AggForm::kExpr;
  }
  if (factors.size() == 2) {
    const ExprNode* c0 = nullptr;
    const ExprNode* c1 = nullptr;
    const FactorKind k0 = ClassifyFactor(factors[0], schema, &c0);
    const FactorKind k1 = ClassifyFactor(factors[1], schema, &c1);
    if (k0 == FactorKind::kCol && k1 == FactorKind::kCol) {
      use(c0, a);
      use(c1, b);
      return AggForm::kSumMul;
    }
    if (k0 == FactorKind::kCol && k1 == FactorKind::kOneMinusCol) {
      use(c0, a);
      use(c1, b);
      return AggForm::kSumOneMinusMul;
    }
    if (k0 == FactorKind::kOneMinusCol && k1 == FactorKind::kCol) {
      use(c1, a);
      use(c0, b);
      return AggForm::kSumOneMinusMul;
    }
    return AggForm::kExpr;
  }
  if (factors.size() == 3) {
    // a * (1 - b) * (1 + c), factors in evaluation order.
    const FactorKind k0 = ClassifyFactor(factors[0], schema, &cols_found[0]);
    const FactorKind k1 = ClassifyFactor(factors[1], schema, &cols_found[1]);
    const FactorKind k2 = ClassifyFactor(factors[2], schema, &cols_found[2]);
    if (k0 == FactorKind::kCol && k1 == FactorKind::kOneMinusCol &&
        k2 == FactorKind::kOnePlusCol) {
      use(cols_found[0], a);
      use(cols_found[1], b);
      use(cols_found[2], c);
      return AggForm::kSumChargeMul;
    }
    return AggForm::kExpr;
  }
  return AggForm::kExpr;
}

/// Lowers the scan→aggregate leaf of an accepted single-table DAG plan.
/// The DAG lowering already resolved, type-checked and named everything;
/// this adds only what the leaf's block kernels need: packed dictionary
/// group keys, fused-form matching, the slot layout and the fused kernel.
/// Fails (NotSupported) on shapes the kernels cannot take, such as
/// non-dictionary or wide group keys; those run without a leaf.
Result<DagLeaf> BuildLeaf(const DagPlan& dag) {
  const DagScan& scan = dag.scan;
  const DagAggregate& agg = dag.agg;
  DagLeaf leaf;
  leaf.present = true;

  // ---- group key: packed small-domain dictionary codes ----
  uint32_t total_bits = 0;
  for (const uint16_t col : agg.group_cols) {
    const DagOutCol& key = scan.schema[col];
    if (key.type != ExprType::kDict) {
      return Status::NotSupported(
          "GroupBy supports dictionary-encoded columns, '" + key.name +
          "' is " + ExprTypeName(key.type));
    }
    const uint32_t bits = BitsFor(std::max<size_t>(key.dict->size(), 2));
    leaf.key.cols.push_back(col);
    leaf.key.bits.push_back(bits);
    total_bits += bits;
    if (total_bits > 31 || (uint32_t{1} << total_bits) > kMaxGroups) {
      return Status::NotSupported(
          "GroupBy key domain exceeds " + std::to_string(kMaxGroups) +
          " packed groups");
    }
  }
  leaf.key.num_groups = leaf.key.grouped() ? (uint32_t{1} << total_bits)
                                           : 1;

  // ---- aggregates: fused-form matching ----
  int declared_count_slot = -1;
  for (size_t i = 0; i < agg.aggs.size(); ++i) {
    const DagAggSpec& decl = agg.aggs[i];
    AggSpec spec;
    spec.kind = decl.kind;
    spec.name = decl.name;
    spec.slot = static_cast<int>(i);
    if (decl.kind == AggKind::kCount) {
      spec.form = AggForm::kCount;
      if (declared_count_slot < 0) declared_count_slot = spec.slot;
    } else {
      spec.expr = decl.expr;
      spec.form = MatchForm(decl.kind, decl.expr.node(), scan.schema,
                            &spec.a, &spec.b, &spec.c);
    }
    leaf.aggs.push_back(std::move(spec));
  }

  // Grouped queries (group presence) and Avg (the divisor) need a row
  // count; reuse a declared Count or append a hidden one.
  bool needs_count = leaf.key.grouped();
  for (const AggSpec& spec : leaf.aggs) {
    if (spec.kind == AggKind::kAvg) needs_count = true;
  }
  leaf.count_slot = declared_count_slot;
  if (needs_count && leaf.count_slot < 0) {
    AggSpec hidden;
    hidden.kind = AggKind::kCount;
    hidden.form = AggForm::kCount;
    hidden.name = "__count";
    hidden.hidden = true;
    hidden.slot = static_cast<int>(leaf.aggs.size());
    leaf.count_slot = hidden.slot;
    leaf.aggs.push_back(std::move(hidden));
  }

  leaf.num_slots = leaf.aggs.size();
  leaf.total_slots = leaf.num_slots * leaf.key.num_groups;
  if (leaf.total_slots > kMaxTotalSlots) {
    return Status::NotSupported(
        "groups x aggregates exceeds the accumulator budget (" +
        std::to_string(leaf.total_slots) + " > " +
        std::to_string(kMaxTotalSlots) + " slots)");
  }

  // ---- fused kernel (grouped only) ----
  // Fused kernels carry a fixed-size local predicate array; busier
  // filters take the vectorized aggregate instead of being truncated.
  bool fusable = leaf.key.grouped() && scan.generic_preds.empty() &&
                 scan.preds.size() <= kMaxFusedSimplePreds &&
                 leaf.key.cols.size() <= 2;
  std::vector<AggForm> forms;
  for (const AggSpec& spec : leaf.aggs) {
    forms.push_back(spec.form);
    if (spec.form == AggForm::kExpr) fusable = false;
  }
  if (fusable) {
    // Operand-sharing pattern: flat operand position -> first occurrence
    // of that column (the registry may carry a kernel with exactly this
    // sharing baked in; see fused.cc).
    std::vector<uint16_t> flat_cols;
    std::vector<uint16_t> pattern;
    std::vector<uint16_t> distinct;
    for (const AggSpec& spec : leaf.aggs) {
      const size_t arity = FusedArity(spec.form);
      const uint16_t operands[3] = {spec.a, spec.b, spec.c};
      for (size_t o = 0; o < arity; ++o) {
        flat_cols.push_back(operands[o]);
        uint16_t slot = 0xffff;
        for (size_t d = 0; d < distinct.size(); ++d) {
          if (distinct[d] == operands[o]) {
            slot = static_cast<uint16_t>(d);
            break;
          }
        }
        if (slot == 0xffff) {
          slot = static_cast<uint16_t>(distinct.size());
          distinct.push_back(operands[o]);
        }
        pattern.push_back(slot);
      }
    }
    const FusedLookup lookup =
        FindFusedKernel(forms, leaf.key.cols.size(), pattern);
    leaf.fused = lookup.set;
    leaf.fused_vals = lookup.deduplicated ? distinct : flat_cols;
  }
  return leaf;
}

}  // namespace

Result<Query> QueryBuilder::Build() const {
  // The DAG lowering performs the full name / type validation for every
  // declarable shape, so it runs first unconditionally.
  auto built = BuildDagQuery(*this);
  if (!built.ok() || !HasLeafShape(*built.value().plan().dag)) return built;
  // Single-table filtered-aggregate shape: add the scan→aggregate leaf;
  // shapes its kernels reject (non-dict group keys, wide domains) run
  // without one.
  auto leaf = BuildLeaf(*built.value().plan().dag);
  if (!leaf.ok()) return built;
  auto dag = std::make_shared<DagPlan>(*built.value().plan().dag);
  dag->leaf = leaf.TakeValue();
  auto plan = std::make_shared<CompiledQuery>(built.value().plan());
  plan->dag = std::move(dag);
  return Query(std::move(plan));
}

}  // namespace anker::query
