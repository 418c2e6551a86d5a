#ifndef ANKER_QUERY_PLAN_H_
#define ANKER_QUERY_PLAN_H_

// Internal physical-plan structures of the query layer: what
// QueryBuilder::Build compiles a declarative query into, and what the
// executor (dag_exec.cc, with its scan leaf in exec.cc and fused.cc)
// consumes. Nothing here is part of the public API surface (query.h
// re-exports only the handles).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/expr.h"
#include "storage/table.h"

namespace anker::query {

class Params;

/// Join types of the DAG's partitioned hash join.
enum class JoinType : uint8_t {
  kInner,
  kLeftSemi,   ///< Probe row kept iff some build row matches.
  kLeftAnti,   ///< Probe row kept iff no build row matches.
  kLeftOuter,  ///< Unmatched probe rows padded with zeroed build columns.
};

/// Window function kinds (whole-partition frame; see QueryBuilder::
/// Window).
enum class WinFn : uint8_t {
  kRank,
  kRowNumber,
  kSum,
  kAvg,
  kMin,
  kMax,
  kCount,
};

/// Hard budget on a scan→aggregate leaf's accumulator slots (groups x
/// aggregates, incl. the hidden count): sized so the leaf can keep the
/// whole accumulator in a fixed stack array. Bigger plans get no leaf;
/// the leaf's ExecAcc is dimensioned by this same constant.
inline constexpr size_t kMaxTotalSlots = 1024;

/// Most simple predicates a fused kernel accepts; plans with more take
/// the vectorized aggregate (which has no predicate bound).
inline constexpr size_t kMaxFusedSimplePreds = 16;

/// Fused aggregate forms: the closed menu of per-row update shapes the
/// pre-instantiated kernels cover. kExpr marks an aggregate that did not
/// match the menu; the vectorized aggregate evaluates its input per
/// selected row with the scalar interpreter.
enum class AggForm : uint8_t {
  kCount,           ///< += 1
  kSum,             ///< += a
  kSumMul,          ///< += a * b
  kSumOneMinusMul,  ///< += a * (1 - b)
  kSumChargeMul,    ///< += a * (1 - b) * (1 + c)
  kMin,             ///< min= a
  kMax,             ///< max= a
  kExpr,
};

/// Declared aggregate kinds (public builder surface). kCountDistinct runs
/// in hash aggregation only: the scan→aggregate leaf carries no
/// per-group distinct sets.
enum class AggKind : uint8_t {
  kSum,
  kCount,
  kAvg,
  kMin,
  kMax,
  kCountDistinct,
};

/// A filter term of the shape `column <op> const-expr`, canonicalized to a
/// typed interval. Bounds are const expressions (literals, params, and
/// arithmetic over them) folded to raw values at bind time.
struct SimplePred {
  uint16_t col = 0;  ///< Index into the scan's column set.
  ExprType domain = ExprType::kInt64;  ///< Compare domain after encoding.
  std::shared_ptr<const ExprNode> lo;  ///< nullptr = open below.
  std::shared_ptr<const ExprNode> hi;  ///< nullptr = open above.
  bool lo_strict = false;
  bool hi_strict = false;
};

/// SimplePred after parameter substitution: a closed raw-value range
/// (strict bounds absorbed: +-1 for integer domains, nextafter for
/// doubles; dictionary codes and dates compare as int64).
struct BoundPred {
  uint16_t col = 0;
  bool is_double = false;
  int64_t ilo = 0, ihi = 0;
  double dlo = 0, dhi = 0;
};

/// Filter term that did not lower to a SimplePred (disjunctions, !=,
/// column-to-column compares): kept as an expression and evaluated per
/// surviving row by the scalar interpreter.
struct GenericPred {
  Expr expr;
};

/// Packed small-domain group key (Q1-style): each key column is a
/// dictionary column whose code domain fits `bits[i]` bits; the group
/// index concatenates the masked codes.
struct KeySpec {
  std::vector<uint16_t> cols;
  std::vector<uint32_t> bits;
  uint32_t num_groups = 1;
  bool grouped() const { return !cols.empty(); }
};

/// One declared aggregate after lowering.
struct AggSpec {
  std::string name;
  AggKind kind = AggKind::kSum;
  AggForm form = AggForm::kExpr;
  uint16_t a = 0, b = 0, c = 0;  ///< Operand columns of fused forms.
  int slot = -1;                 ///< Output slot within a group.
  bool hidden = false;           ///< Implicit count, not in the result.
  Expr expr;                     ///< Original input (invalid for kCount).
};

/// Number of column operands a fused form consumes from the flat operand
/// array (kernel operands are laid out positionally, aggregate by
/// aggregate, at compile-time offsets).
constexpr size_t FusedArity(AggForm form) {
  switch (form) {
    case AggForm::kCount:
    case AggForm::kExpr:
      return 0;
    case AggForm::kSum:
    case AggForm::kMin:
    case AggForm::kMax:
      return 1;
    case AggForm::kSumMul:
    case AggForm::kSumOneMinusMul:
      return 2;
    case AggForm::kSumChargeMul:
      return 3;
  }
  return 0;
}

/// Group-key descriptor handed to a fused kernel for the current block.
struct FusedKey {
  const uint64_t* k0 = nullptr;
  const uint64_t* k1 = nullptr;  ///< nullptr for single-key grouping.
  uint32_t mask0 = 0, mask1 = 0;
  uint32_t shift1 = 0;  ///< Bits of key 1 (key = (c0&m0)<<shift1 | c1&m1).
  uint32_t stride = 1;  ///< Slots per group.
};

/// Signature of a pre-instantiated fused kernel: folds one block into the
/// group slots. Rows failing a predicate are skipped (branch), matching
/// the shape of a hand-written kernel.
using FusedFn = void (*)(double* slots, const uint64_t* const* cols,
                         const BoundPred* preds, size_t npreds,
                         const FusedKey& key, const uint64_t* const* vals,
                         size_t n);

/// One registry entry: the kernel additionally comes specialized per
/// bound-predicate count (0, 1, 2; index 3 = runtime-count fallback), so
/// the common 0-2 predicate queries run with the predicate loop unrolled.
struct FusedKernelSet {
  FusedFn by_npreds[4] = {nullptr, nullptr, nullptr, nullptr};
  FusedFn Select(size_t npreds) const {
    return by_npreds[npreds < 3 ? npreds : 3];
  }
};

/// Registry lookup result. `deduplicated` tells the executor how the
/// matched kernel expects its flat operand array: collapsed to distinct
/// value slots (an operand-sharing pattern matched exactly) or one
/// pointer per operand position (identity-pattern fallback).
struct FusedLookup {
  const FusedKernelSet* set = nullptr;
  bool deduplicated = false;
};

/// Registry lookup: kernel set for the slot-form sequence, number of key
/// columns (1 or 2) and operand-sharing pattern (flat position -> value
/// slot). An empty `set` means the shape is not in the menu.
FusedLookup FindFusedKernel(const std::vector<AggForm>& forms, size_t nkeys,
                            const std::vector<uint16_t>& pattern);

struct DagPlan;

/// The immutable compiled plan behind a Query handle.
struct CompiledQuery {
  storage::Table* table = nullptr;
  std::vector<storage::Column*> columns;  ///< Deduplicated scan set.
  /// The operator pipeline (query/dag.h) that executes the declaration;
  /// single-table aggregations carry a scan→aggregate leaf on it.
  std::shared_ptr<const DagPlan> dag;
  /// Every parameter name the plan (and its sub-plans) can bind, sorted:
  /// Execute rejects bindings outside this set as recoverable errors.
  std::vector<std::string> param_names;
};

/// ---- shared helpers (plan.cc) -------------------------------------------

/// Evaluates a column-free expression to a typed raw value, substituting
/// params. Fails on missing/mistyped params.
struct ConstValue {
  ExprType type = ExprType::kInt64;
  uint64_t raw = 0;
};

Result<ConstValue> EvalConstExpr(const ExprNode* node, const Params& params);

/// Column set of one base-table scan: maps a column name to its index,
/// appending new columns on demand.
class ColumnSet {
 public:
  explicit ColumnSet(storage::Table* table) : table_(table) {}
  /// Index of `name`, registering the column on first use.
  Result<uint16_t> Use(const std::string& name);
  const std::vector<storage::Column*>& columns() const { return columns_; }
  storage::Table* table() const { return table_; }

 private:
  storage::Table* table_;
  std::vector<storage::Column*> columns_;
  std::vector<std::string> names_;
};

/// Lowers a filter expression into simple + generic terms against the
/// set's table, registering every column the terms reference.
Status LowerFilter(const Expr& filter, ColumnSet* cols,
                   std::vector<SimplePred>* preds,
                   std::vector<GenericPred>* generic);

/// Binds simple predicates against params: folds bound expressions,
/// resolves string literals through the column's dictionary, absorbs
/// strictness into the closed range.
Status BindPredsFor(const std::vector<SimplePred>& preds,
                    const std::vector<storage::Column*>& columns,
                    storage::Table* table, const Params& params,
                    std::vector<BoundPred>* out);

/// A scalar expression bound for execution: params folded, column refs
/// resolved to schema slots (see BindTupleScalar in dag.h).
struct BoundScalar {
  std::shared_ptr<const ExprNode> root;
};

/// Typed scalar evaluation over one row of block-local column spans.
struct ScalarValue {
  ExprType type = ExprType::kInt64;
  int64_t i = 0;
  double d = 0;
  bool b = false;
};

ScalarValue EvalScalar(const ExprNode* node, const uint64_t* const* cols,
                       size_t i);

/// Double value of a bound scalar over one row (numeric expressions).
double EvalScalarDouble(const BoundScalar& expr, const uint64_t* const* cols,
                        size_t i);
/// Boolean value of a bound scalar over one row (predicates).
bool EvalScalarBool(const BoundScalar& expr, const uint64_t* const* cols,
                    size_t i);

}  // namespace anker::query

#endif  // ANKER_QUERY_PLAN_H_
