#ifndef ANKER_QUERY_DAG_H_
#define ANKER_QUERY_DAG_H_

// The physical operator DAG every query executes: a linear pipeline of
// composable operators lowered from the QueryBuilder surface —
//
//   scan/sub -> join* -> aggregate -> window -> filter -> select
//            -> sort/top-k -> limit
//
// A single-table aggregation additionally carries a scan→aggregate leaf
// (DagLeaf): its scan blocks go straight into block kernels instead of
// through emitted rows and hash aggregation.
//
// Operators exchange tuples through spill-capable TempTupleStores
// (query/tuple_store.h) holding raw 8-byte slot values in the storage
// encoding, so the same scalar interpreter (plan.h's EvalScalar) that
// powers generic scan predicates evaluates every post-scan expression.
//
// Determinism contract: a DAG execution produces bit-identical results
// regardless of scan parallelism or spilling. Scan leaves reassemble
// their output in block order; the hash join always partitions both
// sides and emits (partition, probe-order); sorts use a total order
// (keys, then the full row as tie-break). The differential plan fuzzer
// (tests/query/plan_fuzz_test.cc) holds this contract down.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/plan.h"
#include "query/query.h"
#include "query/tuple_store.h"

namespace anker::query {

/// One column of an operator's output schema. The dictionary pointer
/// travels with dict-typed columns so string literals in post-scan
/// expressions (residuals, having, post filters) still resolve to codes.
struct DagOutCol {
  std::string name;
  ExprType type = ExprType::kInt64;
  const storage::Dictionary* dict = nullptr;
};

/// Sort key over a stage's schema.
struct DagSortKey {
  uint16_t col = 0;
  bool desc = false;
};

/// Pipeline leaf: a filtered base-table scan (morsel-parallel
/// FoldBlockwise) or the output of a compiled sub-query. Base scans
/// project `columns` in order (schema mirrors them); sub inputs adopt the
/// sub-plan's final schema and may be post-filtered tuple-wise.
struct DagScan {
  storage::Table* table = nullptr;
  std::shared_ptr<const CompiledQuery> sub;  ///< Set iff table == nullptr.
  std::vector<storage::Column*> columns;
  std::vector<SimplePred> preds;
  std::vector<GenericPred> generic_preds;
  std::vector<Expr> sub_filters;  ///< Tuple filters over a sub input.
  std::vector<DagOutCol> schema;
};

/// Partitioned hash build/probe join. Output schema: inner/outer = probe
/// schema ++ build schema minus the build keys (outer additionally
/// appends an int64 `__matched` flag); semi/anti = probe schema.
struct DagJoin {
  JoinType type = JoinType::kInner;
  DagScan build;
  std::vector<uint16_t> probe_keys;  ///< Into the probe (input) schema.
  std::vector<uint16_t> build_keys;  ///< Into build.schema.
  /// Extra match condition over the combined probe ++ full build schema,
  /// evaluated per candidate pair (non-equi conditions).
  Expr residual;
  /// Filter conjuncts assigned to run right after this join (their
  /// columns span both sides), over the output schema.
  std::vector<Expr> post_filters;
  std::vector<uint16_t> build_out;  ///< Build slots appended (inner/outer).
  std::vector<DagOutCol> schema;    ///< Output schema.
};

/// One aggregate of the DAG's hash aggregation.
struct DagAggSpec {
  std::string name;
  AggKind kind = AggKind::kCount;
  Expr expr;  ///< Over the input schema; invalid for kCount.
};

/// Hash aggregation over arbitrary-typed group keys; groups are emitted
/// in first-seen order (deterministic: the input order is). Groups only
/// materialize from actual input rows; an ungrouped aggregate over an
/// empty input yields one identity row. Group state lives in memory; the
/// spill machinery bounds the operator *inputs*.
struct DagAggregate {
  bool present = false;
  std::vector<uint16_t> group_cols;  ///< Into the input schema.
  std::vector<DagAggSpec> aggs;
  Expr having;                    ///< Over the output schema; optional.
  std::vector<DagOutCol> schema;  ///< Group cols ++ double agg outputs.
};

/// One window function output column.
struct DagWinSpec {
  std::string name;
  WinFn fn = WinFn::kCount;
  Expr input;  ///< Over the input schema; invalid for rank/count forms.
};

/// Window stage: sorts the input by (partition, order) and appends one
/// double column per function — whole-partition aggregates, or rank /
/// row_number along the order keys.
struct DagWindow {
  bool present = false;
  std::vector<uint16_t> partition_cols;
  std::vector<DagSortKey> order;  ///< Over the input schema.
  std::vector<DagWinSpec> funcs;
  std::vector<DagOutCol> schema;  ///< Input ++ double func outputs.
};

/// Scan→aggregate leaf of a single-table aggregation whose group keys
/// pack into small dictionary domains (lowered by BuildLeaf in
/// query.cc). The base scan's blocks feed a fused kernel (fused.cc) when
/// `fused` is set, else the vectorized aggregate (exec.cc); the group rows
/// land in the aggregate stage's store in packed-key order.
struct DagLeaf {
  bool present = false;
  KeySpec key;
  std::vector<AggSpec> aggs;  ///< agg.aggs order; hidden count last.
  int count_slot = -1;        ///< Slot of some count (-1 if none needed).
  size_t num_slots = 0;       ///< Slots per group (incl. hidden).
  size_t total_slots = 0;     ///< num_groups * num_slots.
  const FusedKernelSet* fused = nullptr;
  /// Column index per value slot of the fused kernel's operand array
  /// (deduplicated when an operand-sharing pattern matched).
  std::vector<uint16_t> fused_vals;
};

/// The compiled pipeline. `schema` is the final (post-select) schema that
/// result assembly maps onto QueryResult keys/values.
struct DagPlan {
  DagScan scan;
  std::vector<DagJoin> joins;
  DagAggregate agg;
  /// When present, runs in place of the scan's emitted rows and `agg`
  /// (such a plan has no joins); skipped by ExecOptions::force_dag and
  /// inside sub-query inputs.
  DagLeaf leaf;
  DagWindow window;
  /// Filter after aggregation/window (may reference their outputs), over
  /// the pre-select schema; optional.
  Expr final_filter;
  std::vector<uint16_t> select;  ///< Pre-select slots; empty = identity.
  std::vector<DagOutCol> schema;
  std::vector<DagSortKey> order;  ///< Over the final schema.
  int64_t limit = -1;             ///< -1 = unlimited.
};

/// ---- lowering (dag_build.cc) --------------------------------------------

/// Compiles the builder's collected pieces into a CompiledQuery carrying
/// a DagPlan (no leaf yet): resolves names stage by stage, pushes
/// Filter conjuncts to the earliest covering stage, type-checks every
/// expression against its stage schema, and unions the scan column sets
/// (including sub-plans') for the OLAP snapshot declaration.
Result<Query> BuildDagQuery(const QueryBuilder& builder);

/// Slot of `name` in `schema`, or -1.
int FindSlot(const std::vector<DagOutCol>& schema, const std::string& name);

/// expr.h's TypeCheck with columns resolved by schema name.
Result<ExprType> TypeCheckTuple(const Expr& expr,
                                const std::vector<DagOutCol>& schema);

/// Binds an expression for evaluation: params fold into literals, column
/// names resolve to schema slots, and string literals / string params in
/// dictionary equalities resolve to codes through the schema column's
/// dictionary. The result evaluates with EvalScalar over chunk or scan
/// block column spans (a base scan's schema mirrors its column set).
Result<BoundScalar> BindTupleScalar(const Expr& expr,
                                    const std::vector<DagOutCol>& schema,
                                    const Params& params);

/// Appends every parameter name referenced by `expr` to `names`.
void CollectParamNames(const Expr& expr, std::vector<std::string>* names);

/// ---- execution (dag_exec.cc) --------------------------------------------

/// Runs plan.dag inside `ctx` (which must cover plan.columns).
Status ExecuteDag(const CompiledQuery& plan, const engine::OlapContext& ctx,
                  const Params& params, const ExecOptions& options,
                  QueryResult* result);

/// ---- base-scan leaf (exec.cc) -------------------------------------------

/// Runs one filtered base-table scan into a fresh store. Without `leaf`
/// the store holds the passing rows in block order (scan.schema); with
/// it, the leaf's group rows (the aggregate stage's schema).
Status RunBaseScan(const DagScan& scan, const DagLeaf* leaf,
                   const engine::OlapContext& ctx, const Params& params,
                   const engine::ScanOptions& scan_opts, SpillArena* arena,
                   uint64_t* rows_scanned, engine::ScanStats* stats,
                   std::unique_ptr<TempTupleStore>* out);

}  // namespace anker::query

#endif  // ANKER_QUERY_DAG_H_
