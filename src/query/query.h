#ifndef ANKER_QUERY_QUERY_H_
#define ANKER_QUERY_QUERY_H_

// The composable query surface of the engine: typed expression trees
// (query/expr.h) assembled into declarative pipelines that compile onto a
// physical operator DAG — morsel-parallel scans, partitioned hash joins,
// hash aggregation, window functions and sort/top-k — whose single-table
// filtered aggregations run as a scan→aggregate leaf of block kernels. A
// workload becomes a ~10-line definition instead of a hand-rolled fold:
//
//   auto q = Query::On(lineitem)
//                .Filter(Col("l_shipdate") > Param("cutoff", kDate))
//                .Join({orders, Col("o_orderdate") < Param("cutoff2",
//                                                          kDate)},
//                      JoinType::kInner, {"l_orderkey"}, {"o_orderkey"})
//                .Aggregate({Sum(Col("l_extendedprice") *
//                                (F64(1.0) - Col("l_discount")))
//                                .As("revenue")})
//                .GroupBy({"l_orderkey"})
//                .OrderBy({{"revenue", true}})
//                .Limit(10)
//                .Build();
//   auto result = db.Run(q.value(), Params().SetDate("cutoff", 2436)...);
//
// See docs/QUERY_API.md for the full builder reference and the lowering
// rules onto the operator DAG and its scan→aggregate leaf.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "query/expr.h"
#include "query/plan.h"

namespace anker::query {

/// Per-execution parameter bindings for Param() placeholders. Chainable:
///   Params().SetDate("start", 800).SetDouble("disc", 0.05)
/// Binding a name the plan never references is reported by Execute /
/// Database::Run as a recoverable InvalidArgument (a typo'd parameter
/// name must not silently bind nothing).
class Params {
 public:
  Params& SetInt(const std::string& name, int64_t value);
  Params& SetDouble(const std::string& name, double value);
  Params& SetDate(const std::string& name, int64_t days);
  Params& SetDictCode(const std::string& name, uint32_t code);
  /// Dictionary parameter by text; resolved through the compared column's
  /// dictionary when the predicate is bound.
  Params& SetString(const std::string& name, std::string text);

  struct Value {
    ExprType type = ExprType::kInt64;
    uint64_t raw = 0;
    std::string text;
    bool is_string = false;
  };

  /// Raw binding (wire deserialization; the typed setters above are the
  /// ergonomic surface).
  Params& Set(const std::string& name, Value value) {
    values_[name] = std::move(value);
    return *this;
  }

  const Value* Find(const std::string& name) const;

  /// All bindings, name-ordered (wire serialization iterates them).
  const std::map<std::string, Value>& values() const { return values_; }

 private:
  std::map<std::string, Value> values_;
};

/// One aggregate of a query's output, built by the factories below.
class Agg {
 public:
  Agg() = default;
  Agg(AggKind kind, Expr expr) : kind_(kind), expr_(std::move(expr)) {}

  /// Names the output slot (defaults to agg<i> by position).
  Agg As(std::string name) const {
    Agg copy = *this;
    copy.name_ = std::move(name);
    return copy;
  }

  AggKind kind() const { return kind_; }
  const Expr& expr() const { return expr_; }
  const std::string& name() const { return name_; }

 private:
  AggKind kind_ = AggKind::kCount;
  Expr expr_;
  std::string name_;
};

Agg Sum(Expr expr);
Agg Count();
Agg Avg(Expr expr);
Agg Min(Expr expr);
Agg Max(Expr expr);
/// Number of distinct values of `expr` per group (hash aggregation only:
/// the scan→aggregate leaf carries no per-group distinct sets).
Agg CountDistinct(Expr expr);

/// Sort key of OrderBy / window ordering: column name of the stage's
/// output schema plus direction.
struct SortSpec {
  std::string column;
  bool desc = false;
};

/// One window function declaration. Aggregate functions (sum/avg/min/
/// max/count) are computed over the whole partition (no frame); kRank /
/// kRowNumber additionally need the window's order keys.
struct WindowDef {
  std::string name;
  WinFn fn = WinFn::kCount;
  Expr input;  ///< Invalid for kRank / kRowNumber / kCount.
};

WindowDef WinRank(std::string name);
WindowDef WinRowNumber(std::string name);
WindowDef WinCount(std::string name);
WindowDef WinSum(Expr input, std::string name);
WindowDef WinAvg(Expr input, std::string name);
WindowDef WinMin(Expr input, std::string name);
WindowDef WinMax(Expr input, std::string name);

/// One output column of a Select projection: a column of the current
/// schema, optionally renamed (the aliasing point for self-joins).
struct SelectItem {
  std::string column;
  std::string alias;  ///< Empty = keep the source name.
};

class Query;

/// Build side of a Join: a base table (optionally pre-filtered — the
/// filter runs inside the build scan) or a finished sub-query.
class JoinInput {
 public:
  JoinInput(storage::Table* table) : table_(table) {}  // NOLINT: implicit.
  JoinInput(storage::Table* table, Expr filter)
      : table_(table), filter_(std::move(filter)) {}
  JoinInput(const Query& sub);  // NOLINT: implicit.

  storage::Table* table() const { return table_; }
  const Expr& filter() const { return filter_; }
  const std::shared_ptr<const CompiledQuery>& sub() const { return sub_; }

 private:
  storage::Table* table_ = nullptr;
  Expr filter_;
  std::shared_ptr<const CompiledQuery> sub_;
};

/// Per-execution knobs of Execute / Database::Run. Defaults match the
/// plain overloads.
struct ExecOptions {
  /// Skip the plan's scan→aggregate leaf and run scan rows through hash
  /// aggregation instead: the differential reference for the leaf.
  bool force_dag = false;
  /// Memory budget of one execution's intermediate tuple stores; above
  /// it, completed chunks spill to anonymous temporary files.
  size_t spill_threshold_bytes = size_t{256} << 20;
  /// Overrides the transaction's scan options (thread pool, morsel size,
  /// test hooks) for every scan of this execution.
  const engine::ScanOptions* scan_options = nullptr;
};

/// Result of one query execution: named output columns per row, plus the
/// scan statistics of the underlying folds. Double-typed outputs land in
/// `values`; integer-domain outputs (group keys, dictionary codes, dates,
/// int64 projections) land in `keys`, typed by `key_types`.
struct QueryResult {
  struct Row {
    std::vector<uint64_t> keys;   ///< Integer-domain outputs (see key_types).
    std::vector<double> values;   ///< Double-typed outputs.
  };

  std::vector<std::string> columns;    ///< Names of the double outputs.
  std::vector<std::string> key_names;  ///< Names of the integer outputs.
  std::vector<ExprType> key_types;     ///< One per key column.
  /// Key/value interleave of the producing plan's output schema: one tag
  /// per output column in schema order (0 = key slot, 1 = value slot).
  /// Empty means "keys then values". Lets a consumer that re-sorts rows
  /// (the shard router's merge) reproduce the engine's full-row tiebreak
  /// order exactly. Filled by the DAG executor; travels in QUERY_DONE.
  std::vector<uint8_t> interleave;
  std::vector<Row> rows;
  uint64_t rows_scanned = 0;
  /// Shards that did NOT contribute to this result (down or failing
  /// mid-query under the router's --allow_partial). 0 = complete. A
  /// non-zero count means aggregates under-count and rows are missing;
  /// travels in QUERY_DONE so clients can tell degraded from complete.
  /// Always 0 from a single engine server.
  uint32_t shards_missing = 0;
  engine::ScanStats scan;

  /// Single-row convenience: value of the named aggregate in rows[0].
  /// CHECK-fails when the result is empty or the name is unknown.
  double Value(const std::string& name) const;
};

/// An immutable, compiled query plan. Cheap to copy (shared state),
/// reusable across executions and threads; parameters vary per Run.
class Query {
 public:
  Query() = default;

  /// Entry point of the builder chain.
  static class QueryBuilder On(storage::Table* table);
  /// Pipelines over the rows another query produces (sub-query input).
  static class QueryBuilder On(const Query& sub);

  bool valid() const { return plan_ != nullptr; }
  storage::Table* table() const { return plan_->table; }
  /// Every column the query touches, across all of its scans — the engine
  /// materializes snapshots for exactly this set.
  const std::vector<storage::Column*>& columns() const {
    return plan_->columns;
  }

  const CompiledQuery& plan() const { return *plan_; }
  const std::shared_ptr<const CompiledQuery>& shared_plan() const {
    return plan_;
  }

 private:
  friend class QueryBuilder;
  friend Result<Query> BuildDagQuery(const QueryBuilder& builder);
  explicit Query(std::shared_ptr<const CompiledQuery> plan)
      : plan_(std::move(plan)) {}
  std::shared_ptr<const CompiledQuery> plan_;
};

/// Collects the declarative pieces; Build() type-checks against the
/// schemas involved and lowers onto the operator DAG, adding a
/// scan→aggregate leaf when the shape allows. Stage order is fixed: input -> joins (declaration
/// order) -> aggregate -> having -> window -> PostFilter -> Select ->
/// OrderBy -> Limit. Filter() conjuncts are pushed to the earliest stage
/// whose schema covers their columns (base scan, or after some join).
/// Column names must be unambiguous across every input; rename through a
/// Select in a sub-query where they are not (self-joins).
class QueryBuilder {
 public:
  explicit QueryBuilder(storage::Table* table) : table_(table) {}
  explicit QueryBuilder(const Query& sub);

  /// Adds a filter; multiple calls conjoin.
  QueryBuilder& Filter(Expr predicate);
  /// Declares the aggregate outputs (appends).
  QueryBuilder& Aggregate(std::vector<Agg> aggs);
  /// Groups the aggregates. The DAG's hash aggregation takes keys of any
  /// type; the scan→aggregate leaf additionally requires dictionary
  /// columns with small packed domains.
  QueryBuilder& GroupBy(std::vector<std::string> columns);

  /// Hash-joins the pipeline (probe side) against `build`. Key lists are
  /// positional pairs of equal length and matching types. `residual` is
  /// an extra boolean over the combined probe+build schema evaluated per
  /// candidate pair (non-equi conditions). Inner and left-outer joins
  /// append the build columns (minus its keys) to the schema; left-outer
  /// additionally appends an int64 `__matched` flag (0 for the padded
  /// probe-only rows, whose build columns are zeroed). Semi/anti joins
  /// keep the probe schema only.
  QueryBuilder& Join(JoinInput build, JoinType type,
                     std::vector<std::string> probe_keys,
                     std::vector<std::string> build_keys,
                     Expr residual = Expr());

  /// Filters groups after aggregation (over group keys + agg outputs).
  QueryBuilder& Having(Expr predicate);

  /// Appends window function outputs: every function is computed per
  /// partition (whole-partition frame), with kRank / kRowNumber ordered
  /// by `order`.
  QueryBuilder& Window(std::vector<WindowDef> funcs,
                       std::vector<std::string> partition_by,
                       std::vector<SortSpec> order = {});

  /// Filters rows after aggregation and window functions (may reference
  /// window outputs).
  QueryBuilder& PostFilter(Expr predicate);

  /// Projects (and renames) the output schema. A query must declare
  /// aggregates, a Select, or both.
  QueryBuilder& Select(std::vector<SelectItem> items);

  /// Sorts the final rows. Deterministic: ties break by the full row, so
  /// top-k results are stable across execution strategies.
  QueryBuilder& OrderBy(std::vector<SortSpec> keys);

  /// Keeps the first `n` rows (after OrderBy when present).
  QueryBuilder& Limit(int64_t n);

  /// Type-checks and compiles. Errors: NotFound (unknown column),
  /// InvalidArgument (type errors, non-boolean filter, duplicate or
  /// ambiguous names, key list mismatches), NotSupported (unsupported
  /// shapes).
  Result<Query> Build() const;

  /// One collected Join clause (consumed by the DAG lowering).
  struct JoinClause {
    JoinInput input;
    JoinType type = JoinType::kInner;
    std::vector<std::string> probe_keys;
    std::vector<std::string> build_keys;
    Expr residual;
  };

 private:
  friend Result<Query> BuildDagQuery(const QueryBuilder& builder);

  storage::Table* table_ = nullptr;
  std::shared_ptr<const CompiledQuery> sub_;
  Expr filter_;
  std::vector<Agg> aggs_;
  std::vector<std::string> group_by_;
  std::vector<JoinClause> joins_;
  Expr having_;
  bool has_window_ = false;
  std::vector<WindowDef> win_funcs_;
  std::vector<std::string> win_partition_;
  std::vector<SortSpec> win_order_;
  Expr post_filter_;
  std::vector<SelectItem> select_;
  std::vector<SortSpec> order_by_;
  int64_t limit_ = -1;
};

/// Executes a compiled query inside an existing OLAP transaction whose
/// column set covers query.columns() (returns InvalidArgument otherwise).
/// Most callers want Database::Run, which manages the transaction and
/// infers the column set.
Status Execute(const Query& query, const engine::OlapContext& ctx,
               const Params& params, QueryResult* result);
Status Execute(const Query& query, const engine::OlapContext& ctx,
               const Params& params, const ExecOptions& options,
               QueryResult* result);

}  // namespace anker::query

#endif  // ANKER_QUERY_QUERY_H_
