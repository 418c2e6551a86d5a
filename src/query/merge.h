#ifndef ANKER_QUERY_MERGE_H_
#define ANKER_QUERY_MERGE_H_

// Scatter-gather planning and partial-result merging for the shard
// router (src/shard/). Given a WireQuery and the shard map's table
// layout, PlanScatter decides how the query distributes:
//
//  - kSingleShard: the plan touches only replicated tables, so any one
//    shard computes the complete answer — the router forwards the query
//    verbatim to one healthy backend.
//  - kConcat: every result row is produced whole by exactly one shard
//    (the plan's streams are provably shard-disjoint), so the global
//    answer is the concatenation of the shard answers, re-sorted and
//    re-limited at the router when the query ordered. Per-shard top-k
//    stays on the shards: a row in the global top-k is necessarily in
//    its own shard's top-k under the engine's total row order.
//  - kPartialAgg: a global (or non-co-partitioned grouped) aggregation
//    over a disjoint stream. Each shard computes partial aggregates —
//    AVG rewritten to SUM plus one appended hidden COUNT — and the
//    router re-aggregates by group key and finalizes AVG = sum/count
//    with the same operands the single-node engine would divide.
//  - kUnsupported: the plan genuinely needs rows from multiple shards
//    in one operator (a non-co-partitioned join, a DISTINCT count over
//    a scattered stream, ...). The router surfaces this as a
//    recoverable NotSupported wire error.
//
// The disjointness analysis tracks, per stream, whether it is
// replicated (identical on every shard) or a disjoint partition of the
// global stream, plus which output columns are "aligned": equal values
// in an aligned column only ever co-occur on one shard (the partition
// key and anything joined or grouped through it). Grouping on an
// aligned column keeps groups shard-local; joining disjoint streams is
// valid only through aligned key pairs (co-partitioned).

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/serialize.h"

namespace anker::query {

/// Table layout from the router's shard map: table name -> hash
/// partition key column. Tables absent from the map are replicated
/// (loaded identically on every shard).
using PartitionMap = std::map<std::string, std::string>;

enum class ScatterMode {
  kSingleShard,
  kConcat,
  kPartialAgg,
  kUnsupported,
};

struct ScatterPlan {
  ScatterMode mode = ScatterMode::kUnsupported;
  /// kUnsupported: what made the plan cross-shard.
  std::string reason;
  /// The query each shard executes (kConcat: the original verbatim;
  /// kPartialAgg: AVG->SUM rewrite, hidden COUNT appended, order/limit
  /// stripped). Unset for kSingleShard — forward the original bytes.
  WireQuery shard_query;
  /// kPartialAgg: merge kind per original aggregate output, in order.
  std::vector<AggKind> agg_kinds;
  /// kPartialAgg: a hidden Count was appended to shard_query's aggs
  /// (dropped again by MergeShardResults after AVG finalization).
  bool hidden_count = false;
  /// Router-side ordering obligations (from the original query).
  std::vector<SortSpec> order_by;
  int64_t limit = -1;
};

/// Classifies `query` against the shard layout. Infallible: an
/// unanalyzable or genuinely cross-shard plan comes back as
/// kUnsupported with a reason, never an error.
ScatterPlan PlanScatter(const WireQuery& query,
                        const PartitionMap& partitioned);

/// Merges per-shard results under `plan` (kConcat or kPartialAgg).
/// `parts` must hold at least one result; all parts must agree on the
/// output schema (same query, same engine — a mismatch is an Internal
/// error). The merged result is bit-identical to a single-node run over
/// the union of the shard data whenever the workload's sums are exact
/// in double arithmetic (associativity), which the router smoke
/// enforces by construction.
Status MergeShardResults(const ScatterPlan& plan,
                         std::vector<QueryResult> parts, QueryResult* out);

}  // namespace anker::query

#endif  // ANKER_QUERY_MERGE_H_
