#include "query/merge.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "storage/value.h"

namespace anker::query {

namespace {

/// Hidden per-group row count appended to partial-aggregate shard
/// queries so the router can finalize AVG = sum / count. Dropped from
/// the merged result before it leaves the router.
constexpr char kHiddenCountName[] = "__shard_count";

// ---------------------------------------------------------------------------
// Distribution analysis
// ---------------------------------------------------------------------------

/// What the sharded execution of a (sub-)stream produces, per shard.
struct StreamInfo {
  bool ok = false;          ///< false: cross-shard; `reason` says why.
  std::string reason;
  /// !ok: the refusal is the ROOT query's own aggregation over a
  /// partitioned stream — the one shape PlanScatter can repair with
  /// router-side partial aggregation. Never set for a refusal that
  /// originates inside a nested sub-query or join input: those
  /// partials would feed another operator on the shard, so each shard
  /// would aggregate over its partition alone and the merged answer
  /// would be silently wrong.
  bool root_agg = false;
  bool replicated = false;  ///< Identical rows on every shard.
  /// !replicated: the shard streams partition the global stream, and
  /// equal values in these output columns only occur on one shard.
  std::set<std::string> aligned;
};

StreamInfo Unsupported(std::string reason) {
  StreamInfo info;
  info.reason = std::move(reason);
  return info;
}

StreamInfo Replicated() {
  StreamInfo info;
  info.ok = true;
  info.replicated = true;
  return info;
}

StreamInfo TableStream(const std::string& table,
                       const PartitionMap& partitioned) {
  auto it = partitioned.find(table);
  if (it == partitioned.end()) return Replicated();
  StreamInfo info;
  info.ok = true;
  info.aligned.insert(it->second);
  return info;
}

/// `nested`: true below the root — a nested stream cannot fall back to
/// router-side partial aggregation, its rows feed another operator.
StreamInfo AnalyzeStream(const WireQuery& q, const PartitionMap& partitioned,
                         size_t depth, bool nested);

/// Combines probe stream `in` with one join clause.
StreamInfo CombineJoin(const StreamInfo& in, const WireJoin& join,
                       const PartitionMap& partitioned, size_t depth) {
  const StreamInfo build =
      join.input.sub != nullptr
          ? AnalyzeStream(*join.input.sub, partitioned, depth + 1, true)
          : TableStream(join.input.table, partitioned);
  if (!build.ok) return build;

  if (in.replicated && build.replicated) return Replicated();

  if (!in.replicated && build.replicated) {
    // Disjoint probe against the full build side on every shard: each
    // probe row meets its complete match set locally, so the per-shard
    // outputs partition the global join for every join type.
    StreamInfo out;
    out.ok = true;
    out.aligned = in.aligned;
    return out;
  }

  if (in.replicated && !build.replicated) {
    // Each output row is pinned to exactly one build row's shard — but
    // only for INNER joins. Semi/anti/outer decide row fate from "did
    // ANY build row match", which a single shard cannot answer.
    if (join.type != JoinType::kInner) {
      return Unsupported(
          "semi/anti/outer join of a replicated stream against a "
          "partitioned build side is cross-shard");
    }
    StreamInfo out;
    out.ok = true;
    out.aligned = build.aligned;
    // The equi-join transfers alignment onto the probe keys: a probe
    // key equals an aligned build key in every output row.
    for (size_t i = 0; i < join.build_keys.size() &&
                       i < join.probe_keys.size();
         ++i) {
      if (build.aligned.count(join.build_keys[i]) != 0) {
        out.aligned.insert(join.probe_keys[i]);
      }
    }
    return out;
  }

  // Disjoint join disjoint: valid only when co-partitioned — some equi
  // key pair is aligned on both sides, so matching rows share a shard.
  bool co_partitioned = false;
  for (size_t i = 0;
       i < join.probe_keys.size() && i < join.build_keys.size(); ++i) {
    if (in.aligned.count(join.probe_keys[i]) != 0 &&
        build.aligned.count(join.build_keys[i]) != 0) {
      co_partitioned = true;
      break;
    }
  }
  if (!co_partitioned) {
    return Unsupported(
        "join of two partitioned streams without a co-partitioned key "
        "pair is cross-shard");
  }
  StreamInfo out;
  out.ok = true;
  out.aligned = in.aligned;
  out.aligned.insert(build.aligned.begin(), build.aligned.end());
  for (size_t i = 0;
       i < join.probe_keys.size() && i < join.build_keys.size(); ++i) {
    if (build.aligned.count(join.build_keys[i]) != 0) {
      out.aligned.insert(join.probe_keys[i]);
    }
    if (in.aligned.count(join.probe_keys[i]) != 0) {
      out.aligned.insert(join.build_keys[i]);
    }
  }
  return out;
}

StreamInfo AnalyzeStream(const WireQuery& q, const PartitionMap& partitioned,
                         size_t depth, bool nested) {
  if (depth > kMaxWireQueryDepth) {
    return Unsupported("query nesting exceeds the wire depth limit");
  }

  StreamInfo info = q.sub != nullptr
                        ? AnalyzeStream(*q.sub, partitioned, depth + 1, true)
                        : TableStream(q.table, partitioned);
  if (!info.ok) return info;
  // q.filter: row-local, preserves both distribution and alignment.

  for (const WireJoin& join : q.joins) {
    info = CombineJoin(info, join, partitioned, depth);
    if (!info.ok) return info;
  }

  if (!q.aggs.empty()) {
    if (info.replicated) {
      info = Replicated();
    } else {
      // Groups are shard-local iff some group key is aligned.
      std::set<std::string> aligned_keys;
      for (const std::string& key : q.group_by) {
        if (info.aligned.count(key) != 0) aligned_keys.insert(key);
      }
      if (aligned_keys.empty()) {
        // Root-level: the caller falls back to partial aggregation.
        // Nested: the partials would feed another operator — refuse.
        StreamInfo refusal = Unsupported(
            q.group_by.empty()
                ? "global aggregate over a partitioned stream"
                : "group-by without a partition-aligned key over a "
                  "partitioned stream");
        refusal.root_agg = !nested;
        return refusal;
      }
      info.aligned = std::move(aligned_keys);
      // q.having filters complete shard-local groups: fine.
    }
  }

  if (q.has_window && !info.replicated) {
    bool aligned_partition = false;
    for (const std::string& key : q.win_partition) {
      if (info.aligned.count(key) != 0) {
        aligned_partition = true;
        break;
      }
    }
    if (!aligned_partition) {
      return Unsupported(
          "window partition without a partition-aligned key over a "
          "partitioned stream");
    }
  }
  // q.post_filter: row-local, fine.

  if (!q.select.empty() && !info.replicated) {
    std::set<std::string> renamed;
    for (const SelectItem& item : q.select) {
      if (info.aligned.count(item.column) != 0) {
        renamed.insert(item.alias.empty() ? item.column : item.alias);
      }
    }
    info.aligned = std::move(renamed);
  }

  if (nested && !info.replicated && q.limit >= 0) {
    // A nested top-k is global: per-shard top-k rows are not the rows
    // the outer operator would have consumed.
    return Unsupported("limit inside a partitioned sub-query is global");
  }
  return info;
}

bool NameCollides(const WireQuery& q, const std::string& name) {
  for (const Agg& agg : q.aggs) {
    if (agg.name() == name) return true;
  }
  for (const std::string& key : q.group_by) {
    if (key == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Merge-time row comparison (replicates dag_exec's CompareTyped /
// RowCompare total order at the QueryResult level)
// ---------------------------------------------------------------------------

/// Addresses one output column inside a QueryResult row.
struct CellRef {
  bool is_value = false;  ///< values[] (double) vs keys[] (typed raw).
  size_t index = 0;
  ExprType type = ExprType::kDouble;
};

int CompareCell(const QueryResult::Row& a, const QueryResult::Row& b,
                const CellRef& cell) {
  if (cell.is_value) {
    const double x = a.values[cell.index];
    const double y = b.values[cell.index];
    if (x < y) return -1;
    if (x > y) return 1;
    // Raw-bits tiebreak (-0.0 vs 0.0), as in the DAG executor.
    const uint64_t xr = storage::EncodeDouble(x);
    const uint64_t yr = storage::EncodeDouble(y);
    if (xr < yr) return -1;
    if (xr > yr) return 1;
    return 0;
  }
  const uint64_t xr = a.keys[cell.index];
  const uint64_t yr = b.keys[cell.index];
  if (cell.type == ExprType::kDict) {
    // Keys hold decoded codes; unsigned order.
    if (xr < yr) return -1;
    if (xr > yr) return 1;
    return 0;
  }
  const int64_t x = storage::DecodeInt64(xr);
  const int64_t y = storage::DecodeInt64(yr);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

/// Output columns in the producing plan's schema order, for the
/// full-row tiebreak. Falls back to keys-then-values when the result
/// carries no interleave.
std::vector<CellRef> SchemaOrder(const QueryResult& result) {
  std::vector<CellRef> order;
  if (result.interleave.size() ==
      result.columns.size() + result.key_names.size()) {
    size_t ki = 0, vi = 0;
    for (const uint8_t tag : result.interleave) {
      CellRef cell;
      if (tag == 1) {
        cell.is_value = true;
        cell.index = vi++;
      } else {
        cell.index = ki;
        cell.type = result.key_types[ki];
        ++ki;
      }
      order.push_back(cell);
    }
    return order;
  }
  for (size_t k = 0; k < result.key_names.size(); ++k) {
    CellRef cell;
    cell.index = k;
    cell.type = result.key_types[k];
    order.push_back(cell);
  }
  for (size_t v = 0; v < result.columns.size(); ++v) {
    CellRef cell;
    cell.is_value = true;
    cell.index = v;
    order.push_back(cell);
  }
  return order;
}

Status ResolveSortKeys(const QueryResult& result,
                       const std::vector<SortSpec>& order_by,
                       std::vector<std::pair<CellRef, bool>>* keys) {
  keys->clear();
  for (const SortSpec& spec : order_by) {
    CellRef cell;
    bool found = false;
    for (size_t k = 0; k < result.key_names.size(); ++k) {
      if (result.key_names[k] == spec.column) {
        cell.index = k;
        cell.type = result.key_types[k];
        found = true;
        break;
      }
    }
    if (!found) {
      for (size_t v = 0; v < result.columns.size(); ++v) {
        if (result.columns[v] == spec.column) {
          cell.is_value = true;
          cell.index = v;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      return Status::Internal("merge sort key '" + spec.column +
                              "' missing from the shard result schema");
    }
    keys->emplace_back(cell, spec.desc);
  }
  return Status::OK();
}

/// Sorts rows by the order keys (desc flips) with the full row in
/// schema order as the tiebreak — the DAG executor's RowCompare.
Status SortRows(QueryResult* result, const std::vector<SortSpec>& order_by) {
  std::vector<std::pair<CellRef, bool>> sort_keys;
  ANKER_RETURN_IF_ERROR(ResolveSortKeys(*result, order_by, &sort_keys));
  const std::vector<CellRef> schema = SchemaOrder(*result);
  std::sort(result->rows.begin(), result->rows.end(),
            [&](const QueryResult::Row& a, const QueryResult::Row& b) {
              for (const auto& [cell, desc] : sort_keys) {
                const int c = CompareCell(a, b, cell);
                if (c != 0) return desc ? c > 0 : c < 0;
              }
              for (const CellRef& cell : schema) {
                const int c = CompareCell(a, b, cell);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return Status::OK();
}

Status CheckSchemasAgree(const std::vector<QueryResult>& parts) {
  if (parts.empty()) {
    return Status::Internal("merge called with no shard results");
  }
  const QueryResult& first = parts.front();
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].columns != first.columns ||
        parts[i].key_names != first.key_names ||
        parts[i].key_types != first.key_types ||
        parts[i].interleave != first.interleave) {
      return Status::Internal(
          "shard results disagree on the output schema");
    }
  }
  return Status::OK();
}

void AdoptMetadata(const QueryResult& from, QueryResult* out) {
  out->columns = from.columns;
  out->key_names = from.key_names;
  out->key_types = from.key_types;
  out->interleave = from.interleave;
  out->rows.clear();
  out->rows_scanned = 0;
}

Status MergeConcat(const ScatterPlan& plan, std::vector<QueryResult> parts,
                   QueryResult* out) {
  AdoptMetadata(parts.front(), out);
  for (QueryResult& part : parts) {
    out->rows_scanned += part.rows_scanned;
    for (QueryResult::Row& row : part.rows) {
      out->rows.push_back(std::move(row));
    }
  }
  if (!plan.order_by.empty()) {
    ANKER_RETURN_IF_ERROR(SortRows(out, plan.order_by));
  }
  if (plan.limit >= 0 &&
      out->rows.size() > static_cast<size_t>(plan.limit)) {
    out->rows.resize(static_cast<size_t>(plan.limit));
  }
  return Status::OK();
}

Status MergePartialAgg(const ScatterPlan& plan,
                       std::vector<QueryResult> parts, QueryResult* out) {
  const size_t expected_cols =
      plan.agg_kinds.size() + (plan.hidden_count ? 1 : 0);
  const QueryResult& first = parts.front();
  if (first.columns.size() != expected_cols) {
    // A double-typed group key would land in `columns` and shift the
    // aggregate slots; the layouts this router ships never do that.
    return Status::NotSupported(
        "partial-aggregate merge requires integer-domain group keys");
  }

  AdoptMetadata(first, out);
  // Group rows by key vector. Keys are exact (integer-domain raws), so
  // a map keyed on the vector is the same grouping the engine does.
  std::map<std::vector<uint64_t>, std::vector<double>> groups;
  for (const QueryResult& part : parts) {
    out->rows_scanned += part.rows_scanned;
    for (const QueryResult::Row& row : part.rows) {
      auto [it, inserted] = groups.emplace(row.keys, row.values);
      if (inserted) continue;
      std::vector<double>& acc = it->second;
      for (size_t c = 0; c < acc.size() && c < row.values.size(); ++c) {
        const AggKind kind =
            c < plan.agg_kinds.size() ? plan.agg_kinds[c] : AggKind::kCount;
        switch (kind) {
          case AggKind::kSum:
          case AggKind::kCount:
          case AggKind::kAvg:  // Travels as a partial SUM (rewrite).
            acc[c] += row.values[c];
            break;
          case AggKind::kMin:
            acc[c] = std::min(acc[c], row.values[c]);
            break;
          case AggKind::kMax:
            acc[c] = std::max(acc[c], row.values[c]);
            break;
          case AggKind::kCountDistinct:
            return Status::NotSupported(
                "COUNT(DISTINCT) cannot merge from partials");
        }
      }
    }
  }

  // Finalize AVG with the engine's exact operands: the global sum
  // divided by the global row count (dag_exec finalizes acc / count the
  // same way), then drop the hidden count column.
  const size_t count_col = expected_cols - 1;  // Hidden count is last.
  for (auto& [keys, values] : groups) {
    if (plan.hidden_count) {
      for (size_t c = 0; c < plan.agg_kinds.size(); ++c) {
        if (plan.agg_kinds[c] == AggKind::kAvg) {
          values[c] = values[count_col] > 0.0 ? values[c] / values[count_col]
                                              : 0.0;
        }
      }
      values.resize(count_col);
    }
    QueryResult::Row row;
    row.keys = keys;
    row.values = std::move(values);
    out->rows.push_back(std::move(row));
  }
  if (plan.hidden_count) {
    out->columns.resize(count_col);
    if (!out->interleave.empty()) {
      // The hidden count is the last value slot in schema order.
      for (size_t i = out->interleave.size(); i-- > 0;) {
        if (out->interleave[i] == 1) {
          out->interleave.erase(out->interleave.begin() +
                                static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  // groups is key-ordered already (std::map over the key raws), which
  // is deterministic; an explicit ORDER BY re-sorts below.
  if (!plan.order_by.empty()) {
    ANKER_RETURN_IF_ERROR(SortRows(out, plan.order_by));
  }
  if (plan.limit >= 0 &&
      out->rows.size() > static_cast<size_t>(plan.limit)) {
    out->rows.resize(static_cast<size_t>(plan.limit));
  }
  return Status::OK();
}

}  // namespace


ScatterPlan PlanScatter(const WireQuery& query,
                        const PartitionMap& partitioned) {
  ScatterPlan plan;
  const StreamInfo info = AnalyzeStream(query, partitioned, 0, false);
  if (info.ok) {
    if (info.replicated) {
      plan.mode = ScatterMode::kSingleShard;
      return plan;
    }
    plan.mode = ScatterMode::kConcat;
    plan.shard_query = query;
    plan.order_by = query.order_by;
    plan.limit = query.limit;
    return plan;
  }

  // The only refusal the router can repair itself: the ROOT query's
  // own aggregation over a disjoint stream merges from shard partials.
  // The flag — not the reason text — carries that decision: a nested
  // sub-query's aggregate produces the same reason, but its partials
  // feed another operator and must stay kUnsupported.
  if (!info.root_agg) {
    plan.reason = info.reason;
    return plan;
  }
  if (query.having.valid() || query.has_window ||
      query.post_filter.valid() || !query.select.empty()) {
    plan.reason =
        "having/window/post-filter/select over cross-shard partial "
        "aggregates";
    return plan;
  }
  for (const Agg& agg : query.aggs) {
    if (agg.kind() == AggKind::kCountDistinct) {
      plan.reason = "COUNT(DISTINCT) over a partitioned stream";
      return plan;
    }
  }
  if (NameCollides(query, kHiddenCountName)) {
    plan.reason = "query uses the router's reserved column name";
    return plan;
  }

  plan.mode = ScatterMode::kPartialAgg;
  plan.shard_query = query;
  plan.shard_query.order_by.clear();
  plan.shard_query.limit = -1;
  plan.order_by = query.order_by;
  plan.limit = query.limit;
  bool any_avg = false;
  for (Agg& agg : plan.shard_query.aggs) {
    plan.agg_kinds.push_back(agg.kind());
    if (agg.kind() == AggKind::kAvg) {
      any_avg = true;
      agg = Agg(AggKind::kSum, agg.expr()).As(agg.name());
    }
  }
  if (any_avg) {
    plan.hidden_count = true;
    plan.shard_query.aggs.push_back(Count().As(kHiddenCountName));
  }
  return plan;
}

Status MergeShardResults(const ScatterPlan& plan,
                         std::vector<QueryResult> parts, QueryResult* out) {
  *out = QueryResult();
  ANKER_RETURN_IF_ERROR(CheckSchemasAgree(parts));
  switch (plan.mode) {
    case ScatterMode::kConcat:
      return MergeConcat(plan, std::move(parts), out);
    case ScatterMode::kPartialAgg:
      return MergePartialAgg(plan, std::move(parts), out);
    case ScatterMode::kSingleShard:
    case ScatterMode::kUnsupported:
      return Status::Internal("merge called for a non-merging mode");
  }
  return Status::Internal("unknown scatter mode");
}

}  // namespace anker::query
