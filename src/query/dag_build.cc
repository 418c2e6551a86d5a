#include "query/dag.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "query/plan.h"

namespace anker::query {

namespace {

void AddName(const std::string& name, std::vector<std::string>* names) {
  for (const std::string& n : *names) {
    if (n == name) return;
  }
  names->push_back(name);
}

void CollectColumnNames(const ExprNode* node,
                        std::vector<std::string>* names) {
  if (node == nullptr) return;
  if (node->kind == ExprKind::kColumn) {
    AddName(node->name, names);
    return;
  }
  CollectColumnNames(node->lhs.get(), names);
  CollectColumnNames(node->rhs.get(), names);
}

void CollectExprColumnNames(const Expr& expr,
                            std::vector<std::string>* names) {
  if (expr.valid()) CollectColumnNames(expr.node(), names);
}

Result<uint16_t> ResolveSlot(const std::vector<DagOutCol>& schema,
                             const std::string& name,
                             const std::string& where) {
  const int slot = FindSlot(schema, name);
  if (slot < 0) {
    return Status::NotFound("no column '" + name + "' " + where);
  }
  return static_cast<uint16_t>(slot);
}

void FlattenAnd(const Expr& expr, std::vector<Expr>* out) {
  if (!expr.valid()) return;
  if (expr.node()->kind == ExprKind::kAnd) {
    FlattenAnd(Expr(expr.node()->lhs), out);
    FlattenAnd(Expr(expr.node()->rhs), out);
    return;
  }
  out->push_back(expr);
}

bool SchemaCovers(const std::vector<DagOutCol>& schema,
                  const std::vector<std::string>& names) {
  for (const std::string& n : names) {
    if (FindSlot(schema, n) < 0) return false;
  }
  return true;
}

/// Fails unless `type` (the result of type-checking `what`) is kBool.
Status CheckBool(const Result<ExprType>& type, const std::string& what) {
  if (!type.ok()) return type.status();
  if (type.value() != ExprType::kBool) {
    return Status::InvalidArgument(what + " must be boolean, got " +
                                   ExprTypeName(type.value()));
  }
  return Status::OK();
}

std::vector<DagOutCol> ScanSchema(
    storage::Table* table, const std::vector<storage::Column*>& columns) {
  std::vector<DagOutCol> schema;
  schema.reserve(columns.size());
  for (storage::Column* column : columns) {
    DagOutCol out;
    out.name = column->name();
    out.type = ExprTypeFor(column->type());
    if (out.type == ExprType::kDict) {
      out.dict = table->GetDictionary(out.name);
    }
    schema.push_back(std::move(out));
  }
  return schema;
}

/// Builds the scan of one base-table input: lowers `filter` into scan
/// predicates, then materializes every globally referenced column the
/// table provides. A scan always projects at least one column (row
/// counting needs a spine even when nothing is referenced).
Result<DagScan> BuildTableScan(storage::Table* table, const Expr& filter,
                               const std::vector<std::string>& all_names) {
  DagScan scan;
  scan.table = table;
  ColumnSet cols(table);
  ANKER_RETURN_IF_ERROR(
      LowerFilter(filter, &cols, &scan.preds, &scan.generic_preds));
  for (const std::string& name : all_names) {
    if (table->HasColumn(name)) {
      ANKER_RETURN_IF_ERROR(cols.Use(name).status());
    }
  }
  if (cols.columns().empty()) {
    if (table->schema().empty()) {
      return Status::InvalidArgument("table '" + table->name() +
                                     "' has no columns");
    }
    ANKER_RETURN_IF_ERROR(cols.Use(table->schema()[0].name).status());
  }
  scan.columns = cols.columns();
  scan.schema = ScanSchema(table, scan.columns);
  return scan;
}

/// The text of a string operand (Str literal or param bound as a string),
/// if `node` is one.
bool StringOperand(const ExprNode* node, const Params& params,
                   std::string* text) {
  if (node->kind == ExprKind::kLiteral && node->is_string) {
    *text = node->text;
    return true;
  }
  if (node->kind == ExprKind::kParam) {
    const Params::Value* value = params.Find(node->name);
    if (value != nullptr && value->is_string) {
      *text = value->text;
      return true;
    }
  }
  return false;
}

Result<std::shared_ptr<const ExprNode>> BindTupleNode(
    const ExprNode* node, const std::vector<DagOutCol>& schema,
    const Params& params) {
  auto out = std::make_shared<ExprNode>();
  out->kind = node->kind;
  switch (node->kind) {
    case ExprKind::kColumn: {
      const int slot = FindSlot(schema, node->name);
      if (slot < 0) {
        return Status::Internal("column '" + node->name +
                                "' missing from stage schema");
      }
      out->name = node->name;
      out->type = schema[slot].type;
      out->raw = static_cast<uint64_t>(slot);
      return std::shared_ptr<const ExprNode>(std::move(out));
    }
    case ExprKind::kLiteral: {
      if (node->is_string) {
        return Status::InvalidArgument(
            "string literal is only valid in a dictionary equality "
            "predicate");
      }
      out->type = node->type;
      out->raw = node->raw;
      return std::shared_ptr<const ExprNode>(std::move(out));
    }
    case ExprKind::kParam: {
      auto value = EvalConstExpr(node, params);
      if (!value.ok()) return value.status();
      out->kind = ExprKind::kLiteral;
      out->type = value.value().type;
      out->raw = value.value().raw;
      return std::shared_ptr<const ExprNode>(std::move(out));
    }
    case ExprKind::kEq:
    case ExprKind::kNe: {
      // Dictionary equality by text: resolve the string side through the
      // compared column's dictionary, mirroring BindOnePred.
      std::string text;
      const ExprNode* col_side = nullptr;
      bool lhs_is_text = false;
      if (StringOperand(node->lhs.get(), params, &text)) {
        col_side = node->rhs.get();
        lhs_is_text = true;
      } else if (StringOperand(node->rhs.get(), params, &text)) {
        col_side = node->lhs.get();
      }
      if (col_side != nullptr) {
        if (col_side->kind != ExprKind::kColumn) {
          return Status::InvalidArgument(
              "string compare requires a dictionary column operand");
        }
        const int slot = FindSlot(schema, col_side->name);
        if (slot < 0) {
          return Status::Internal("column '" + col_side->name +
                                  "' missing from stage schema");
        }
        const DagOutCol& col = schema[slot];
        if (col.type != ExprType::kDict || col.dict == nullptr) {
          return Status::InvalidArgument(
              "string compare against non-dict column '" + col.name + "'");
        }
        auto code = col.dict->Lookup(text);
        if (!code.ok()) {
          return Status::NotFound("value '" + text +
                                  "' not in dictionary of column '" +
                                  col.name + "'");
        }
        auto col_node = std::make_shared<ExprNode>();
        col_node->kind = ExprKind::kColumn;
        col_node->name = col_side->name;
        col_node->type = ExprType::kDict;
        col_node->raw = static_cast<uint64_t>(slot);
        auto lit_node = std::make_shared<ExprNode>();
        lit_node->kind = ExprKind::kLiteral;
        lit_node->type = ExprType::kDict;
        lit_node->raw = storage::EncodeDict(code.value());
        out->lhs = lhs_is_text ? std::shared_ptr<const ExprNode>(lit_node)
                               : std::shared_ptr<const ExprNode>(col_node);
        out->rhs = lhs_is_text ? std::shared_ptr<const ExprNode>(col_node)
                               : std::shared_ptr<const ExprNode>(lit_node);
        return std::shared_ptr<const ExprNode>(std::move(out));
      }
      [[fallthrough]];
    }
    default: {
      auto lhs = BindTupleNode(node->lhs.get(), schema, params);
      if (!lhs.ok()) return lhs.status();
      auto rhs = BindTupleNode(node->rhs.get(), schema, params);
      if (!rhs.ok()) return rhs.status();
      out->lhs = lhs.TakeValue();
      out->rhs = rhs.TakeValue();
      return std::shared_ptr<const ExprNode>(std::move(out));
    }
  }
}

void CollectParamNamesNode(const ExprNode* node,
                           std::vector<std::string>* names) {
  if (node == nullptr) return;
  if (node->kind == ExprKind::kParam) names->push_back(node->name);
  CollectParamNamesNode(node->lhs.get(), names);
  CollectParamNamesNode(node->rhs.get(), names);
}

}  // namespace

int FindSlot(const std::vector<DagOutCol>& schema, const std::string& name) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<ExprType> TypeCheckTuple(const Expr& expr,
                                const std::vector<DagOutCol>& schema) {
  return TypeCheck(expr, [&schema](const std::string& name)
                             -> Result<ExprType> {
    const int slot = FindSlot(schema, name);
    if (slot < 0) {
      return Status::NotFound("no column '" + name +
                              "' at this query stage");
    }
    return schema[slot].type;
  });
}

Result<BoundScalar> BindTupleScalar(const Expr& expr,
                                    const std::vector<DagOutCol>& schema,
                                    const Params& params) {
  auto root = BindTupleNode(expr.node(), schema, params);
  if (!root.ok()) return root.status();
  return BoundScalar{root.TakeValue()};
}

void CollectParamNames(const Expr& expr, std::vector<std::string>* names) {
  if (expr.valid()) CollectParamNamesNode(expr.node(), names);
}

Result<Query> BuildDagQuery(const QueryBuilder& b) {
  // ---- overall shape -----------------------------------------------------
  if (b.table_ == nullptr && b.sub_ == nullptr) {
    return Status::InvalidArgument("query needs a table (Query::On)");
  }
  if (b.sub_ != nullptr && b.sub_->dag == nullptr) {
    return Status::Internal("sub-query input carries no DAG plan");
  }
  if (b.aggs_.empty() && !b.group_by_.empty()) {
    return Status::InvalidArgument("GroupBy requires aggregates");
  }
  if (b.aggs_.empty() && b.having_.valid()) {
    return Status::InvalidArgument("Having requires aggregates");
  }
  if (b.aggs_.empty() && b.select_.empty()) {
    return Status::InvalidArgument(
        "query must declare aggregates or a Select projection");
  }
  if (b.limit_ < -1) {
    return Status::InvalidArgument("Limit must be non-negative");
  }
  for (const QueryBuilder::JoinClause& clause : b.joins_) {
    if (clause.input.sub() != nullptr &&
        clause.input.sub()->dag == nullptr) {
      return Status::Internal("join build input carries no DAG plan");
    }
    if (clause.input.sub() == nullptr && clause.input.table() == nullptr) {
      return Status::InvalidArgument(
          "join build input needs a table or a built sub-query");
    }
  }

  // ---- referenced column names (per-join build filters bind against
  //      their build table alone and are excluded) ------------------------
  std::vector<std::string> all_names;
  CollectExprColumnNames(b.filter_, &all_names);
  for (const Agg& agg : b.aggs_) CollectExprColumnNames(agg.expr(), &all_names);
  for (const std::string& g : b.group_by_) AddName(g, &all_names);
  for (const QueryBuilder::JoinClause& clause : b.joins_) {
    for (const std::string& k : clause.probe_keys) AddName(k, &all_names);
    for (const std::string& k : clause.build_keys) AddName(k, &all_names);
    CollectExprColumnNames(clause.residual, &all_names);
  }
  CollectExprColumnNames(b.having_, &all_names);
  for (const WindowDef& w : b.win_funcs_) {
    CollectExprColumnNames(w.input, &all_names);
  }
  for (const std::string& p : b.win_partition_) AddName(p, &all_names);
  for (const SortSpec& s : b.win_order_) AddName(s.column, &all_names);
  CollectExprColumnNames(b.post_filter_, &all_names);
  for (const SelectItem& s : b.select_) AddName(s.column, &all_names);
  for (const SortSpec& s : b.order_by_) AddName(s.column, &all_names);

  // ---- ambiguity: a referenced name must have at most one input source
  //      (self-joins rename through a Select sub-query) -------------------
  auto input_provides = [](const JoinInput& input,
                           const std::string& name) {
    if (input.sub() != nullptr) {
      return FindSlot(input.sub()->dag->schema, name) >= 0;
    }
    return input.table() != nullptr && input.table()->HasColumn(name);
  };
  for (const std::string& name : all_names) {
    int sources = 0;
    const bool base_has =
        b.table_ != nullptr ? b.table_->HasColumn(name)
                            : FindSlot(b.sub_->dag->schema, name) >= 0;
    if (base_has) ++sources;
    for (const QueryBuilder::JoinClause& clause : b.joins_) {
      if (input_provides(clause.input, name)) ++sources;
    }
    if (sources > 1) {
      return Status::InvalidArgument(
          "column '" + name +
          "' is ambiguous across the query's inputs; rename it with "
          "Select in a sub-query");
    }
  }

  // ---- Filter conjuncts: push each to the earliest covering stage --------
  std::vector<Expr> conjuncts;
  FlattenAnd(b.filter_, &conjuncts);
  std::vector<std::pair<Expr, std::vector<std::string>>> pending;
  Expr base_filter;                     // Base-table conjunction.
  std::vector<Expr> base_tuple_filters;  // Sub-input conjuncts.
  for (const Expr& conjunct : conjuncts) {
    std::vector<std::string> names;
    CollectExprColumnNames(conjunct, &names);
    bool base_covers = true;
    for (const std::string& name : names) {
      const bool has = b.table_ != nullptr
                           ? b.table_->HasColumn(name)
                           : FindSlot(b.sub_->dag->schema, name) >= 0;
      if (!has) {
        base_covers = false;
        break;
      }
    }
    if (base_covers) {
      if (b.table_ != nullptr) {
        base_filter =
            base_filter.valid() ? (base_filter && conjunct) : conjunct;
      } else {
        ANKER_RETURN_IF_ERROR(CheckBool(
            TypeCheckTuple(conjunct, b.sub_->dag->schema), "Filter"));
        base_tuple_filters.push_back(conjunct);
      }
    } else {
      pending.emplace_back(conjunct, std::move(names));
    }
  }

  // ---- input stage -------------------------------------------------------
  auto dag = std::make_shared<DagPlan>();
  std::vector<DagOutCol> schema;
  if (b.table_ != nullptr) {
    if (base_filter.valid()) {
      ANKER_RETURN_IF_ERROR(
          CheckBool(TypeCheck(base_filter, *b.table_), "filter"));
    }
    auto scan = BuildTableScan(b.table_, base_filter, all_names);
    if (!scan.ok()) return scan.status();
    dag->scan = scan.TakeValue();
  } else {
    dag->scan.sub = b.sub_;
    dag->scan.schema = b.sub_->dag->schema;
    dag->scan.sub_filters = std::move(base_tuple_filters);
  }
  schema = dag->scan.schema;

  // ---- joins -------------------------------------------------------------
  for (const QueryBuilder::JoinClause& clause : b.joins_) {
    DagJoin join;
    join.type = clause.type;
    if (clause.input.sub() != nullptr) {
      join.build.sub = clause.input.sub();
      join.build.schema = clause.input.sub()->dag->schema;
      if (clause.input.filter().valid()) {
        ANKER_RETURN_IF_ERROR(CheckBool(
            TypeCheckTuple(clause.input.filter(), join.build.schema),
            "join build filter"));
        join.build.sub_filters.push_back(clause.input.filter());
      }
    } else {
      if (clause.input.filter().valid()) {
        ANKER_RETURN_IF_ERROR(CheckBool(
            TypeCheck(clause.input.filter(), *clause.input.table()),
            "join build filter"));
      }
      auto scan = BuildTableScan(clause.input.table(),
                                 clause.input.filter(), all_names);
      if (!scan.ok()) return scan.status();
      join.build = scan.TakeValue();
    }

    if (clause.probe_keys.size() != clause.build_keys.size()) {
      return Status::InvalidArgument(
          "join key lists must pair up (" +
          std::to_string(clause.probe_keys.size()) + " probe vs " +
          std::to_string(clause.build_keys.size()) + " build keys)");
    }
    for (size_t i = 0; i < clause.probe_keys.size(); ++i) {
      auto pi =
          ResolveSlot(schema, clause.probe_keys[i], "on the probe side");
      if (!pi.ok()) return pi.status();
      auto bi = ResolveSlot(join.build.schema, clause.build_keys[i],
                            "on the build side");
      if (!bi.ok()) return bi.status();
      const DagOutCol& probe_col = schema[pi.value()];
      const DagOutCol& build_col = join.build.schema[bi.value()];
      if (probe_col.type != build_col.type) {
        return Status::InvalidArgument(
            "join key type mismatch: '" + probe_col.name + "' (" +
            ExprTypeName(probe_col.type) + ") vs '" + build_col.name +
            "' (" + ExprTypeName(build_col.type) + ")");
      }
      if (probe_col.type == ExprType::kDict &&
          probe_col.dict != build_col.dict) {
        return Status::InvalidArgument(
            "dictionary join keys must share one dictionary; join on "
            "integer keys instead");
      }
      join.probe_keys.push_back(pi.value());
      join.build_keys.push_back(bi.value());
    }

    if (clause.residual.valid()) {
      std::vector<DagOutCol> combined = schema;
      combined.insert(combined.end(), join.build.schema.begin(),
                      join.build.schema.end());
      std::vector<std::string> rnames;
      CollectExprColumnNames(clause.residual, &rnames);
      for (const std::string& name : rnames) {
        int count = 0;
        for (const DagOutCol& c : combined) {
          if (c.name == name) ++count;
        }
        if (count > 1) {
          return Status::InvalidArgument(
              "join residual column '" + name +
              "' is ambiguous between the probe and build sides");
        }
      }
      ANKER_RETURN_IF_ERROR(
          CheckBool(TypeCheckTuple(clause.residual, combined),
                    "join residual"));
      join.residual = clause.residual;
    }

    if (clause.type == JoinType::kInner ||
        clause.type == JoinType::kLeftOuter) {
      std::vector<DagOutCol> out = schema;
      for (size_t s = 0; s < join.build.schema.size(); ++s) {
        bool is_key = false;
        for (const uint16_t k : join.build_keys) {
          if (k == s) {
            is_key = true;
            break;
          }
        }
        if (is_key) continue;
        const DagOutCol& col = join.build.schema[s];
        if (FindSlot(out, col.name) >= 0) {
          return Status::InvalidArgument(
              "join output would contain duplicate column '" + col.name +
              "'");
        }
        join.build_out.push_back(static_cast<uint16_t>(s));
        out.push_back(col);
      }
      if (clause.type == JoinType::kLeftOuter) {
        if (FindSlot(out, "__matched") >= 0) {
          return Status::InvalidArgument(
              "join output would contain duplicate column '__matched'");
        }
        out.push_back(DagOutCol{"__matched", ExprType::kInt64, nullptr});
      }
      join.schema = std::move(out);
    } else {
      join.schema = schema;
    }

    for (auto it = pending.begin(); it != pending.end();) {
      if (SchemaCovers(join.schema, it->second)) {
        ANKER_RETURN_IF_ERROR(
            CheckBool(TypeCheckTuple(it->first, join.schema), "Filter"));
        join.post_filters.push_back(it->first);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    schema = join.schema;
    dag->joins.push_back(std::move(join));
  }
  if (!pending.empty()) {
    std::string missing = pending.front().second.front();
    for (const std::string& name : pending.front().second) {
      if (FindSlot(schema, name) < 0) {
        missing = name;
        break;
      }
    }
    // A name a later stage produces earns a redirect hint; a name no
    // stage produces is plainly unknown.
    bool later_stage = false;
    for (size_t i = 0; i < b.aggs_.size(); ++i) {
      const std::string name = b.aggs_[i].name().empty()
                                   ? "agg" + std::to_string(i)
                                   : b.aggs_[i].name();
      if (name == missing) later_stage = true;
    }
    for (const WindowDef& def : b.win_funcs_) {
      if (def.name == missing) later_stage = true;
    }
    if (!later_stage) {
      return Status::NotFound("no column '" + missing +
                              "' in the query's inputs");
    }
    return Status::InvalidArgument(
        "Filter references '" + missing +
        "', which no scan or join output provides (filter aggregate or "
        "window outputs with Having / PostFilter)");
  }

  // ---- aggregation -------------------------------------------------------
  if (!b.aggs_.empty()) {
    dag->agg.present = true;
    std::vector<DagOutCol> out;
    for (const std::string& g : b.group_by_) {
      auto gi = ResolveSlot(schema, g, "to group by");
      if (!gi.ok()) return gi.status();
      if (FindSlot(out, g) >= 0) {
        return Status::InvalidArgument("duplicate GroupBy column '" + g +
                                       "'");
      }
      dag->agg.group_cols.push_back(gi.value());
      out.push_back(schema[gi.value()]);
    }
    for (size_t i = 0; i < b.aggs_.size(); ++i) {
      const Agg& agg = b.aggs_[i];
      DagAggSpec spec;
      spec.kind = agg.kind();
      spec.name =
          agg.name().empty() ? "agg" + std::to_string(i) : agg.name();
      if (FindSlot(out, spec.name) >= 0) {
        return Status::InvalidArgument("duplicate output name '" +
                                       spec.name + "'");
      }
      if (agg.kind() == AggKind::kCount) {
        if (agg.expr().valid()) {
          return Status::InvalidArgument(
              "count() takes no input expression");
        }
      } else {
        if (!agg.expr().valid()) {
          return Status::InvalidArgument(
              "aggregate '" + spec.name + "' needs an input expression");
        }
        auto type = TypeCheckTuple(agg.expr(), schema);
        if (!type.ok()) return type.status();
        switch (agg.kind()) {
          case AggKind::kSum:
          case AggKind::kAvg:
            if (!IsNumeric(type.value())) {
              return Status::InvalidArgument(
                  "sum/avg input must be numeric, got " +
                  std::string(ExprTypeName(type.value())));
            }
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            if (!IsNumeric(type.value()) &&
                type.value() != ExprType::kDate) {
              return Status::InvalidArgument(
                  "min/max input must be numeric or date, got " +
                  std::string(ExprTypeName(type.value())));
            }
            break;
          case AggKind::kCountDistinct:
            if (type.value() == ExprType::kBool) {
              return Status::InvalidArgument(
                  "count-distinct input must be a value, not a "
                  "predicate");
            }
            break;
          default:
            break;
        }
        spec.expr = agg.expr();
      }
      dag->agg.aggs.push_back(std::move(spec));
      out.push_back(
          DagOutCol{dag->agg.aggs.back().name, ExprType::kDouble, nullptr});
    }
    dag->agg.schema = out;
    schema = std::move(out);
    if (b.having_.valid()) {
      ANKER_RETURN_IF_ERROR(
          CheckBool(TypeCheckTuple(b.having_, schema), "Having"));
      dag->agg.having = b.having_;
    }
  }

  // ---- window functions --------------------------------------------------
  if (b.has_window_) {
    dag->window.present = true;
    if (b.win_funcs_.empty()) {
      return Status::InvalidArgument("Window needs at least one function");
    }
    for (const std::string& p : b.win_partition_) {
      auto pi = ResolveSlot(schema, p, "to partition by");
      if (!pi.ok()) return pi.status();
      dag->window.partition_cols.push_back(pi.value());
    }
    for (const SortSpec& s : b.win_order_) {
      auto si = ResolveSlot(schema, s.column, "to order a window by");
      if (!si.ok()) return si.status();
      if (schema[si.value()].type == ExprType::kDict) {
        return Status::InvalidArgument(
            "cannot order by dictionary column '" + s.column +
            "' (codes are unordered)");
      }
      dag->window.order.push_back(DagSortKey{si.value(), s.desc});
    }
    std::vector<DagOutCol> out = schema;
    for (const WindowDef& w : b.win_funcs_) {
      if (w.name.empty()) {
        return Status::InvalidArgument(
            "window function needs an output name");
      }
      if (FindSlot(out, w.name) >= 0) {
        return Status::InvalidArgument("duplicate output name '" + w.name +
                                       "'");
      }
      DagWinSpec spec;
      spec.name = w.name;
      spec.fn = w.fn;
      switch (w.fn) {
        case WinFn::kRank:
        case WinFn::kRowNumber:
          if (b.win_order_.empty()) {
            return Status::InvalidArgument(
                "rank/row_number need window order keys");
          }
          [[fallthrough]];
        case WinFn::kCount:
          if (w.input.valid()) {
            return Status::InvalidArgument("window function '" + w.name +
                                           "' takes no input");
          }
          break;
        case WinFn::kSum:
        case WinFn::kAvg:
        case WinFn::kMin:
        case WinFn::kMax: {
          if (!w.input.valid()) {
            return Status::InvalidArgument("window function '" + w.name +
                                           "' needs an input expression");
          }
          auto type = TypeCheckTuple(w.input, schema);
          if (!type.ok()) return type.status();
          const bool date_ok =
              w.fn == WinFn::kMin || w.fn == WinFn::kMax;
          if (!IsNumeric(type.value()) &&
              !(date_ok && type.value() == ExprType::kDate)) {
            return Status::InvalidArgument(
                "window aggregate input must be numeric, got " +
                std::string(ExprTypeName(type.value())));
          }
          spec.input = w.input;
          break;
        }
      }
      dag->window.funcs.push_back(std::move(spec));
      out.push_back(DagOutCol{w.name, ExprType::kDouble, nullptr});
    }
    dag->window.schema = out;
    schema = std::move(out);
  }

  // ---- post filter / select / order / limit ------------------------------
  if (b.post_filter_.valid()) {
    ANKER_RETURN_IF_ERROR(
        CheckBool(TypeCheckTuple(b.post_filter_, schema), "PostFilter"));
    dag->final_filter = b.post_filter_;
  }
  if (!b.select_.empty()) {
    std::vector<DagOutCol> out;
    for (const SelectItem& item : b.select_) {
      auto si = ResolveSlot(schema, item.column, "to select");
      if (!si.ok()) return si.status();
      DagOutCol col = schema[si.value()];
      if (!item.alias.empty()) col.name = item.alias;
      if (FindSlot(out, col.name) >= 0) {
        return Status::InvalidArgument("duplicate output name '" +
                                       col.name + "'");
      }
      dag->select.push_back(si.value());
      out.push_back(std::move(col));
    }
    dag->schema = std::move(out);
  } else {
    dag->schema = schema;
  }
  for (const SortSpec& s : b.order_by_) {
    auto si = ResolveSlot(dag->schema, s.column, "to order by");
    if (!si.ok()) return si.status();
    if (dag->schema[si.value()].type == ExprType::kDict) {
      return Status::InvalidArgument(
          "cannot order by dictionary column '" + s.column +
          "' (codes are unordered); order by an integer or double "
          "column");
    }
    dag->order.push_back(DagSortKey{si.value(), s.desc});
  }
  dag->limit = b.limit_;

  // ---- plan assembly -----------------------------------------------------
  auto plan = std::make_shared<CompiledQuery>();
  plan->table = b.table_ != nullptr ? b.table_ : b.sub_->table;
  auto add_columns = [&plan](const std::vector<storage::Column*>& cols) {
    for (storage::Column* c : cols) {
      bool seen = false;
      for (storage::Column* existing : plan->columns) {
        if (existing == c) {
          seen = true;
          break;
        }
      }
      if (!seen) plan->columns.push_back(c);
    }
  };
  if (b.table_ != nullptr) {
    add_columns(dag->scan.columns);
  } else {
    add_columns(b.sub_->columns);
  }
  for (const DagJoin& join : dag->joins) {
    if (join.build.sub != nullptr) {
      add_columns(join.build.sub->columns);
    } else {
      add_columns(join.build.columns);
    }
  }

  std::vector<std::string> pnames;
  CollectParamNames(b.filter_, &pnames);
  for (const Agg& agg : b.aggs_) CollectParamNames(agg.expr(), &pnames);
  for (const QueryBuilder::JoinClause& clause : b.joins_) {
    CollectParamNames(clause.residual, &pnames);
    CollectParamNames(clause.input.filter(), &pnames);
    if (clause.input.sub() != nullptr) {
      const auto& sub_names = clause.input.sub()->param_names;
      pnames.insert(pnames.end(), sub_names.begin(), sub_names.end());
    }
  }
  CollectParamNames(b.having_, &pnames);
  for (const WindowDef& w : b.win_funcs_) {
    CollectParamNames(w.input, &pnames);
  }
  CollectParamNames(b.post_filter_, &pnames);
  if (b.sub_ != nullptr) {
    pnames.insert(pnames.end(), b.sub_->param_names.begin(),
                  b.sub_->param_names.end());
  }
  std::sort(pnames.begin(), pnames.end());
  pnames.erase(std::unique(pnames.begin(), pnames.end()), pnames.end());
  plan->param_names = std::move(pnames);

  plan->dag = std::move(dag);
  return Query(std::move(plan));
}

}  // namespace anker::query
