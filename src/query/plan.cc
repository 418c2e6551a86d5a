#include "query/plan.h"

#include <cmath>
#include <limits>

#include "query/query.h"

namespace anker::query {

namespace {

double ConstAsDouble(const ConstValue& v) {
  switch (v.type) {
    case ExprType::kDouble:
      return storage::DecodeDouble(v.raw);
    case ExprType::kInt64:
    case ExprType::kDate:
      return static_cast<double>(storage::DecodeInt64(v.raw));
    case ExprType::kDict:
      return static_cast<double>(storage::DecodeDict(v.raw));
    case ExprType::kBool:
      return v.raw != 0 ? 1.0 : 0.0;
  }
  return 0.0;
}

}  // namespace

Result<uint16_t> ColumnSet::Use(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  if (!table_->HasColumn(name)) {
    return Status::NotFound("table '" + table_->name() +
                            "' has no column '" + name + "'");
  }
  if (names_.size() >= 0xffff) {
    return Status::NotSupported("too many columns in one query");
  }
  names_.push_back(name);
  columns_.push_back(table_->GetColumn(name));
  return static_cast<uint16_t>(names_.size() - 1);
}

Result<ConstValue> EvalConstExpr(const ExprNode* node, const Params& params) {
  switch (node->kind) {
    case ExprKind::kLiteral: {
      if (node->is_string) {
        return Status::InvalidArgument(
            "string literal is only valid in a dictionary equality");
      }
      return ConstValue{node->type, node->raw};
    }
    case ExprKind::kParam: {
      const Params::Value* value = params.Find(node->name);
      if (value == nullptr) {
        return Status::InvalidArgument("missing parameter '" + node->name +
                                       "'");
      }
      if (value->is_string) {
        return Status::InvalidArgument(
            "string parameter '" + node->name +
            "' is only valid in a dictionary equality");
      }
      if (value->type != node->type) {
        return Status::InvalidArgument(
            "parameter '" + node->name + "' declared " +
            ExprTypeName(node->type) + " but bound as " +
            ExprTypeName(value->type));
      }
      return ConstValue{value->type, value->raw};
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      auto lhs = EvalConstExpr(node->lhs.get(), params);
      if (!lhs.ok()) return lhs.status();
      auto rhs = EvalConstExpr(node->rhs.get(), params);
      if (!rhs.ok()) return rhs.status();
      const ConstValue& l = lhs.value();
      const ConstValue& r = rhs.value();
      // Date +/- day offset stays a date; int arithmetic stays exact.
      const bool date_shift = l.type == ExprType::kDate &&
                              r.type == ExprType::kInt64 &&
                              node->kind != ExprKind::kMul;
      if (date_shift || (l.type == ExprType::kInt64 &&
                         r.type == ExprType::kInt64)) {
        const int64_t a = storage::DecodeInt64(l.raw);
        const int64_t b = storage::DecodeInt64(r.raw);
        int64_t v = 0;
        if (node->kind == ExprKind::kAdd) v = a + b;
        if (node->kind == ExprKind::kSub) v = a - b;
        if (node->kind == ExprKind::kMul) v = a * b;
        return ConstValue{date_shift ? ExprType::kDate : ExprType::kInt64,
                          storage::EncodeInt64(v)};
      }
      if (IsNumeric(l.type) && IsNumeric(r.type)) {
        const double a = ConstAsDouble(l);
        const double b = ConstAsDouble(r);
        double v = 0;
        if (node->kind == ExprKind::kAdd) v = a + b;
        if (node->kind == ExprKind::kSub) v = a - b;
        if (node->kind == ExprKind::kMul) v = a * b;
        return ConstValue{ExprType::kDouble, storage::EncodeDouble(v)};
      }
      return Status::InvalidArgument("invalid constant arithmetic");
    }
    default:
      return Status::InvalidArgument(
          "expression is not constant-foldable at bind time");
  }
}

namespace {

/// Tries to lower one conjunct into a SimplePred; returns false when the
/// term is not of the `col <op> const` shape.
Result<bool> TryLowerSimple(const ExprNode* node, ColumnSet* cols,
                            std::vector<SimplePred>* preds) {
  ExprKind kind = node->kind;
  switch (kind) {
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe:
    case ExprKind::kEq:
      break;
    default:
      return false;
  }
  const ExprNode* lhs = node->lhs.get();
  const ExprNode* rhs = node->rhs.get();
  if (lhs->kind != ExprKind::kColumn || !IsConstNode(rhs)) {
    if (rhs->kind == ExprKind::kColumn && IsConstNode(lhs)) {
      // Flip `const <op> col` to `col <flipped-op> const`.
      std::swap(lhs, rhs);
      switch (kind) {
        case ExprKind::kLt: kind = ExprKind::kGt; break;
        case ExprKind::kLe: kind = ExprKind::kGe; break;
        case ExprKind::kGt: kind = ExprKind::kLt; break;
        case ExprKind::kGe: kind = ExprKind::kLe; break;
        default: break;
      }
    } else {
      return false;
    }
  }
  auto col = cols->Use(lhs->name);
  if (!col.ok()) return col.status();
  const ExprType col_type = ExprTypeFor(
      cols->table()->GetColumn(lhs->name)->type());

  SimplePred pred;
  pred.col = col.value();
  pred.domain = col_type;
  std::shared_ptr<const ExprNode> cexpr =
      (lhs == node->lhs.get()) ? node->rhs : node->lhs;
  switch (kind) {
    case ExprKind::kLt:
      pred.hi = cexpr;
      pred.hi_strict = true;
      break;
    case ExprKind::kLe:
      pred.hi = cexpr;
      break;
    case ExprKind::kGt:
      pred.lo = cexpr;
      pred.lo_strict = true;
      break;
    case ExprKind::kGe:
      pred.lo = cexpr;
      break;
    case ExprKind::kEq:
      pred.lo = cexpr;
      pred.hi = cexpr;
      break;
    default:
      return false;
  }
  preds->push_back(std::move(pred));
  return true;
}

Status LowerFilterNode(const std::shared_ptr<const ExprNode>& node,
                       ColumnSet* cols, std::vector<SimplePred>* preds,
                       std::vector<GenericPred>* generic) {
  if (node->kind == ExprKind::kAnd) {
    ANKER_RETURN_IF_ERROR(LowerFilterNode(node->lhs, cols, preds, generic));
    return LowerFilterNode(node->rhs, cols, preds, generic);
  }
  auto simple = TryLowerSimple(node.get(), cols, preds);
  if (!simple.ok()) return simple.status();
  if (!simple.value()) {
    // Residual term: register its columns and keep the expression for the
    // scalar interpreter.
    generic->push_back(GenericPred{Expr(node)});
  }
  return Status::OK();
}

Status RegisterColumns(const ExprNode* node, ColumnSet* cols) {
  if (node == nullptr) return Status::OK();
  if (node->kind == ExprKind::kColumn) {
    return cols->Use(node->name).status();
  }
  ANKER_RETURN_IF_ERROR(RegisterColumns(node->lhs.get(), cols));
  return RegisterColumns(node->rhs.get(), cols);
}

}  // namespace

Status LowerFilter(const Expr& filter, ColumnSet* cols,
                   std::vector<SimplePred>* preds,
                   std::vector<GenericPred>* generic) {
  if (!filter.valid()) return Status::OK();
  const size_t generic_before = generic->size();
  ANKER_RETURN_IF_ERROR(
      LowerFilterNode(filter.shared(), cols, preds, generic));
  for (size_t i = generic_before; i < generic->size(); ++i) {
    ANKER_RETURN_IF_ERROR(
        RegisterColumns((*generic)[i].expr.node(), cols));
  }
  return Status::OK();
}

namespace {

Status BindOnePred(const SimplePred& pred,
                   const std::vector<storage::Column*>& columns,
                   storage::Table* table, const Params& params,
                   BoundPred* out) {
  const storage::Column* column = columns[pred.col];
  out->col = pred.col;
  out->is_double = pred.domain == ExprType::kDouble;

  // Resolve a bound const-expr to a raw value in the column's domain; a
  // string resolves through the column's dictionary (dict equality).
  auto resolve = [&](const ExprNode* node, int64_t* iv,
                     double* dv) -> Status {
    // Dictionary equality by text: literal or param string.
    std::string text;
    bool is_text = false;
    if (node->kind == ExprKind::kLiteral && node->is_string) {
      text = node->text;
      is_text = true;
    } else if (node->kind == ExprKind::kParam) {
      const Params::Value* value = params.Find(node->name);
      if (value != nullptr && value->is_string) {
        text = value->text;
        is_text = true;
      }
    }
    if (is_text) {
      if (column->type() != storage::ValueType::kDict32) {
        return Status::InvalidArgument("string compare against non-dict "
                                       "column '" + column->name() + "'");
      }
      const storage::Dictionary* dict =
          table->GetDictionary(column->name());
      auto code = dict->Lookup(text);
      if (!code.ok()) {
        return Status::NotFound("value '" + text +
                                "' not in dictionary of column '" +
                                column->name() + "'");
      }
      *iv = static_cast<int64_t>(code.value());
      return Status::OK();
    }
    auto value = EvalConstExpr(node, params);
    if (!value.ok()) return value.status();
    const ConstValue& v = value.value();
    if (pred.domain == ExprType::kDouble) {
      if (v.type == ExprType::kDouble) {
        *dv = storage::DecodeDouble(v.raw);
      } else if (v.type == ExprType::kInt64) {
        *dv = static_cast<double>(storage::DecodeInt64(v.raw));
      } else {
        return Status::InvalidArgument("bound of double predicate must be "
                                       "numeric");
      }
      return Status::OK();
    }
    // Integer domains: int64, date (as days) and dict codes.
    switch (v.type) {
      case ExprType::kInt64:
      case ExprType::kDate:
        *iv = storage::DecodeInt64(v.raw);
        return Status::OK();
      case ExprType::kDict:
        *iv = static_cast<int64_t>(storage::DecodeDict(v.raw));
        return Status::OK();
      default:
        return Status::InvalidArgument("bound of integer predicate must "
                                       "be integral");
    }
  };

  if (out->is_double) {
    out->dlo = -std::numeric_limits<double>::infinity();
    out->dhi = std::numeric_limits<double>::infinity();
    if (pred.lo != nullptr) {
      ANKER_RETURN_IF_ERROR(resolve(pred.lo.get(), nullptr, &out->dlo));
      if (pred.lo_strict) {
        out->dlo = std::nextafter(out->dlo,
                                  std::numeric_limits<double>::infinity());
      }
    }
    if (pred.hi != nullptr) {
      ANKER_RETURN_IF_ERROR(resolve(pred.hi.get(), nullptr, &out->dhi));
      if (pred.hi_strict) {
        out->dhi = std::nextafter(out->dhi,
                                  -std::numeric_limits<double>::infinity());
      }
    }
  } else {
    out->ilo = std::numeric_limits<int64_t>::min();
    out->ihi = std::numeric_limits<int64_t>::max();
    if (pred.lo != nullptr) {
      ANKER_RETURN_IF_ERROR(resolve(pred.lo.get(), &out->ilo, nullptr));
      if (pred.lo_strict) ++out->ilo;
    }
    if (pred.hi != nullptr) {
      ANKER_RETURN_IF_ERROR(resolve(pred.hi.get(), &out->ihi, nullptr));
      if (pred.hi_strict) --out->ihi;
    }
  }
  return Status::OK();
}

}  // namespace

Status BindPredsFor(const std::vector<SimplePred>& preds,
                    const std::vector<storage::Column*>& columns,
                    storage::Table* table, const Params& params,
                    std::vector<BoundPred>* out) {
  out->clear();
  out->reserve(preds.size());
  for (const SimplePred& pred : preds) {
    BoundPred bound;
    ANKER_RETURN_IF_ERROR(
        BindOnePred(pred, columns, table, params, &bound));
    // Coalesce with an earlier predicate on the same column (a >= lo &&
    // a < hi arrives as two conjuncts): intersecting the closed ranges
    // halves the per-row work of range filters.
    bool merged = false;
    for (BoundPred& existing : *out) {
      if (existing.col != bound.col ||
          existing.is_double != bound.is_double) {
        continue;
      }
      if (existing.is_double) {
        existing.dlo = std::max(existing.dlo, bound.dlo);
        existing.dhi = std::min(existing.dhi, bound.dhi);
      } else {
        existing.ilo = std::max(existing.ilo, bound.ilo);
        existing.ihi = std::min(existing.ihi, bound.ihi);
      }
      merged = true;
      break;
    }
    if (!merged) out->push_back(bound);
  }
  return Status::OK();
}

ScalarValue EvalScalar(const ExprNode* node, const uint64_t* const* cols,
                       size_t i) {
  ScalarValue value;
  switch (node->kind) {
    case ExprKind::kColumn: {
      const uint64_t raw = cols[node->raw][i];
      value.type = node->type;
      switch (node->type) {
        case ExprType::kDouble:
          value.d = storage::DecodeDouble(raw);
          break;
        case ExprType::kDict:
          value.i = static_cast<int64_t>(storage::DecodeDict(raw));
          break;
        default:
          value.i = storage::DecodeInt64(raw);
          break;
      }
      return value;
    }
    case ExprKind::kLiteral:
    case ExprKind::kParam: {
      value.type = node->type;
      if (node->type == ExprType::kDouble) {
        value.d = storage::DecodeDouble(node->raw);
      } else if (node->type == ExprType::kDict) {
        value.i = static_cast<int64_t>(storage::DecodeDict(node->raw));
      } else {
        value.i = storage::DecodeInt64(node->raw);
      }
      return value;
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      const ScalarValue l = EvalScalar(node->lhs.get(), cols, i);
      const ScalarValue r = EvalScalar(node->rhs.get(), cols, i);
      const bool any_double =
          l.type == ExprType::kDouble || r.type == ExprType::kDouble;
      if (any_double) {
        const double a = l.type == ExprType::kDouble
                             ? l.d
                             : static_cast<double>(l.i);
        const double b = r.type == ExprType::kDouble
                             ? r.d
                             : static_cast<double>(r.i);
        value.type = ExprType::kDouble;
        if (node->kind == ExprKind::kAdd) value.d = a + b;
        if (node->kind == ExprKind::kSub) value.d = a - b;
        if (node->kind == ExprKind::kMul) value.d = a * b;
      } else {
        value.type = ExprType::kInt64;
        if (node->kind == ExprKind::kAdd) value.i = l.i + r.i;
        if (node->kind == ExprKind::kSub) value.i = l.i - r.i;
        if (node->kind == ExprKind::kMul) value.i = l.i * r.i;
      }
      return value;
    }
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe:
    case ExprKind::kEq:
    case ExprKind::kNe: {
      const ScalarValue l = EvalScalar(node->lhs.get(), cols, i);
      const ScalarValue r = EvalScalar(node->rhs.get(), cols, i);
      int cmp;
      if (l.type == ExprType::kDouble || r.type == ExprType::kDouble) {
        const double a = l.type == ExprType::kDouble
                             ? l.d
                             : static_cast<double>(l.i);
        const double b = r.type == ExprType::kDouble
                             ? r.d
                             : static_cast<double>(r.i);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        cmp = l.i < r.i ? -1 : (l.i > r.i ? 1 : 0);
      }
      value.type = ExprType::kBool;
      switch (node->kind) {
        case ExprKind::kLt: value.b = cmp < 0; break;
        case ExprKind::kLe: value.b = cmp <= 0; break;
        case ExprKind::kGt: value.b = cmp > 0; break;
        case ExprKind::kGe: value.b = cmp >= 0; break;
        case ExprKind::kEq: value.b = cmp == 0; break;
        case ExprKind::kNe: value.b = cmp != 0; break;
        default: break;
      }
      return value;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const ScalarValue l = EvalScalar(node->lhs.get(), cols, i);
      value.type = ExprType::kBool;
      if (node->kind == ExprKind::kAnd) {
        value.b = l.b && EvalScalar(node->rhs.get(), cols, i).b;
      } else {
        value.b = l.b || EvalScalar(node->rhs.get(), cols, i).b;
      }
      return value;
    }
  }
  return value;
}

double EvalScalarDouble(const BoundScalar& expr, const uint64_t* const* cols,
                        size_t i) {
  const ScalarValue value = EvalScalar(expr.root.get(), cols, i);
  return value.type == ExprType::kDouble ? value.d
                                         : static_cast<double>(value.i);
}

bool EvalScalarBool(const BoundScalar& expr, const uint64_t* const* cols,
                    size_t i) {
  return EvalScalar(expr.root.get(), cols, i).b;
}

}  // namespace anker::query
