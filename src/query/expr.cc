#include "query/expr.h"

namespace anker::query {

namespace {

Expr MakeLeaf(ExprKind kind, std::string name, ExprType type, uint64_t raw,
              std::string text, bool is_string) {
  auto node = std::make_shared<ExprNode>();
  node->kind = kind;
  node->name = std::move(name);
  node->type = type;
  node->raw = raw;
  node->text = std::move(text);
  node->is_string = is_string;
  return Expr(std::move(node));
}

Expr MakeBinary(ExprKind kind, Expr lhs, Expr rhs) {
  auto node = std::make_shared<ExprNode>();
  node->kind = kind;
  node->lhs = lhs.shared();
  node->rhs = rhs.shared();
  return Expr(std::move(node));
}

}  // namespace

const char* ExprTypeName(ExprType type) {
  switch (type) {
    case ExprType::kInt64:
      return "int64";
    case ExprType::kDouble:
      return "double";
    case ExprType::kDate:
      return "date";
    case ExprType::kDict:
      return "dict";
    case ExprType::kBool:
      return "bool";
  }
  return "unknown";
}

ExprType ExprTypeFor(storage::ValueType type) {
  switch (type) {
    case storage::ValueType::kInt64:
      return ExprType::kInt64;
    case storage::ValueType::kDouble:
      return ExprType::kDouble;
    case storage::ValueType::kDate:
      return ExprType::kDate;
    case storage::ValueType::kDict32:
      return ExprType::kDict;
  }
  return ExprType::kInt64;
}

Expr Col(std::string name) {
  return MakeLeaf(ExprKind::kColumn, std::move(name), ExprType::kInt64, 0, "",
                  false);
}

Expr I64(int64_t value) {
  return MakeLeaf(ExprKind::kLiteral, "", ExprType::kInt64,
                  storage::EncodeInt64(value), "", false);
}

Expr F64(double value) {
  return MakeLeaf(ExprKind::kLiteral, "", ExprType::kDouble,
                  storage::EncodeDouble(value), "", false);
}

Expr DateDays(int64_t days) {
  return MakeLeaf(ExprKind::kLiteral, "", ExprType::kDate,
                  storage::EncodeDate(days), "", false);
}

Expr Str(std::string text) {
  return MakeLeaf(ExprKind::kLiteral, "", ExprType::kDict, 0, std::move(text),
                  true);
}

Expr DictCode(uint32_t code) {
  return MakeLeaf(ExprKind::kLiteral, "", ExprType::kDict,
                  storage::EncodeDict(code), "", false);
}

Expr Param(std::string name, ExprType type) {
  return MakeLeaf(ExprKind::kParam, std::move(name), type, 0, "", false);
}

Expr operator+(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kAdd, std::move(lhs), std::move(rhs));
}
Expr operator-(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kSub, std::move(lhs), std::move(rhs));
}
Expr operator*(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kMul, std::move(lhs), std::move(rhs));
}
Expr operator<(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kLt, std::move(lhs), std::move(rhs));
}
Expr operator<=(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kLe, std::move(lhs), std::move(rhs));
}
Expr operator>(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kGt, std::move(lhs), std::move(rhs));
}
Expr operator>=(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kGe, std::move(lhs), std::move(rhs));
}
Expr operator==(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kEq, std::move(lhs), std::move(rhs));
}
Expr operator!=(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kNe, std::move(lhs), std::move(rhs));
}
Expr operator&&(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kAnd, std::move(lhs), std::move(rhs));
}
Expr operator||(Expr lhs, Expr rhs) {
  return MakeBinary(ExprKind::kOr, std::move(lhs), std::move(rhs));
}

Expr Between(Expr value, Expr lo, Expr hi) {
  return (lo <= value) && (value <= hi);
}

namespace {

Result<ExprType> TypeCheckNode(const ExprNode* node,
                               const ColumnTypeResolver& resolve) {
  switch (node->kind) {
    case ExprKind::kColumn:
      return resolve(node->name);
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      return node->type;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      auto lhs = TypeCheckNode(node->lhs.get(), resolve);
      if (!lhs.ok()) return lhs;
      auto rhs = TypeCheckNode(node->rhs.get(), resolve);
      if (!rhs.ok()) return rhs;
      const ExprType lt = lhs.value();
      const ExprType rt = rhs.value();
      if (IsNumeric(lt) && IsNumeric(rt)) {
        return (lt == ExprType::kDouble || rt == ExprType::kDouble)
                   ? ExprType::kDouble
                   : ExprType::kInt64;
      }
      // Date arithmetic: shifting by a day offset (Q4's start + 92 days).
      if (node->kind != ExprKind::kMul && lt == ExprType::kDate &&
          rt == ExprType::kInt64) {
        return ExprType::kDate;
      }
      return Status::InvalidArgument(
          std::string("arithmetic requires numeric operands, got ") +
          ExprTypeName(lt) + " and " + ExprTypeName(rt));
    }
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe:
    case ExprKind::kEq:
    case ExprKind::kNe: {
      auto lhs = TypeCheckNode(node->lhs.get(), resolve);
      if (!lhs.ok()) return lhs;
      auto rhs = TypeCheckNode(node->rhs.get(), resolve);
      if (!rhs.ok()) return rhs;
      const ExprType lt = lhs.value();
      const ExprType rt = rhs.value();
      if (lt == ExprType::kDict || rt == ExprType::kDict) {
        // Dictionary codes are equality-only: the dictionaries are not
        // order-preserving, so range comparisons would be meaningless.
        if (node->kind != ExprKind::kEq && node->kind != ExprKind::kNe) {
          return Status::InvalidArgument(
              "dictionary-encoded values support only == and !=");
        }
        if (lt != rt) {
          return Status::InvalidArgument(
              std::string("cannot compare ") + ExprTypeName(lt) + " with " +
              ExprTypeName(rt));
        }
        return ExprType::kBool;
      }
      const bool ok = (IsNumeric(lt) && IsNumeric(rt)) ||
                      (lt == ExprType::kDate &&
                       (rt == ExprType::kDate || rt == ExprType::kInt64)) ||
                      (rt == ExprType::kDate && lt == ExprType::kInt64);
      if (!ok) {
        return Status::InvalidArgument(std::string("cannot compare ") +
                                       ExprTypeName(lt) + " with " +
                                       ExprTypeName(rt));
      }
      return ExprType::kBool;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      auto lhs = TypeCheckNode(node->lhs.get(), resolve);
      if (!lhs.ok()) return lhs;
      auto rhs = TypeCheckNode(node->rhs.get(), resolve);
      if (!rhs.ok()) return rhs;
      if (lhs.value() != ExprType::kBool || rhs.value() != ExprType::kBool) {
        return Status::InvalidArgument(
            std::string("logical operators require bool operands, got ") +
            ExprTypeName(lhs.value()) + " and " + ExprTypeName(rhs.value()));
      }
      return ExprType::kBool;
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

Result<ExprType> TypeCheck(const Expr& expr,
                           const ColumnTypeResolver& resolve) {
  if (!expr.valid()) return Status::InvalidArgument("empty expression");
  return TypeCheckNode(expr.node(), resolve);
}

Result<ExprType> TypeCheck(const Expr& expr, const storage::Table& table) {
  return TypeCheck(expr, [&table](const std::string& name)
                             -> Result<ExprType> {
    if (!table.HasColumn(name)) {
      return Status::NotFound("table '" + table.name() +
                              "' has no column '" + name + "'");
    }
    return ExprTypeFor(table.GetColumn(name)->type());
  });
}

bool IsConstNode(const ExprNode* node) {
  if (node == nullptr) return true;
  if (node->kind == ExprKind::kColumn) return false;
  return IsConstNode(node->lhs.get()) && IsConstNode(node->rhs.get());
}

bool IsConstExpr(const Expr& expr) {
  return expr.valid() && IsConstNode(expr.node());
}

}  // namespace anker::query
