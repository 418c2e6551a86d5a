#ifndef ANKER_QUERY_EXPR_H_
#define ANKER_QUERY_EXPR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/table.h"
#include "storage/value.h"

namespace anker::query {

/// Scalar type of an expression. Columns map from storage::ValueType;
/// comparisons and conjunctions produce kBool. kDict values are the dense
/// dictionary codes of string columns — equality-only, like the storage
/// layer's encoding.
enum class ExprType : uint8_t {
  kInt64,
  kDouble,
  kDate,
  kDict,
  kBool,
};

const char* ExprTypeName(ExprType type);

/// Arithmetic operand types (int64 promotes to double when mixed).
inline bool IsNumeric(ExprType type) {
  return type == ExprType::kInt64 || type == ExprType::kDouble;
}

/// ExprType of a storage column type.
ExprType ExprTypeFor(storage::ValueType type);

enum class ExprKind : uint8_t {
  kColumn,   ///< Reference to a column of the query's table, by name.
  kLiteral,  ///< Typed constant (raw slot encoding, or a string).
  kParam,    ///< Named placeholder bound at execution time (see Params).
  kAdd,
  kSub,
  kMul,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

/// One immutable node of an expression tree. Nodes are shared (an Expr
/// value is a shared_ptr handle), so sub-expressions can be reused across
/// queries freely.
struct ExprNode {
  ExprKind kind;
  // kColumn / kParam: the name. kParam additionally carries its declared
  // type in `type`.
  std::string name;
  ExprType type = ExprType::kInt64;
  // kLiteral: raw slot encoding per `type`; string literals (dictionary
  // equality) keep the text and resolve to a code when the query is built
  // against a concrete table.
  uint64_t raw = 0;
  std::string text;
  bool is_string = false;
  std::shared_ptr<const ExprNode> lhs;
  std::shared_ptr<const ExprNode> rhs;
};

/// Value-semantic handle on an expression tree. Compose with the factory
/// functions and operators below, e.g.
///   Col("l_extendedprice") * (F64(1.0) - Col("l_discount"))
///   Col("l_shipdate") <= Param("cutoff", ExprType::kDate)
///   Col("p_brand") == Str("Brand#23")
class Expr {
 public:
  Expr() = default;
  explicit Expr(std::shared_ptr<const ExprNode> node)
      : node_(std::move(node)) {}

  bool valid() const { return node_ != nullptr; }
  const ExprNode* node() const { return node_.get(); }
  std::shared_ptr<const ExprNode> shared() const { return node_; }

 private:
  std::shared_ptr<const ExprNode> node_;
};

/// ---- leaf factories -----------------------------------------------------

/// Column of the query's table (resolved when the query is built).
Expr Col(std::string name);
/// Typed constants.
Expr I64(int64_t value);
Expr F64(double value);
/// Date constant, in days since the TPC-H epoch (storage::ValueType::kDate).
Expr DateDays(int64_t days);
/// String constant for dictionary-encoded equality; resolves to the dense
/// code of the compared column's dictionary at build time.
Expr Str(std::string text);
/// Dictionary code constant (when the caller already holds the code).
Expr DictCode(uint32_t code);
/// Named parameter with a declared type; the value is supplied per
/// execution through Params. Using the same name twice refers to the same
/// parameter (the declared types must agree).
Expr Param(std::string name, ExprType type);

/// ---- composition --------------------------------------------------------

Expr operator+(Expr lhs, Expr rhs);
Expr operator-(Expr lhs, Expr rhs);
Expr operator*(Expr lhs, Expr rhs);
Expr operator<(Expr lhs, Expr rhs);
Expr operator<=(Expr lhs, Expr rhs);
Expr operator>(Expr lhs, Expr rhs);
Expr operator>=(Expr lhs, Expr rhs);
Expr operator==(Expr lhs, Expr rhs);
Expr operator!=(Expr lhs, Expr rhs);
Expr operator&&(Expr lhs, Expr rhs);
Expr operator||(Expr lhs, Expr rhs);

/// Closed interval: lo <= value && value <= hi (desugared to the
/// conjunction, so it lowers to the same fused range predicates).
Expr Between(Expr value, Expr lo, Expr hi);

/// ---- type checking ------------------------------------------------------

/// Type of a column name at the checked position; NotFound when the name
/// is unknown there.
using ColumnTypeResolver =
    std::function<Result<ExprType>(const std::string& name)>;

/// Infers the type of `expr` with column types from `resolve`, enforcing
/// the typing rules (arithmetic over numeric types with int->double
/// promotion, date +/- int64 day offsets, equality-only dictionary
/// comparisons, boolean conjunctions). Returns InvalidArgument on a type
/// error and the resolver's status for unknown columns.
Result<ExprType> TypeCheck(const Expr& expr,
                           const ColumnTypeResolver& resolve);

/// TypeCheck against `table`'s schema (NotFound for unknown columns).
Result<ExprType> TypeCheck(const Expr& expr, const storage::Table& table);

/// True when the expression references no columns (literals, params and
/// arithmetic over them) — such expressions are foldable to a constant at
/// bind time and may appear as predicate bounds.
bool IsConstExpr(const Expr& expr);
/// Node-level IsConstExpr; a null node counts as constant.
bool IsConstNode(const ExprNode* node);

}  // namespace anker::query

#endif  // ANKER_QUERY_EXPR_H_
