#include "query/rewriter.h"

namespace dpsync::query {

ExprPtr MakeNotDummyPredicate(const std::string& column) {
  return std::make_unique<CompareExpr>(
      CmpOp::kEq, std::make_unique<ColumnExpr>(column),
      std::make_unique<LiteralExpr>(Value(static_cast<int64_t>(0))));
}

namespace {
ExprPtr AndWith(ExprPtr existing, ExprPtr extra) {
  if (!existing) return extra;
  return std::make_unique<LogicalExpr>(LogicalExpr::Op::kAnd,
                                       std::move(existing), std::move(extra));
}

/// True when `e` is exactly `<col> = 0` (the conjunct MakeNotDummyPredicate
/// builds).
bool IsNotDummyConjunct(const Expr* e, const std::string& col) {
  if (e == nullptr || e->kind() != ExprKind::kCompare) return false;
  const auto& cmp = static_cast<const CompareExpr&>(*e);
  if (cmp.op() != CmpOp::kEq) return false;
  if (cmp.lhs().kind() != ExprKind::kColumn ||
      cmp.rhs().kind() != ExprKind::kLiteral) {
    return false;
  }
  if (static_cast<const ColumnExpr&>(cmp.lhs()).name() != col) return false;
  const Value& v = static_cast<const LiteralExpr&>(cmp.rhs()).value();
  return v.type() == ValueType::kInt && v.AsInt() == 0;
}
}  // namespace

SelectQuery RewriteForDummies(const SelectQuery& q) {
  SelectQuery out = q;  // deep copy (SelectQuery clones its WHERE tree)
  if (out.join) {
    // Both join inputs are filtered on their own dummy flag, qualified so
    // each predicate binds to the right side of the joined schema.
    out.where = AndWith(std::move(out.where),
                        MakeNotDummyPredicate(out.table + "." +
                                              Schema::kDummyColumn));
    out.where = AndWith(std::move(out.where),
                        MakeNotDummyPredicate(out.join->table + "." +
                                              Schema::kDummyColumn));
  } else {
    out.where =
        AndWith(std::move(out.where), MakeNotDummyPredicate(Schema::kDummyColumn));
  }
  return out;
}

bool SplitDummyConjuncts(const Expr* where, const std::string& lcol,
                         const std::string& rcol, const Expr** user_out) {
  *user_out = nullptr;
  if (where == nullptr || where->kind() != ExprKind::kLogical) return false;
  const auto& outer = static_cast<const LogicalExpr&>(*where);
  if (outer.op() != LogicalExpr::Op::kAnd ||
      !IsNotDummyConjunct(&outer.rhs(), rcol)) {
    return false;
  }
  const Expr* lhs = &outer.lhs();
  if (IsNotDummyConjunct(lhs, lcol)) return true;
  if (lhs->kind() != ExprKind::kLogical) return false;
  const auto& inner = static_cast<const LogicalExpr&>(*lhs);
  if (inner.op() != LogicalExpr::Op::kAnd ||
      !IsNotDummyConjunct(&inner.rhs(), lcol)) {
    return false;
  }
  *user_out = &inner.lhs();
  return true;
}

}  // namespace dpsync::query
