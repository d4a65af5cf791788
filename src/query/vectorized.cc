#include "query/vectorized.h"

#include <algorithm>

namespace dpsync::query {

std::optional<size_t> ResolveColumnName(const Schema& schema,
                                        const std::string& name) {
  auto idx = schema.FindIndex(name);
  if (!idx) {
    auto dot = name.rfind('.');
    if (dot != std::string::npos) idx = schema.FindIndex(name.substr(dot + 1));
  }
  return idx;
}

namespace {

/// The mirrored operator for `lit op col` -> `col op' lit`.
CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
    case CmpOp::kNe:
      return op;
  }
  return op;
}

/// Whether Compare()'s trichotomy sign `c` satisfies `op` — the exact
/// switch CompareExpr::Eval applies.
bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Fills out[0..n) with `!null && CmpHolds(op, tri(v, lit))` where tri is
/// Value::Compare's (v < lit, v > lit) trichotomy — expressed in those
/// terms (not operator==) so double NaN behaves exactly like the scalar
/// path, where Compare(NaN, y) == 0.
template <typename T, typename L>
void FillCmp(CmpOp op, const T* v, const L& lit, const uint8_t* nulls,
             size_t begin, size_t n, uint8_t* out) {
  const T* p = v + begin;
  const uint8_t* nu = nulls + begin;
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && !(p[i] < lit) && !(lit < p[i]));
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && (p[i] < lit || lit < p[i]));
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && p[i] < lit);
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && !(lit < p[i]));
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && lit < p[i]);
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(!nu[i] && !(p[i] < lit));
      break;
  }
}

}  // namespace

std::optional<VectorPredicate> VectorPredicate::Compile(const Expr* where,
                                                        const Schema& schema) {
  VectorPredicate pred;
  if (where != nullptr && pred.CompileExpr(*where, schema) < 0) {
    return std::nullopt;
  }
  std::sort(pred.cols_.begin(), pred.cols_.end());
  pred.cols_.erase(std::unique(pred.cols_.begin(), pred.cols_.end()),
                   pred.cols_.end());
  return pred;
}

int VectorPredicate::CompileCompare(CmpOp op, size_t col, const Value& lit,
                                    const Schema& schema) {
  Node node;
  node.op = op;
  node.col = col;
  const ValueType col_type = schema.fields()[col].type;
  const ValueType lit_type = lit.type();
  if (lit_type == ValueType::kNull) {
    // CompareExpr::Eval returns false whenever an operand is NULL.
    node.kind = Node::Kind::kConstFalse;
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }
  const bool col_num =
      col_type == ValueType::kInt || col_type == ValueType::kDouble;
  const bool lit_num =
      lit_type == ValueType::kInt || lit_type == ValueType::kDouble;
  if (col_type == ValueType::kInt && lit_type == ValueType::kInt) {
    node.kind = Node::Kind::kCmpInt;
    node.ilit = lit.AsInt();
  } else if (col_num && lit_num) {
    node.kind = Node::Kind::kCmpDouble;
    node.dlit = lit.AsDouble();
  } else if (col_type == ValueType::kString && lit_type == ValueType::kString) {
    node.kind = Node::Kind::kCmpString;
    node.slit = lit.AsString();
  } else if (col_num || col_type == ValueType::kString) {
    // Mixed string/number: Value::Compare orders every string after every
    // number, so the trichotomy sign is the same for all non-NULL rows.
    node.kind = Node::Kind::kCmpFixed;
    node.fixed_cmp = col_type == ValueType::kString ? 1 : -1;
  } else {
    return -1;  // schema declares a type we cannot lower (kNull)
  }
  cols_.push_back(col);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int VectorPredicate::CompileExpr(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(e);
      const Expr *l = &cmp.lhs(), *r = &cmp.rhs();
      CmpOp op = cmp.op();
      if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn) {
        std::swap(l, r);
        op = FlipCmp(op);
      }
      if (l->kind() != ExprKind::kColumn || r->kind() != ExprKind::kLiteral) {
        return -1;
      }
      auto col =
          ResolveColumnName(schema, static_cast<const ColumnExpr&>(*l).name());
      if (!col) {
        // Unknown columns evaluate to NULL, and NULL compares false.
        Node node;
        node.kind = Node::Kind::kConstFalse;
        nodes_.push_back(node);
        return static_cast<int>(nodes_.size()) - 1;
      }
      return CompileCompare(op, *col,
                            static_cast<const LiteralExpr&>(*r).value(),
                            schema);
    }
    case ExprKind::kBetween: {
      // Desugared as (col >= lo AND col <= hi): bitwise AND of the two
      // leaves reproduces BetweenExpr::Eval exactly — a NULL row value
      // fails both leaves, and a NULL bound turns its leaf kConstFalse.
      const auto& b = static_cast<const BetweenExpr&>(e);
      if (b.operand().kind() != ExprKind::kColumn ||
          b.lo().kind() != ExprKind::kLiteral ||
          b.hi().kind() != ExprKind::kLiteral) {
        return -1;
      }
      auto col = ResolveColumnName(
          schema, static_cast<const ColumnExpr&>(b.operand()).name());
      if (!col) {
        Node node;
        node.kind = Node::Kind::kConstFalse;
        nodes_.push_back(node);
        return static_cast<int>(nodes_.size()) - 1;
      }
      int lo = CompileCompare(CmpOp::kGe, *col,
                              static_cast<const LiteralExpr&>(b.lo()).value(),
                              schema);
      if (lo < 0) return -1;
      int hi = CompileCompare(CmpOp::kLe, *col,
                              static_cast<const LiteralExpr&>(b.hi()).value(),
                              schema);
      if (hi < 0) return -1;
      Node node;
      node.kind = Node::Kind::kAnd;
      node.lhs = lo;
      node.rhs = hi;
      nodes_.push_back(std::move(node));
      return static_cast<int>(nodes_.size()) - 1;
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      int lhs = CompileExpr(l.lhs(), schema);
      if (lhs < 0) return -1;
      int rhs = CompileExpr(l.rhs(), schema);
      if (rhs < 0) return -1;
      Node node;
      node.kind = l.op() == LogicalExpr::Op::kAnd ? Node::Kind::kAnd
                                                  : Node::Kind::kOr;
      node.lhs = lhs;
      node.rhs = rhs;
      nodes_.push_back(std::move(node));
      return static_cast<int>(nodes_.size()) - 1;
    }
    case ExprKind::kNot: {
      int inner =
          CompileExpr(static_cast<const NotExpr&>(e).inner(), schema);
      if (inner < 0) return -1;
      Node node;
      node.kind = Node::Kind::kNot;
      node.lhs = inner;
      nodes_.push_back(std::move(node));
      return static_cast<int>(nodes_.size()) - 1;
    }
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return -1;  // bare truthiness predicates stay on the row loop
  }
  return -1;
}

bool VectorPredicate::CompatibleWith(
    const std::vector<ColumnSpan>& cols) const {
  for (const Node& node : nodes_) {
    switch (node.kind) {
      case Node::Kind::kCmpInt:
        if (node.col >= cols.size() || cols[node.col].type != ValueType::kInt)
          return false;
        break;
      case Node::Kind::kCmpDouble:
        // Numeric-vs-double comparisons accept either numeric projection;
        // the compiled column's declared type decides which array Eval
        // reads.
        if (node.col >= cols.size() ||
            (cols[node.col].type != ValueType::kInt &&
             cols[node.col].type != ValueType::kDouble))
          return false;
        break;
      case Node::Kind::kCmpString:
        if (node.col >= cols.size() ||
            cols[node.col].type != ValueType::kString)
          return false;
        break;
      case Node::Kind::kCmpFixed:
        // Only the null mask is read; any typed projection carries one.
        if (node.col >= cols.size() || !cols[node.col].typed()) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

void VectorPredicate::Eval(const std::vector<ColumnSpan>& cols, size_t begin,
                           size_t n, uint8_t* out,
                           std::vector<std::vector<uint8_t>>* scratch) const {
  if (nodes_.empty()) {
    std::fill(out, out + n, static_cast<uint8_t>(1));
    return;
  }
  scratch->resize(nodes_.size());
  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    const Node& node = nodes_[ni];
    auto& buf = (*scratch)[ni];
    // The root writes straight into the caller's bitmap.
    uint8_t* dst = ni + 1 == nodes_.size() ? out : (buf.resize(n), buf.data());
    switch (node.kind) {
      case Node::Kind::kConstFalse:
        std::fill(dst, dst + n, static_cast<uint8_t>(0));
        break;
      case Node::Kind::kCmpInt:
        FillCmp(node.op, cols[node.col].ints, node.ilit, cols[node.col].nulls,
                begin, n, dst);
        break;
      case Node::Kind::kCmpDouble:
        if (cols[node.col].type == ValueType::kInt) {
          FillCmp(node.op, cols[node.col].ints, node.dlit,
                  cols[node.col].nulls, begin, n, dst);
        } else {
          FillCmp(node.op, cols[node.col].doubles, node.dlit,
                  cols[node.col].nulls, begin, n, dst);
        }
        break;
      case Node::Kind::kCmpString:
        FillCmp(node.op, cols[node.col].strings, node.slit,
                cols[node.col].nulls, begin, n, dst);
        break;
      case Node::Kind::kCmpFixed: {
        const uint8_t* nu = cols[node.col].nulls + begin;
        const uint8_t hold =
            static_cast<uint8_t>(CmpHolds(node.op, node.fixed_cmp));
        for (size_t i = 0; i < n; ++i)
          dst[i] = static_cast<uint8_t>(!nu[i] && hold);
        break;
      }
      case Node::Kind::kAnd: {
        const uint8_t* a = (*scratch)[static_cast<size_t>(node.lhs)].data();
        const uint8_t* b = (*scratch)[static_cast<size_t>(node.rhs)].data();
        for (size_t i = 0; i < n; ++i)
          dst[i] = static_cast<uint8_t>(a[i] & b[i]);
        break;
      }
      case Node::Kind::kOr: {
        const uint8_t* a = (*scratch)[static_cast<size_t>(node.lhs)].data();
        const uint8_t* b = (*scratch)[static_cast<size_t>(node.rhs)].data();
        for (size_t i = 0; i < n; ++i)
          dst[i] = static_cast<uint8_t>(a[i] | b[i]);
        break;
      }
      case Node::Kind::kNot: {
        const uint8_t* a = (*scratch)[static_cast<size_t>(node.lhs)].data();
        for (size_t i = 0; i < n; ++i)
          dst[i] = static_cast<uint8_t>(a[i] ^ 1);
        break;
      }
    }
  }
}

}  // namespace dpsync::query
