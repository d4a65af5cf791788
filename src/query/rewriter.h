/// \file rewriter.h
/// Dummy-aware query rewriting (Appendix B). Encrypted databases that do
/// not natively understand dummy records can still give correct answers if
/// every query is rewritten to exclude rows whose isDummy attribute is set:
///
///   Filter   p            ->  p AND isDummy = FALSE
///   Project  pi(T, A)     ->  pi(filter(T, isDummy = FALSE), A)
///   GroupBy  chi(T, A')   ->  chi(filter(T, isDummy = FALSE), A')
///   Join     T1 x T2 on c ->  filter both sides on isDummy = FALSE first
///
/// The rewriter is a pure AST-to-AST transformation; it never inspects data.
#pragma once

#include "query/ast.h"

namespace dpsync::query {

/// Returns a copy of `q` with dummy-exclusion predicates added. For joins,
/// both sides get a table-qualified `T.isDummy = 0` conjunct; for scans a
/// bare `isDummy = 0` conjunct is AND-ed into the WHERE clause.
SelectQuery RewriteForDummies(const SelectQuery& q);

/// Builds the predicate `column = 0` (used by tests and the rewriter).
ExprPtr MakeNotDummyPredicate(const std::string& column);

/// Recognizes `[user AND] lcol = 0 AND rcol = 0`, the exact tree
/// RewriteForDummies appends for a join of tables L and R with lcol =
/// "L.isDummy" and rcol = "R.isDummy", and returns true with `*user_out`
/// set to the remaining user predicate (null when the WHERE was only the
/// conjuncts). The join kernels drop the two conjuncts for each side's
/// own real-row test (query::MarkRealRows), which keeps exactly the pairs
/// they accept; a side without the column must keep them, because there
/// they are NULL and reject every pair.
bool SplitDummyConjuncts(const Expr* where, const std::string& lcol,
                         const std::string& rcol, const Expr** user_out);

}  // namespace dpsync::query
