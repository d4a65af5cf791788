/// \file plan.h
/// The planning stage extracted from the parser/rewriter/executor pipeline
/// (Query API v2). A `QueryPlan` captures everything about a SELECT that
/// does not depend on the data: the normalized AST, the canonical-text
/// fingerprint used as the server plan-cache key, the dummy-exclusion
/// rewrite (Appendix B), the table/column binding against the server
/// catalog, and the scan-vs-join strategy choice. Plans are immutable and
/// shared (`std::shared_ptr<const QueryPlan>`): the edb layer caches them
/// per server and re-executes them across sync epochs — appends never
/// change a schema, so a plan stays valid until the catalog itself changes
/// (a new table), which the `catalog_epoch` tag detects.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "query/ast.h"
#include "query/schema.h"

namespace dpsync::query {

/// Canonical text of a SELECT: the stable rendering every differently
/// spelled-but-identical query normalizes to (keyword case, redundant
/// parentheses, `<>` vs `!=`, whitespace all collapse). Defined as the
/// AST's ToString(), which is parse-stable:
/// `ParseSelect(CanonicalText(q)) -> q'` with `CanonicalText(q') ==
/// CanonicalText(q)` (enforced by the fingerprint property test).
std::string CanonicalText(const SelectQuery& q);

/// FNV-1a 64-bit hash of `text` (exposed for tests).
uint64_t FingerprintText(const std::string& text);

/// The plan-cache key: FNV-1a over the canonical text. Collisions are
/// guarded by an exact canonical-text comparison in the cache, so the
/// fingerprint only needs to be well-distributed, not perfect.
uint64_t FingerprintSelect(const SelectQuery& q);

/// Returns a normalized deep copy of `q` (the AST the canonical text
/// renders). Today normalization is structural identity — the parser
/// already produces a canonical AST — but callers must treat the result,
/// not the input, as the plan's source of truth.
SelectQuery NormalizeSelect(const SelectQuery& q);

/// Which execution shape the plan selected.
enum class PlanKind { kScan, kJoin };

/// How the engine will touch the records of the scanned table(s): a linear
/// fixed-order scan or per-shard oblivious ORAM accesses. Chosen from the
/// engine's storage method at plan time (informational for engines — both
/// paths serve identical partitions — but surfaced in \timing output).
enum class AccessPath { kLinearScan, kOramIndexed };

const char* PlanKindName(PlanKind kind);
const char* AccessPathName(AccessPath path);

/// An immutable, bound, executable query plan.
struct QueryPlan {
  /// Plan-cache key (hash of `canonical_text`).
  uint64_t fingerprint = 0;
  /// Server catalog epoch the binding was performed against. A plan whose
  /// epoch is behind the server's is stale and must be re-planned (the
  /// session layer does this transparently).
  uint64_t catalog_epoch = 0;
  std::string canonical_text;
  /// The analyst's query, normalized (what re-planning starts from).
  SelectQuery normalized;
  /// The dummy-exclusion rewrite of `normalized` — what engines execute.
  SelectQuery rewritten;
  PlanKind kind = PlanKind::kScan;
  AccessPath access_path = AccessPath::kLinearScan;
  /// Bound table names (validated against the catalog at plan time;
  /// tables are never dropped, so the names stay resolvable for the
  /// server's lifetime). `join_table` is empty for scans.
  std::string table;
  std::string join_table;
  /// The single aggregate of the select list (executor contract).
  SelectItem aggregate;
  bool grouped = false;
};

/// Classifies a plan's execution as read-only vs state-mutating. A linear
/// single-table scan only reads committed rows, so an engine may serve it
/// from an epoch snapshot without holding the table's exclusive lock.
/// ORAM-indexed scans rewrite tree state on every oblivious access and
/// stay serialized per table (see docs/CONCURRENCY.md).
inline bool PlanIsReadOnlyScan(const QueryPlan& plan) {
  return plan.kind == PlanKind::kScan &&
         plan.access_path == AccessPath::kLinearScan;
}

/// The join analog of PlanIsReadOnlyScan: a linear (non-ORAM) aggregate
/// join only reads both sides' committed rows, so an engine may pin TWO
/// epoch snapshots under a brief ordered capture lock and execute the
/// whole join with no locks held, overlapping owner appends and other
/// readers. ORAM-indexed joins keep the exclusive two-table path (each
/// oblivious access rewrites tree state).
inline bool PlanIsReadOnlyJoin(const QueryPlan& plan) {
  return plan.kind == PlanKind::kJoin &&
         plan.access_path == AccessPath::kLinearScan;
}

/// Classifies a plan as maintainable by an incremental materialized
/// aggregate view (edb::MaterializedView): a read-only single-table
/// linear scan whose aggregate folds append-only — COUNT/SUM/AVG, with or
/// without WHERE and GROUP BY. Their accumulator state is a pure monoid
/// over (count, sum), so the newly committed delta of a flush can be
/// folded in without revisiting older rows. MIN/MAX fold under appends
/// too but would not survive a future deletion/compaction path, so they
/// stay on the scan path rather than bake that assumption into view
/// state.
inline bool PlanIsViewEligible(const QueryPlan& plan) {
  if (!PlanIsReadOnlyScan(plan)) return false;
  switch (plan.aggregate.agg) {
    case AggFunc::kCount:
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return true;
    default:
      return false;
  }
}

/// Catalog view the planner binds against: table name -> schema, nullptr
/// for unknown tables. The callback must be safe to invoke from any
/// thread (edb servers back it with their catalog lock).
using SchemaLookup = std::function<const Schema*(const std::string&)>;

/// Engine traits consumed by the planner.
struct PlannerOptions {
  /// Engines without a join operator reject join plans at Prepare time.
  bool supports_join = true;
  /// Used in error messages ("<engine> does not support join operators").
  std::string engine_name = "engine";
  /// True when the engine scans through an oblivious index (sets
  /// QueryPlan::access_path).
  bool oram_indexed = false;
  /// Stamped into QueryPlan::catalog_epoch.
  uint64_t catalog_epoch = 0;
};

/// Builds a bound plan for `q`:
///  1. normalize + fingerprint;
///  2. capability check (joins) and table resolution (NotFound);
///  3. shape validation, mirroring the executor's contract so unsupported
///     queries fail at Prepare rather than first Execute (single
///     aggregate, single GROUP BY column — on scans and joins alike; a
///     join's group key must be table-qualified to bind in the joined
///     schema);
///  4. strict binding of the columns the executor dereferences by name —
///     GROUP BY key, aggregate column, join keys. WHERE-clause columns
///     stay lenient (unknown columns evaluate to NULL, matching SQL-ish
///     semantics and the pre-v2 behavior);
///  5. dummy-exclusion rewrite (Appendix B).
StatusOr<std::shared_ptr<const QueryPlan>> PlanSelect(
    const SelectQuery& q, const SchemaLookup& lookup,
    const PlannerOptions& opts);

}  // namespace dpsync::query
