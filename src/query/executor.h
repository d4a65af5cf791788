/// \file executor.h
/// Reference (plaintext) query executor. It computes exact answers over
/// in-memory tables and serves two roles:
///  1. the analyst's ground truth q_t(D_t) over the logical database, used
///     by the query-error metric (§4.5.2);
///  2. the decrypted-side evaluation inside the simulated enclave / Crypt-eps
///     aggregation (the edb layer feeds it decrypted rows).
///
/// Aggregates: COUNT(*) / COUNT(col) / SUM / AVG / MIN / MAX, optionally
/// GROUP BY one column. INNER equi-joins on the ON column take one of two
/// paths:
///  - the counting pass, for a COUNT(*) join whose pairs read nothing (no
///    GROUP BY, no WHERE left after the Appendix-B `isDummy = 0` hoist,
///    typed int keys on both sides; the paper's Q3): Σ_k |L_k|·|R_k| from
///    per-key multiplicities in cache-sized radix partitions, on the
///    calling thread, since an integer count has no merge order to fix;
///  - the chain path, a partitioned hash join, for every other join:
///    build side partitioned by key hash into open-addressing tables with
///    per-key chains, probe side walked in strict row order over chunks
///    the join computes itself and runs on the shared pool, with
///    per-chunk partials merged in chunk order, so answers do not depend
///    on which thread calls Execute.
/// Joins support the same single-column GROUP BY as scans; the group key
/// must be table-qualified ("T.col") to bind in the joined schema.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/columnar.h"
#include "query/result.h"
#include "query/schema.h"

namespace dpsync::query {

/// A borrowed, address-stable run of rows. Spans carry their length
/// explicitly instead of pointing at a container: the edb snapshot layer
/// hands out spans over enclave mirror chunks that a concurrent writer may
/// still be appending to, and a reader that never consults the container's
/// size cannot observe (or race with) that growth. See edb/snapshot.h.
///
/// `columns`, when non-empty, carries one ColumnSpan per schema column — a
/// columnar projection of the same rows captured under the same lock and
/// bounded by the same `size`. Spans without projections (plain in-memory
/// tables) keep the scan kernel on its row loop.
struct RowSpan {
  const Row* data = nullptr;
  size_t size = 0;
  std::vector<ColumnSpan> columns;
};

/// Whether every non-empty span carries a full columnar projection (one
/// ColumnSpan per each of `n_cols` schema columns) whose column `idx` is
/// typed `t`.
bool SpansTyped(const std::vector<RowSpan>& spans, size_t n_cols, size_t idx,
                ValueType t);

/// A named in-memory relation. Rows are either owned (`rows`) or borrowed
/// as explicit row spans (`borrowed_spans`, what an epoch snapshot serves
/// — the edb engines borrow their enclave-resident shard mirrors to avoid
/// copying per query, and the executor fans scans out across the spans).
struct Table {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
  std::vector<RowSpan> borrowed_spans;

  /// The effective row spans, in scan order (shard-major for sharded
  /// borrows; one span over `rows` for owned tables). This is the one
  /// representation every execution path consumes.
  std::vector<RowSpan> Spans() const {
    if (!borrowed_spans.empty()) return borrowed_spans;
    return {RowSpan{rows.data(), rows.size(), {}}};
  }

  /// Total rows across all spans.
  size_t TotalRows() const {
    if (borrowed_spans.empty()) return rows.size();
    size_t n = 0;
    for (const auto& span : borrowed_spans) n += span.size;
    return n;
  }
};

/// Name -> table lookup (non-owning).
class Catalog {
 public:
  void AddTable(const Table* table) { tables_[table->name] = table; }
  const Table* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, const Table*> tables_;
};

/// Builds the schema of `left JOIN right`: every column is table-qualified
/// ("Left.col", "Right.col") so predicates can address either side.
Schema JoinedSchema(const Table& left, const Table& right);

/// Execution knobs. `vectorized` (default on) is the scan kernel's loop
/// choice (see ExecuteScanPartial): on, the kernel runs its columnar loop
/// wherever that applies; off pins the row loop, the reference the tests
/// compare the columnar loop against. The two loops produce bit-identical
/// cells (fixed reduction order; see docs/ARCHITECTURE.md), so the engines
/// leave it on.
struct ExecutorOptions {
  bool vectorized = true;
};

struct ScanPartial;

/// Executes SELECT statements against a catalog.
class Executor {
 public:
  explicit Executor(const Catalog* catalog,
                    ExecutorOptions options = ExecutorOptions())
      : catalog_(catalog), options_(options) {}

  /// Runs the query and finalizes its partial (ScanPartial::Finalize).
  /// Errors: NotFound (unknown table), Unimplemented (unsupported shapes:
  /// no aggregate, multi-column GROUP BY).
  StatusOr<QueryResult> Execute(const SelectQuery& q) const;

 private:
  /// The join's accumulators, from the counting pass or the chain path
  /// (see the file comment), as a partial with no span cells.
  StatusOr<ScanPartial> ExecuteJoin(const SelectQuery& q, const Table& left,
                                    const Table& right) const;

  const Catalog* catalog_;
  ExecutorOptions options_;
};

/// Streaming aggregate accumulator shared by all execution backends.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  /// Adds one row's contribution; `v` is the aggregated column value
  /// (ignored for COUNT(*)).
  void Add(const Value& v);

  /// Final aggregate value (0 for empty COUNT/SUM, NaN-safe AVG -> 0).
  double Result() const;

  /// Folds another accumulator into this one, as if its rows had been
  /// Add()ed here in order. Lets parallel scans keep per-chunk partials
  /// and merge them deterministically (chunk-index order).
  void Merge(const AggAccumulator& other);

  /// Columnar-loop equivalents of Add(), inlined so FoldColumn's tight
  /// loops compile to straight-line code. AddNull() is Add(NULL): the row
  /// is counted (COUNT(col) and AVG's divisor include NULLs — the
  /// documented Add() semantics) but contributes nothing else.
  /// AddMeasure(d) is Add(v) for non-null v with v.AsDouble() == d; the
  /// statement order matches Add() exactly so SUM/MIN/MAX state evolves
  /// bit-identically.
  void AddNull() { ++count_; }
  void AddMeasure(double d) {
    ++count_;
    if (func_ == AggFunc::kCount) return;
    sum_ += d;
    if (!seen_ || d < min_) min_ = d;
    if (!seen_ || d > max_) max_ = d;
    seen_ = true;
  }

  /// Folds the selected rows [begin, begin+n) of a typed column in strict
  /// ascending row order — the fixed lane-reduction order that keeps
  /// FP-sensitive aggregates (SUM/AVG) bit-identical to row-at-a-time
  /// Add() over the same rows. `sel` is a 0/1 bitmap of length n;
  /// nullptr means every row is selected. `col` must be typed
  /// (kInt or kDouble).
  void FoldColumn(const ColumnSpan& col, size_t begin, size_t n,
                  const uint8_t* sel);

  /// COUNT-style fold: every selected row contributes its existence only
  /// (Add() ignores the value for kCount).
  void FoldCount(size_t n, const uint8_t* sel);

  int64_t count() const { return count_; }
  AggFunc func() const { return func_; }

  /// The accumulator's full internal state, exposed for serialization
  /// (the distributed layer ships partials between processes). A state
  /// captured on one host and restored with FromState() on another
  /// continues Merge()/Result() bit-identically — doubles travel as
  /// exact bit patterns on the wire.
  struct State {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool seen = false;
  };
  State state() const { return {count_, sum_, min_, max_, seen_}; }
  static AggAccumulator FromState(AggFunc func, const State& s) {
    AggAccumulator acc(func);
    acc.count_ = s.count;
    acc.sum_ = s.sum;
    acc.min_ = s.min;
    acc.max_ = s.max;
    acc.seen_ = s.seen;
    return acc;
  }

 private:
  AggFunc func_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// One span's (one storage shard's) contribution to a scan: the fold of
/// that span's sub-chunk accumulators in chunk order, starting from a
/// fresh accumulator. Span partials are the unit of the scan reduction
/// tree (see ScanPartial below): they never blend rows across a span
/// boundary, which is what lets a remote process recompute exactly this
/// cell from its local copy of the span.
struct SpanPartial {
  AggAccumulator total{AggFunc::kCount};
  std::map<Value, AggAccumulator> groups;
};

/// A mergeable partial aggregate over a prefix-contiguous run of a
/// table's spans — what a shard server returns for its local shard range
/// and what the coordinator merges in strict server-rank order. The
/// inherited `total`/`groups` are the left fold of `spans`. A join's
/// partial, and a view's state (edb/view.h), have that fold and no cells.
///
/// The determinism contract: every scan (either kernel loop, local or
/// distributed) reduces over the SAME tree — sub-chunks fold left
/// within their span, span partials fold left in span order — which is a
/// pure function of the ordered span row counts, never of how spans are
/// grouped into processes or scheduled onto threads. Because FP addition
/// is non-associative, the per-span cells travel alongside the folded
/// aggregate: MergeFrom replays `other`'s cells one span at a time, so a
/// coordinator folding per-server partials in rank order reproduces the
/// single-process fold bit for bit (SUM/AVG over doubles included).
struct ScanPartial : SpanPartial {
  ScanPartial() = default;
  ScanPartial(AggFunc f, bool g)
      : SpanPartial{AggAccumulator(f), {}}, func(f), grouped(g) {}

  AggFunc func = AggFunc::kCount;
  bool grouped = false;
  /// Per-span cells in span (global shard) order; empty spans contribute
  /// no cell.
  std::vector<SpanPartial> spans;
  int64_t records_scanned = 0;

  /// Appends one span's cell and folds it into the aggregate state.
  void AppendSpan(SpanPartial cell);

  /// Folds `other` into this partial, one span cell at a time. `other`'s
  /// spans must come later in the global span order than everything
  /// already merged (rank order guarantees this).
  Status MergeFrom(const ScanPartial& other);

  /// The final answer, identical to one scan over the union of rows:
  /// `total`'s Result() ungrouped, one Result() per group otherwise.
  /// Scans, joins and views all answer here.
  QueryResult Finalize() const;
};

/// The scan kernel's per-row step: the WHERE gate, the group key and the
/// value fed to the accumulator. The kernel's row loop folds every row
/// through it, and incremental views (edb/view.h) fold their commit
/// deltas through the same step, so a view answer cannot drift from the
/// scan answer.
class ScanRowStep {
 public:
  /// `q` must have the kernel's scan shape (one aggregate, at most one
  /// GROUP BY column) and must outlive the step: its WHERE tree is
  /// borrowed.
  explicit ScanRowStep(const SelectQuery& q);

  /// Folds `row` into `cell`: nothing when the WHERE gate rejects it,
  /// otherwise one Add() into the row's group (created on its first
  /// matching row) or, ungrouped, into the total. Returns the value handed
  /// to Add() — NULL for rejected rows and for COUNT(*) — so views can
  /// check that their fold order cannot matter.
  Value Fold(const Schema& schema, const Row& row, SpanPartial* cell) const;

 private:
  const Expr* where_;
  AggFunc func_;
  bool needs_value_;
  bool grouped_;
  ColumnExpr agg_col_;
  ColumnExpr key_col_;
};

/// The scan kernel: the one function that folds scanned rows into
/// partials, for local scans (Executor::Execute finalizes its partial),
/// shard servers (which ship its per-span cells) and, through
/// ScanRowStep, views. It stops short of Finalize(): the returned partial
/// carries raw accumulator state for cross-process merging. Supports a
/// single aggregate with an optional single-column GROUP BY; no joins.
///
/// It decides once per scan, from the spans it receives, whether its
/// columnar loop applies — every non-empty span carries typed columnar
/// projections of the columns the fold reads, the WHERE tree lowers to
/// selection-bitmap ops (VectorPredicate::Compile) and any group key is
/// int64 — and runs that loop or the row loop over every chunk of the
/// span-aligned decomposition. Both loops add rows in the same order, so
/// the cells are bit-identical either way; `vectorized = false` pins the
/// row loop, the reference the tests compare against.
StatusOr<ScanPartial> ExecuteScanPartial(const SelectQuery& q,
                                         const Table& table,
                                         bool vectorized = true);

}  // namespace dpsync::query
