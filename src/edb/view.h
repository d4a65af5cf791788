/// \file view.h
/// Incremental materialized aggregate views over CommitEpoch deltas.
///
/// The repeated-dashboard workload (the same prepared aggregate fired
/// every tick under append traffic) pays O(n) per query on the snapshot
/// path for an answer that changed by O(delta) since the last flush. This
/// module maintains the answer under updates instead of recomputing it —
/// the dynamic-evaluation regime of Berkholz et al. ("Answering FO+MOD
/// queries under updates"): a `MaterializedView` holds the folded
/// `query::AggAccumulator` state of one view-eligible plan
/// (query::PlanIsViewEligible — single-table COUNT/SUM/AVG scans,
/// optionally filtered and grouped) plus the CommitEpoch it is current
/// through, and the owning `ViewRegistry` folds only the newly committed
/// rows of each flush into every registered view.
///
/// Lifecycle and epoch contract (see docs/CONCURRENCY.md):
///  - Views fold at Flush commit time, under the same table mutex that
///    publishes the CommitEpoch, so view state and epoch advance
///    atomically — a view answer stamped epoch E is bit-identical to a
///    scan of the epoch-E committed prefix.
///  - Each view tracks the per-shard row count it has folded; a fold
///    consumes exactly the un-folded suffix [folded_s, committed_s) of
///    every shard, which makes double-folding structurally impossible no
///    matter how many epochs elapsed between folds.
///  - `Reopen` advances the CommitEpoch without committing new rows and
///    re-decrypts the mirrors from storage, so views INVALIDATE on Reopen
///    and rebuild lazily: the next commit fold (or re-registration)
///    re-folds the whole committed prefix from row zero. An invalid or
///    stale view never answers — callers fall back to the snapshot scan.
///  - A view adds rows one at a time as shard-major deltas, while a scan
///    folds per-span cells and merges them. For SUM/AVG those orders agree
///    bit for bit only when every addition is exact, so a view answers
///    only while every value it summed is an integer and their absolute
///    sum stays below 2^53; past that (fractional fares, say) the plan
///    takes the snapshot scan, which is the reference.
///
/// Thread safety: none here. Every ViewRegistry method is called by
/// EncryptedTableStore under its table mutex; the registry is plain
/// state guarded by its owner.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/plan.h"
#include "query/result.h"

namespace dpsync::edb {

/// Row source a fold pulls committed rows from: invokes the visitor for
/// every mirror row of shard `shard` with per-shard index in
/// [begin, end), in append order. Supplied by the store, which knows the
/// chunk layout.
using ViewRowVisitor = std::function<void(const query::Row&)>;
using ViewRowSource = std::function<void(
    size_t shard, int64_t begin, int64_t end, const ViewRowVisitor&)>;

/// Folded aggregate state for one view-eligible plan.
class MaterializedView {
 public:
  explicit MaterializedView(std::shared_ptr<const query::QueryPlan> plan);

  const query::QueryPlan& plan() const { return *plan_; }
  bool valid() const { return valid_; }
  /// The CommitEpoch the state is current through (meaningful only while
  /// valid()).
  uint64_t epoch() const { return epoch_; }
  /// Marks the state unusable (Reopen). The next FoldTo rebuilds from
  /// row zero.
  void Invalidate() { valid_ = false; }

  /// Brings the state current through `epoch`: folds rows
  /// [folded_s, committed[s]) of every shard via `source` (the whole
  /// prefix when invalid) through the scan kernel's per-row step
  /// (query::ScanRowStep). Returns the number of rows folded.
  int64_t FoldTo(const query::Schema& schema,
                 const std::vector<int64_t>& committed, uint64_t epoch,
                 const ViewRowSource& source);

  /// O(1) answer — the same QueryResult a snapshot scan of the epoch-E
  /// committed prefix produces, through the same ScanPartial::Finalize —
  /// iff the state is valid, current through exactly `epoch` and
  /// order-free (see the file comment). std::nullopt otherwise (caller
  /// falls back to the scan path).
  std::optional<query::QueryResult> Answer(uint64_t epoch) const;

 private:
  void Reset();

  std::shared_ptr<const query::QueryPlan> plan_;
  /// The scan kernel's row step over plan_->rewritten.
  query::ScanRowStep step_;

  bool valid_ = false;
  uint64_t epoch_ = 0;
  std::vector<int64_t> folded_;  ///< per-shard rows already folded
  /// The folded aggregate: `total` ungrouped, `groups` grouped.
  query::ScanPartial state_;
  /// SUM/AVG only: the absolute sum of every value folded so far, and
  /// whether all of them were integers with that sum below 2^53 — the
  /// condition under which every partial sum is exact, so the fold order
  /// cannot move a bit.
  double abs_sum_ = 0.0;
  bool order_free_ = true;
};

/// All views registered on one table, keyed by plan fingerprint (the
/// plan-cache key; collisions are disarmed by an exact canonical-text
/// comparison, mirroring PlanCache).
class ViewRegistry {
 public:
  /// Counter bumped once per row-set fold of one view (a flush folding a
  /// delta into 3 views counts 3). Wired to ServerStats::view_folds.
  void set_fold_counter(std::atomic<int64_t>* counter) {
    fold_counter_ = counter;
  }

  /// Registers `plan` (idempotent per fingerprint) and warm-folds the
  /// new view current through `epoch` so a dashboard's very next Execute
  /// can answer from it. Existing registrations are left untouched.
  void Register(std::shared_ptr<const query::QueryPlan> plan,
                const query::Schema& schema,
                const std::vector<int64_t>& committed, uint64_t epoch,
                const ViewRowSource& source);

  /// Folds every registered view current through `epoch` — O(delta) per
  /// valid view, a full rebuild for invalidated ones. Called at Flush
  /// commit time right after the epoch advances.
  void FoldAll(const query::Schema& schema,
               const std::vector<int64_t>& committed, uint64_t epoch,
               const ViewRowSource& source);

  /// Invalidates every view (Reopen): each rebuilds lazily at its next
  /// fold. Until then no view answers.
  void InvalidateAll();

  /// O(1) answer from the view for `fingerprint` iff it exists, its plan
  /// text matches `canonical_text`, and its state is current through
  /// `epoch`.
  std::optional<query::QueryResult> Answer(uint64_t fingerprint,
                                           const std::string& canonical_text,
                                           uint64_t epoch) const;

  size_t size() const { return views_.size(); }

 private:
  std::map<uint64_t, MaterializedView> views_;
  std::atomic<int64_t>* fold_counter_ = nullptr;
};

}  // namespace dpsync::edb
