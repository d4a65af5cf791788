#include "edb/view.h"

#include <cmath>

namespace dpsync::edb {

namespace {
/// 2^53: below it every integer is an exactly representable double.
constexpr double kExactIntegerLimit = 9007199254740992.0;
}  // namespace

MaterializedView::MaterializedView(
    std::shared_ptr<const query::QueryPlan> plan)
    : plan_(std::move(plan)),
      step_(plan_->rewritten),
      state_{query::AggAccumulator(plan_->aggregate.agg), {}} {}

int64_t MaterializedView::rows_folded() const {
  int64_t total = 0;
  for (int64_t f : folded_) total += f;
  return total;
}

void MaterializedView::Reset() {
  folded_.clear();
  state_ = query::SpanPartial{query::AggAccumulator(plan_->aggregate.agg), {}};
  abs_sum_ = 0.0;
  order_free_ = true;
}

int64_t MaterializedView::FoldTo(const query::Schema& schema,
                                 const std::vector<int64_t>& committed,
                                 uint64_t epoch,
                                 const ViewRowSource& source) {
  if (!valid_) Reset();
  folded_.resize(committed.size(), 0);
  const bool sums = plan_->aggregate.agg == query::AggFunc::kSum ||
                    plan_->aggregate.agg == query::AggFunc::kAvg;
  int64_t rows = 0;
  for (size_t s = 0; s < committed.size(); ++s) {
    if (folded_[s] >= committed[s]) continue;
    // The kernel reduces the whole prefix over its span-aligned chunk
    // tree; a view adds the same rows one at a time as a sequence of
    // shard-major deltas. The two orders agree bit for bit while every
    // addition is exact, which order_free_ tracks.
    source(s, folded_[s], committed[s], [&](const query::Row& row) {
      const query::Value v = step_.Fold(schema, row, &state_);
      if (!sums || !order_free_ || v.is_null()) return;
      const double d = std::fabs(v.AsDouble());
      abs_sum_ += d;
      order_free_ = d == std::floor(d) && abs_sum_ < kExactIntegerLimit;
    });
    rows += committed[s] - folded_[s];
    folded_[s] = committed[s];
  }
  epoch_ = epoch;
  valid_ = true;
  return rows;
}

std::optional<query::QueryResult> MaterializedView::Answer(
    uint64_t epoch) const {
  if (!valid_ || epoch_ != epoch || !order_free_) return std::nullopt;
  if (!plan_->grouped) {
    return query::QueryResult::Scalar(state_.total.Result());
  }
  query::QueryResult result;
  result.grouped = true;
  for (const auto& [key, acc] : state_.groups) {
    result.groups[key] = acc.Result();
  }
  return result;
}

void ViewRegistry::Register(std::shared_ptr<const query::QueryPlan> plan,
                            const query::Schema& schema,
                            const std::vector<int64_t>& committed,
                            uint64_t epoch, const ViewRowSource& source) {
  auto [it, inserted] = views_.try_emplace(plan->fingerprint, plan);
  if (!inserted) return;
  it->second.FoldTo(schema, committed, epoch, source);
  if (fold_counter_ != nullptr) {
    fold_counter_->fetch_add(1, std::memory_order_relaxed);
  }
}

void ViewRegistry::FoldAll(const query::Schema& schema,
                           const std::vector<int64_t>& committed,
                           uint64_t epoch, const ViewRowSource& source) {
  for (auto& [fp, view] : views_) {
    (void)fp;
    view.FoldTo(schema, committed, epoch, source);
    if (fold_counter_ != nullptr) {
      fold_counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ViewRegistry::InvalidateAll() {
  for (auto& [fp, view] : views_) {
    (void)fp;
    view.Invalidate();
  }
}

std::optional<query::QueryResult> ViewRegistry::Answer(
    uint64_t fingerprint, const std::string& canonical_text,
    uint64_t epoch) const {
  auto it = views_.find(fingerprint);
  if (it == views_.end()) return std::nullopt;
  // Fingerprint collisions are disarmed the same way the plan cache does
  // it: an exact canonical-text comparison.
  if (it->second.plan().canonical_text != canonical_text) {
    return std::nullopt;
  }
  return it->second.Answer(epoch);
}

}  // namespace dpsync::edb
