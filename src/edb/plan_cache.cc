#include "edb/plan_cache.h"

namespace dpsync::edb {

void PlanCache::Erase(std::map<uint64_t, Entry>::iterator it) {
  lru_.erase(it->second.lru_pos);
  plans_.erase(it);
}

std::shared_ptr<const query::QueryPlan> PlanCache::Lookup(
    uint64_t fingerprint, const std::string& text, uint64_t catalog_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = plans_.find(fingerprint);
  if (it != plans_.end()) {
    if (it->second.plan->catalog_epoch != catalog_epoch) {
      Erase(it);  // stale binding: the catalog changed underneath it
    } else if (it->second.plan->canonical_text == text) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.plan;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void PlanCache::Insert(std::shared_ptr<const query::QueryPlan> plan) {
  const uint64_t fingerprint = plan->fingerprint;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = plans_.find(fingerprint);
  if (it != plans_.end()) {
    // Refresh in place (re-plan after a catalog change, or a colliding
    // fingerprint's latest text wins — exactly the pre-LRU semantics).
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (plans_.size() >= max_plans_) {
    // O(1) eviction: the recency list's tail IS the LRU victim.
    Erase(plans_.find(lru_.back()));
  }
  lru_.push_front(fingerprint);
  plans_.emplace(fingerprint, Entry{std::move(plan), lru_.begin()});
}

void PlanCache::EvictStaleEpoch(uint64_t catalog_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = plans_.begin(); it != plans_.end();) {
    auto next = std::next(it);
    if (it->second.plan->catalog_epoch != catalog_epoch) Erase(it);
    it = next;
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return plans_.size();
}

bool PlanCache::Contains(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lk(mu_);
  return plans_.count(fingerprint) > 0;
}

}  // namespace dpsync::edb
