/// \file plan_cache.h
/// Per-server cache of bound query plans, keyed on the normalized-AST
/// fingerprint (see query/plan.h). Hash collisions are disarmed by an
/// exact canonical-text check; stale entries (planned against an older
/// catalog epoch) are swept eagerly on every epoch bump (EvictStaleEpoch,
/// called by EdbServer::CreateTable) and defensively evicted on lookup,
/// and the cache is bounded: past
/// its capacity the least-recently-used plan is evicted in O(1) — every
/// entry sits on an intrusive recency list (most-recent at the front),
/// so an unbounded analyst query stream cannot grow server memory and
/// eviction cost is independent of the capacity. Thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "query/plan.h"

namespace dpsync::edb {

class PlanCache {
 public:
  /// Default capacity. Plans are small (two ASTs + strings) and real
  /// deployments repeat a modest query set, so a few hundred covers every
  /// workload we model.
  static constexpr size_t kMaxPlans = 512;

  /// \param max_plans distinct plans kept before LRU eviction kicks in
  ///        (clamped to at least 1; non-default values are for tests).
  explicit PlanCache(size_t max_plans = kMaxPlans)
      : max_plans_(max_plans > 0 ? max_plans : 1) {}

  /// Returns the cached plan for (fingerprint, canonical_text) if it was
  /// bound at `catalog_epoch`, else nullptr. Counts a hit or a miss;
  /// evicts entries bound at older epochs. A hit moves the entry to the
  /// front of the recency list.
  std::shared_ptr<const query::QueryPlan> Lookup(uint64_t fingerprint,
                                                 const std::string& text,
                                                 uint64_t catalog_epoch);

  void Insert(std::shared_ptr<const query::QueryPlan> plan);

  /// Eagerly evicts every entry bound at an epoch other than
  /// `catalog_epoch`. Called on each catalog-epoch bump: lookup-time
  /// eviction alone only reclaims a stale entry when its exact
  /// fingerprint is queried again, so plans for retired query shapes
  /// would pin their ASTs (and recency-list slots) until LRU pressure
  /// happened to reach them.
  void EvictStaleEpoch(uint64_t catalog_epoch);

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const { return max_plans_; }

  /// True iff the plan for `fingerprint` is currently cached (no hit/miss
  /// accounting, no recency update — tests and monitoring).
  bool Contains(uint64_t fingerprint) const;

 private:
  struct Entry {
    std::shared_ptr<const query::QueryPlan> plan;
    /// This entry's node on `lru_` — O(1) splice-to-front on use, O(1)
    /// unlink on eviction.
    std::list<uint64_t>::iterator lru_pos;
  };

  /// Unlinks `it` from both structures. Callers hold mu_.
  void Erase(std::map<uint64_t, Entry>::iterator it);

  const size_t max_plans_;
  mutable std::mutex mu_;
  std::map<uint64_t, Entry> plans_;
  /// Fingerprints in recency order: front = most recently used, back =
  /// eviction victim.
  std::list<uint64_t> lru_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace dpsync::edb
