/// \file engine.h
/// DpSyncEngine — the owner-side framework of Figure 1. It owns the local
/// cache and the synchronization strategy, consumes the logical update
/// stream one time unit at a time, and drives the encrypted database's
/// Setup/Update protocols. It also keeps the ground-truth bookkeeping the
/// evaluation metrics need (logical gap, dummy volume, update pattern).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/local_cache.h"
#include "core/record.h"
#include "core/sogdb.h"
#include "core/sync_strategy.h"
#include "core/update_pattern.h"

namespace dpsync {

/// Counters maintained by the engine (owner-side ground truth; the server
/// observes only the update pattern).
struct EngineCounters {
  int64_t received_total = 0;     ///< logical updates received (|D_t|-|D_0|)
  int64_t initial_size = 0;       ///< |D_0|
  int64_t real_synced = 0;        ///< real records outsourced so far
  int64_t dummy_synced = 0;       ///< dummy records outsourced so far
  int64_t updates_posted = 0;     ///< number of Pi_Update invocations
};

/// The most records one Pi_Setup or Pi_Update may fetch from the cache.
/// A DP strategy's noisy count has no upper bound: DP-Timer at
/// epsilon = 1e-12 draws Lap(10^12), and padding such a fetch with dummies
/// would exhaust memory. The engine refuses a larger fetch with
/// ResourceExhausted before it reads the cache. 2^24 is far above any
/// batch the paper's workloads post; it also bounds the initial database
/// SUR and OTO outsource whole in one Setup.
inline constexpr int64_t kMaxFetchPerUpdate = int64_t{1} << 24;

/// Owner-side synchronization engine.
class DpSyncEngine {
 public:
  /// \param strategy the Sync policy (takes ownership)
  /// \param backend the encrypted database's owner-facing protocols (not
  ///        owned; must outlive the engine)
  /// \param dummy_factory schema-valid dummy record generator
  /// \param seed seeds the engine's private randomness (DP noise)
  DpSyncEngine(std::unique_ptr<SyncStrategy> strategy, SogdbBackend* backend,
               DummyFactory dummy_factory, uint64_t seed);

  /// Runs Pi_Setup: caches `initial_db`, asks the strategy for |gamma_0|,
  /// reads it from the cache (padding with dummies) and ships it. A
  /// |gamma_0| above kMaxFetchPerUpdate fails with ResourceExhausted and
  /// leaves the cache, the counters, the pattern and the backend untouched.
  Status Setup(std::vector<Record> initial_db);

  /// Advances one time unit with an optional arriving record (u_t). Must be
  /// called after Setup; time starts at t=1 on the first call. A sync
  /// decision fetching more than kMaxFetchPerUpdate records fails with
  /// ResourceExhausted before it reads the cache or calls the backend.
  Status Tick(std::optional<Record> arrival);

  /// Multi-record generalization (§4.1): advances one time unit with any
  /// number of arriving records. The DP guarantee stays event-level — each
  /// individual record is protected with the configured epsilon.
  Status TickBatch(std::vector<Record> arrivals);

  /// Multi-table owner tick: advances every engine one time unit, in index
  /// order on the calling thread, through TickBatch. A tick's work is a
  /// strategy step and, at most, one small padded batch, too little to pay
  /// for waking a pool worker. Every engine ticks even after an earlier one
  /// fails, and the first failing engine in index order wins.
  static Status TickAll(
      std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work);

  /// Current time unit (number of Tick calls so far).
  int64_t now() const { return t_; }

  /// Logical gap LG(t): records received but not yet outsourced — exactly
  /// the current cache length (the FIFO cache holds precisely the
  /// un-synchronized suffix of the logical database).
  int64_t logical_gap() const { return cache_.len(); }

  /// CommitEpoch of the outsourced structure: advances when a posted
  /// update's records become query-visible (the flush commit point).
  /// Owner-side code can use it to confirm its own flushes are readable
  /// by snapshot scans (reads-your-own-flush; see docs/CONCURRENCY.md).
  uint64_t backend_commit_epoch() const { return backend_->commit_epoch(); }

  const UpdatePattern& update_pattern() const { return pattern_; }
  const EngineCounters& counters() const { return counters_; }
  const LocalCache& cache() const { return cache_; }
  const SyncStrategy& strategy() const { return *strategy_; }

  /// Exposes the engine RNG so callers sharing a seed can fork streams.
  Rng* rng() { return &rng_; }

 private:
  /// Executes one SyncDecision: reads from the cache and posts Pi_Update.
  Status Execute(const SyncDecision& decision);

  std::unique_ptr<SyncStrategy> strategy_;
  SogdbBackend* backend_;
  LocalCache cache_;
  Rng rng_;
  UpdatePattern pattern_;
  EngineCounters counters_;
  int64_t t_ = 0;
  bool setup_done_ = false;
};

}  // namespace dpsync
