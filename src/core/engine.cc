#include "core/engine.h"

#include <string>
#include <utility>

namespace dpsync {

namespace {

Status CheckFetchCount(int64_t fetch_count) {
  if (fetch_count <= kMaxFetchPerUpdate) return Status::Ok();
  return Status::ResourceExhausted(
      "sync fetch of " + std::to_string(fetch_count) +
      " records exceeds the per-update cap of " +
      std::to_string(kMaxFetchPerUpdate));
}

}  // namespace

DpSyncEngine::DpSyncEngine(std::unique_ptr<SyncStrategy> strategy,
                           SogdbBackend* backend, DummyFactory dummy_factory,
                           uint64_t seed)
    : strategy_(std::move(strategy)),
      backend_(backend),
      cache_(std::move(dummy_factory)),
      rng_(seed) {}

Status DpSyncEngine::Setup(std::vector<Record> initial_db) {
  if (setup_done_) {
    return Status::FailedPrecondition("Setup already executed");
  }
  const auto initial_size = static_cast<int64_t>(initial_db.size());
  const int64_t n0 = strategy_->InitialFetch(initial_size, &rng_);
  DPSYNC_RETURN_IF_ERROR(CheckFetchCount(n0));
  counters_.initial_size = initial_size;
  for (auto& r : initial_db) cache_.Write(std::move(r));
  std::vector<Record> gamma0 = cache_.Read(n0);
  for (const auto& r : gamma0) {
    if (r.is_dummy) {
      ++counters_.dummy_synced;
    } else {
      ++counters_.real_synced;
    }
  }
  DPSYNC_RETURN_IF_ERROR(backend_->Setup(gamma0));
  pattern_.Add(/*t=*/0, static_cast<int64_t>(gamma0.size()));
  setup_done_ = true;
  return Status::Ok();
}

Status DpSyncEngine::Execute(const SyncDecision& decision) {
  DPSYNC_RETURN_IF_ERROR(CheckFetchCount(decision.fetch_count));
  std::vector<Record> gamma = cache_.Read(decision.fetch_count);
  if (gamma.empty()) return Status::Ok();
  for (const auto& r : gamma) {
    if (r.is_dummy) {
      ++counters_.dummy_synced;
    } else {
      ++counters_.real_synced;
    }
  }
  DPSYNC_RETURN_IF_ERROR(backend_->Update(gamma));
  ++counters_.updates_posted;
  pattern_.Add(t_, static_cast<int64_t>(gamma.size()), decision.is_flush);
  return Status::Ok();
}

Status DpSyncEngine::Tick(std::optional<Record> arrival) {
  std::vector<Record> batch;
  if (arrival) batch.push_back(std::move(*arrival));
  return TickBatch(std::move(batch));
}

Status DpSyncEngine::TickBatch(std::vector<Record> arrivals) {
  if (!setup_done_) {
    return Status::FailedPrecondition("Tick called before Setup");
  }
  ++t_;
  int64_t num_arrived = static_cast<int64_t>(arrivals.size());
  for (auto& r : arrivals) {
    r.arrival_time = t_;
    ++counters_.received_total;
    cache_.Write(std::move(r));
  }
  for (const auto& decision : strategy_->OnTick(t_, num_arrived, &rng_)) {
    DPSYNC_RETURN_IF_ERROR(Execute(decision));
  }
  return Status::Ok();
}

Status DpSyncEngine::TickAll(
    std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work) {
  Status first_failure;
  for (auto& [engine, arrivals] : work) {
    Status st = engine->TickBatch(std::move(arrivals));
    if (first_failure.ok()) first_failure = std::move(st);
  }
  return first_failure;
}

}  // namespace dpsync
