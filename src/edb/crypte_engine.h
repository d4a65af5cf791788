/// \file crypte_engine.h
/// Crypt-epsilon-style L-DP engine (Roy Chowdhury et al., SIGMOD'20): a
/// crypto-assisted differential-privacy database. Records are stored as
/// atomic AEAD ciphertexts; aggregate queries are answered with Laplace
/// noise drawn from a per-query privacy budget, so the only query leakage
/// is a differentially private volume (L-DP, directly DP-Sync compatible).
///
/// The real Crypt-eps splits work between two non-colluding servers using
/// garbled circuits / LHE; here a single process plays both servers and
/// the analyst's decryption role, with the homomorphic cost reproduced by
/// the calibrated cost model (see cost_model.h). Joins are unsupported,
/// matching the paper ("Crypt-eps does not support join operators").
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "crypto/key_manager.h"
#include "edb/cost_model.h"
#include "edb/encrypted_database.h"
#include "edb/encrypted_table.h"

namespace dpsync::edb {

/// Engine options.
struct CryptEpsConfig {
  uint64_t master_seed = 2;
  /// Query API v2 execution limits (max in-flight, overflow queue).
  AdmissionConfig admission;
  /// Privacy budget spent on each query release (the paper's evaluation
  /// sets this to 3).
  double query_epsilon = 3.0;
  /// Total analyst budget; once consumed, further queries are refused with
  /// PermissionDenied. 0 disables the limit (the paper's experiments do
  /// not enforce one).
  double total_budget_limit = 0.0;
  /// Serve scans from an epoch snapshot of the committed prefix (brief
  /// table lock for catch-up + capture, lock-free aggregation) instead of
  /// holding the table lock across the whole scan. Every Crypt-eps query
  /// is a read-only linear scan, so this overlaps all same-table queries.
  /// With auto-flushing storage (flush_every_update, the default) the
  /// committed prefix IS the full table, so answers, noise draws and
  /// metrics are bit-identical either way (the budget ledger and Laplace
  /// stream keep their own serialization); with manual commit points
  /// (flush_every_update=false) snapshot queries see — and are charged
  /// for — only the flushed prefix, where the locked path would scan the
  /// uncommitted tail too. See docs/CONCURRENCY.md.
  bool snapshot_scans = true;
  /// Maintain incremental materialized aggregate views for view-eligible
  /// prepared plans (query::PlanIsViewEligible): Prepare registers the
  /// view, every Flush commit folds the newly committed delta, and a
  /// current view substitutes for the exact-aggregation scan in O(1). The
  /// Laplace release is untouched — budget reservation and noise draws
  /// happen after (and independently of) how the exact answer was
  /// computed, so the noise stream and every reported metric are
  /// bit-identical to the scan path. Views hold committed-prefix state,
  /// so they are additionally gated on snapshot_scans (the locked path's
  /// uncommitted-tail visibility cannot be represented). See
  /// src/edb/view.h.
  bool materialized_views = true;
  /// Physical storage for every table (backend kind, shard count, dir).
  StorageConfig storage;
};

/// The Crypt-eps server.
class CryptEpsServer : public EdbServer {
 public:
  explicit CryptEpsServer(const CryptEpsConfig& config = {});
  ~CryptEpsServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "CryptEpsilon"; }
  int64_t total_outsourced_bytes() const override;
  int64_t total_outsourced_records() const override;

  // Engine SPI (see encrypted_database.h). Joins are rejected at Prepare
  // time via planner_options(); execution serializes per table, and the
  // budget ledger + noise stream serialize on their own mutex (budget is
  // reserved atomically before the scan, so concurrent queries can never
  // jointly overdraw the analyst budget).
  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override;
  query::PlannerOptions planner_options() const override;

  /// Cumulative query budget consumed so far (sequential composition over
  /// the analyst's query stream).
  double consumed_query_budget() const;

  const CostModel& cost_model() const { return cost_; }

 protected:
  StatusOr<EdbTable*> CreateTableImpl(const std::string& name,
                                      const query::Schema& schema) override;
  /// Registers a materialized view for every view-eligible plan Prepare
  /// hands out (best-effort; idempotent per fingerprint). No-op unless
  /// both materialized_views and snapshot_scans are on.
  void OnPlanReady(
      const std::shared_ptr<const query::QueryPlan>& plan) override;

 private:
  EncryptedTableStore* FindTable(const std::string& name) const;

  CryptEpsConfig config_;
  crypto::KeyManager keys_;
  CostModel cost_;
  /// Guards consumed_budget_ and noise_rng_ (the Laplace stream must be
  /// drawn under one lock so sequential use stays deterministic).
  mutable std::mutex budget_mu_;
  Rng noise_rng_;
  double consumed_budget_ = 0.0;
  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<EncryptedTableStore>> tables_;
};

}  // namespace dpsync::edb
