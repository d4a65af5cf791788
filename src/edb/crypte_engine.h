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
  // time via planner_options(), and Crypt-eps has no ORAM mode, so every
  // plan is a read-only linear scan: a current materialized view answers
  // view-eligible plans, everything else aggregates lock-free over an
  // epoch snapshot of the committed prefix (under manual commit points,
  // queries see — and are charged for — only flushed rows). The budget
  // ledger + noise stream serialize on their own mutex (budget is
  // reserved atomically before the scan, so concurrent queries can never
  // jointly overdraw the analyst budget), and the Laplace release never
  // depends on which path computed the exact answer.
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
  /// hands out (best-effort; idempotent per fingerprint).
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
