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
///
/// Apart from its cost model, its missing join operator and the Laplace
/// release, Crypt-eps answers exactly like ObliDB's linear storage method.
/// So the release is one stage, LaplaceRelease, that derives from the
/// exact engine it releases: CryptEpsServer is that stage over an
/// ObliDbServer, and dist::DistributedCryptEpsServer (dist/coordinator.h)
/// the same stage over the scatter-gather coordinator.
#pragma once

#include <string>
#include <utility>

#include "edb/crypte_budget.h"
#include "edb/oblidb_engine.h"

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

/// ObliDB's linear storage method under `config`'s seed, admission limits
/// and storage: the tables every Crypt-eps server runs.
ObliDbConfig LinearConfig(const CryptEpsConfig& config);

/// Crypt-eps's release over `Exact`, an exact engine whose protected
/// `(config, CostModel)` constructor builds it under another cost model.
/// Each query reserves its epsilon from the CryptEpsBudget before any
/// work, runs `Exact::ExecutePlan`, then releases the exact answer with
/// Laplace noise; a query that fails drops its reservation, which gives
/// the epsilon back. The release never depends on which path computed the
/// exact answer (a view, a scan, a scatter-gather merge), and admission
/// gates it like any engine: the stage is the server analysts talk to.
/// Joins are rejected at Prepare time via planner_options().
template <typename Exact>
class LaplaceRelease : public Exact {
 public:
  /// `Exact` over the linear tables of `LinearConfig(config, topology...)`,
  /// priced by CryptEpsCostModel(), spending `config`'s budget. `topology`
  /// is the rest of Exact's configuration: none for an ObliDbServer, a
  /// dist::DistributedConfig (whose engine options give way to `config`'s)
  /// for the coordinator.
  template <typename... Topology>
  explicit LaplaceRelease(const CryptEpsConfig& config = {},
                          const Topology&... topology)
      : Exact(LinearConfig(config, topology...), CryptEpsCostModel()),
        budget_(config) {}

  ~LaplaceRelease() override {
    // In-flight async queries call back into our ExecutePlan, which
    // spends budget_; drain them before it is torn down.
    this->DrainSessions();
  }

  LeakageProfile leakage() const override {
    LeakageProfile p = Exact::leakage();
    p.query_class = LeakageClass::kLDP;
    return p;
  }
  std::string name() const override { return "CryptEpsilon"; }

  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override {
    auto reservation = budget_.Reserve();
    if (!reservation.ok()) return reservation.status();
    // The two-server aggregation pipeline, played by one process: the
    // exact answer, then its release with Laplace noise from the reserved
    // epsilon.
    auto resp = Exact::ExecutePlan(plan);
    if (!resp.ok()) return resp.status();
    budget_.Release(std::move(reservation.value()), &resp->result);
    return resp;
  }

  query::PlannerOptions planner_options() const override {
    query::PlannerOptions options = Exact::planner_options();
    // Keep the legacy error text: "Crypt-eps does not support join
    // operators" (paper: Crypt-eps has no join operator).
    options.engine_name = "Crypt-eps";
    options.supports_join = false;
    return options;
  }

  /// Cumulative query budget consumed so far (sequential composition over
  /// the analyst's query stream): answered queries x query_epsilon.
  double consumed_query_budget() const { return budget_.consumed(); }

 private:
  CryptEpsBudget budget_;
};

/// The Crypt-eps server: ObliDB's linear tables under the Laplace release.
using CryptEpsServer = LaplaceRelease<ObliDbServer>;

}  // namespace dpsync::edb
