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
/// release, Crypt-eps answers exactly like ObliDB's linear storage method,
/// so CryptEpsServer is an ObliDbServer over linear tables: the catalog,
/// view answers and committed-prefix scans are ObliDB's. The
/// per-query budget and its noise stream are one type, CryptEpsBudget
/// (crypte_budget.h), which the distributed coordinator
/// (dist/coordinator.h) owns as well in Crypt-eps mode.
#pragma once

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

/// The Crypt-eps server.
class CryptEpsServer : public ObliDbServer {
 public:
  explicit CryptEpsServer(const CryptEpsConfig& config = {});
  ~CryptEpsServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "CryptEpsilon"; }

  // Engine SPI (see encrypted_database.h). Joins are rejected at Prepare
  // time via planner_options(), so every plan is a linear scan that
  // ObliDbServer::ExecutePlan answers exactly — from a current
  // materialized view or over the committed prefix (under manual commit
  // points, queries see, and are charged for, only flushed rows). The
  // CryptEpsBudget reserves the query's epsilon before that and releases
  // the answer with noise after it; the release never depends on which
  // path computed the exact answer.
  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  query::PlannerOptions planner_options() const override;

  /// Cumulative query budget consumed so far (sequential composition over
  /// the analyst's query stream): answered queries x query_epsilon.
  double consumed_query_budget() const;

 private:
  CryptEpsBudget budget_;
};

}  // namespace dpsync::edb
