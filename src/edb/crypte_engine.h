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
/// so CryptEpsServer is an ObliDbServer over linear tables whose
/// ExecutePlan releases the exact answer.
#pragma once

#include <string>

#include "edb/crypte_budget.h"
#include "edb/oblidb_engine.h"

namespace dpsync::edb {

/// Engine options.
struct CryptEpsConfig {
  uint64_t master_seed = 2;
  /// Query API v2 execution limits (max in-flight, overflow queue).
  AdmissionConfig admission;
  /// Privacy budget spent on each query release (the paper's evaluation
  /// sets this to 3). Must be finite and > 0: otherwise every query is
  /// refused with InvalidArgument.
  double query_epsilon = 3.0;
  /// Total analyst budget; once consumed, further queries are refused with
  /// PermissionDenied. A limit <= 0 disables it (the paper's experiments
  /// do not enforce one); a NaN limit refuses every query with
  /// InvalidArgument.
  double total_budget_limit = 0.0;
  /// Physical storage for every table (backend kind, shard count, dir).
  StorageConfig storage;
};

/// The Crypt-eps server: ObliDB's linear tables under `config`'s seed,
/// admission limits and storage, priced by CryptEpsCostModel(), with every
/// answer released with Laplace noise from `config`'s budget. Each query
/// reserves its epsilon from the CryptEpsBudget before any work, runs
/// ObliDbServer::ExecutePlan, then releases the exact answer with Laplace
/// noise; a query that fails drops its reservation, which gives the
/// epsilon back. The release never depends on which path computed the
/// exact answer (a view or a scan), and admission gates it like any
/// engine. Joins are rejected at Prepare time via planner_options().
class CryptEpsServer : public ObliDbServer {
 public:
  explicit CryptEpsServer(const CryptEpsConfig& config = {});
  ~CryptEpsServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "CryptEpsilon"; }

  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  query::PlannerOptions planner_options() const override;

  /// Cumulative query budget consumed so far (sequential composition over
  /// the analyst's query stream): answered queries x query_epsilon.
  double consumed_query_budget() const { return budget_.consumed(); }

 private:
  CryptEpsBudget budget_;
};

}  // namespace dpsync::edb
