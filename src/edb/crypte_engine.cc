#include "edb/crypte_engine.h"

namespace dpsync::edb {

namespace {

/// ObliDB's linear storage method under Crypt-eps's seed, admission
/// limits and storage.
ObliDbConfig LinearConfig(const CryptEpsConfig& config) {
  ObliDbConfig linear;
  linear.master_seed = config.master_seed;
  linear.admission = config.admission;
  linear.storage = config.storage;
  return linear;
}

}  // namespace

CryptEpsServer::CryptEpsServer(const CryptEpsConfig& config)
    : ObliDbServer(LinearConfig(config), CryptEpsCostModel()),
      budget_(config) {}

CryptEpsServer::~CryptEpsServer() {
  // In-flight async queries call back into our ExecutePlan, which spends
  // budget_; drain them before it is torn down.
  DrainSessions();
}

query::PlannerOptions CryptEpsServer::planner_options() const {
  query::PlannerOptions options;
  // Keep the legacy error text: "Crypt-eps does not support join
  // operators" (paper: Crypt-eps has no join operator).
  options.engine_name = "Crypt-eps";
  options.supports_join = false;
  return options;
}

LeakageProfile CryptEpsServer::leakage() const {
  LeakageProfile p;
  p.query_class = LeakageClass::kLDP;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = "CryptEpsilon";
  return p;
}

double CryptEpsServer::consumed_query_budget() const {
  return budget_.consumed();
}

StatusOr<QueryResponse> CryptEpsServer::ExecutePlan(
    const query::QueryPlan& plan) {
  // Reserve the query's epsilon before doing any work; an early return
  // drops the reservation, which gives the epsilon back.
  auto reservation = budget_.Reserve();
  if (!reservation.ok()) return reservation.status();
  // The two-server aggregation pipeline, played by one process: the exact
  // answer, then its release with Laplace noise from the reserved epsilon.
  auto resp = ObliDbServer::ExecutePlan(plan);
  if (!resp.ok()) return resp.status();
  budget_.Release(std::move(reservation.value()), &resp->result);
  return resp;
}

}  // namespace dpsync::edb
