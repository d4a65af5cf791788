#include "edb/crypte_engine.h"

#include <utility>

namespace dpsync::edb {

namespace {

/// ObliDB's linear storage method under `config`'s seed, admission limits
/// and storage: the tables a Crypt-eps server runs.
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

LeakageProfile CryptEpsServer::leakage() const {
  LeakageProfile p = ObliDbServer::leakage();
  p.query_class = LeakageClass::kLDP;
  return p;
}

StatusOr<QueryResponse> CryptEpsServer::ExecutePlan(
    const query::QueryPlan& plan) {
  auto reservation = budget_.Reserve();
  if (!reservation.ok()) return reservation.status();
  // The two-server aggregation pipeline, played by one process: the exact
  // answer, then its release with Laplace noise from the reserved epsilon.
  auto resp = ObliDbServer::ExecutePlan(plan);
  if (!resp.ok()) return resp.status();
  budget_.Release(std::move(reservation.value()), &resp->result);
  return resp;
}

query::PlannerOptions CryptEpsServer::planner_options() const {
  query::PlannerOptions options = ObliDbServer::planner_options();
  // Keep the legacy error text: "Crypt-eps does not support join
  // operators" (paper: Crypt-eps has no join operator).
  options.engine_name = "Crypt-eps";
  options.supports_join = false;
  return options;
}

}  // namespace dpsync::edb
