#include "edb/volume_hiding.h"

#include <cmath>

namespace dpsync::edb {

int64_t NextPowerOfTwo(int64_t v) {
  if (v <= 1) return 1;
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

namespace {
ObliDbConfig StealthConfig(uint64_t seed, const AdmissionConfig& admission) {
  ObliDbConfig cfg;
  cfg.master_seed = seed;
  cfg.admission = admission;
  return cfg;
}
}  // namespace

StealthDbServer::StealthDbServer(uint64_t seed,
                                 const AdmissionConfig& admission)
    : ObliDbServer(StealthConfig(seed, admission)) {}

StealthDbServer::~StealthDbServer() {
  // In-flight async queries call back into our ExecutePlan; drain them
  // while this object is still a StealthDbServer.
  DrainSessions();
}

query::PlannerOptions StealthDbServer::planner_options() const {
  // ObliDB's traits drive planning; only the error-message name is ours.
  auto options = ObliDbServer::planner_options();
  options.engine_name = name();
  return options;
}

StatusOr<std::shared_ptr<const query::QueryPlan>> StealthDbServer::CountPlan(
    const query::QueryPlan& plan) const {
  query::SelectQuery counted = plan.normalized;
  for (auto& item : counted.items) {
    if (item.agg != query::AggFunc::kNone) {
      item = {query::AggFunc::kCount, "", item.alias};
    }
  }
  return query::PlanSelect(
      counted,
      [this](const std::string& table) { return FindSchema(table); },
      planner_options());
}

void StealthDbServer::OnPlanReady(
    const std::shared_ptr<const query::QueryPlan>& plan) {
  ObliDbServer::OnPlanReady(plan);
  auto count_plan = CountPlan(*plan);
  if (count_plan.ok()) ObliDbServer::OnPlanReady(count_plan.value());
}

StatusOr<QueryResponse> StealthDbServer::ExecutePlan(
    const query::QueryPlan& plan) {
  auto resp = ObliDbServer::ExecutePlan(plan);
  if (!resp.ok()) return resp;
  // The L-1 protocol ships the matching records back, so the server sees
  // how many there are: the real records (dummies never match the
  // rewritten query) the same query counts with COUNT(*).
  auto count_plan = CountPlan(plan);
  if (!count_plan.ok()) return count_plan.status();
  auto count = ObliDbServer::ExecutePlan(*count_plan.value());
  if (!count.ok()) return count.status();
  const query::QueryResult& result = count->result;
  double volume = result.scalar;
  if (result.grouped) {
    volume = 0.0;
    for (const auto& [key, c] : result.groups) volume += c;
  }
  resp->stats.revealed_volume = std::llround(volume);
  return resp;
}

LeakageProfile StealthDbServer::leakage() const {
  LeakageProfile p;
  p.query_class = LeakageClass::kL1;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = "StealthDB";
  return p;
}

StatusOr<QueryResponse> VolumePaddedServer::ExecutePlan(
    const query::QueryPlan& plan) {
  auto resp = inner_->ExecutePlan(plan);
  if (!resp.ok()) return resp;
  if (resp->stats.revealed_volume >= 0) {
    resp->stats.revealed_volume = NextPowerOfTwo(resp->stats.revealed_volume);
  }
  return resp;
}

LeakageProfile VolumePaddedServer::leakage() const {
  LeakageProfile p = inner_->leakage();
  if (p.query_class == LeakageClass::kL1) {
    // Padding collapses the volume side channel; the composite behaves as
    // a volume-hiding scheme for DP-Sync's compatibility purposes.
    p.query_class = LeakageClass::kL0;
    p.scheme_name += "+pad";
  }
  return p;
}

}  // namespace dpsync::edb
