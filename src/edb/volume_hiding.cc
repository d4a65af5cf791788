#include "edb/volume_hiding.h"

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

StatusOr<QueryResponse> StealthDbServer::ExecutePlan(
    const query::QueryPlan& plan) {
  // The L-1 protocol ships the matching records back, so the server sees
  // how many there are: the real records (dummies never pass the
  // rewritten WHERE) the execution selected.
  int64_t volume = 0;
  auto resp = Evaluate(plan, &volume);
  if (!resp.ok()) return resp;
  resp->stats.revealed_volume = volume;
  return resp;
}

LeakageProfile StealthDbServer::leakage() const {
  LeakageProfile p = ObliDbServer::leakage();
  p.query_class = LeakageClass::kL1;
  return p;
}

VolumePaddedServer::~VolumePaddedServer() {
  // In-flight async queries call back into our ExecutePlan; drain them
  // while this object still pads.
  DrainSessions();
}

StatusOr<QueryResponse> VolumePaddedServer::ExecutePlan(
    const query::QueryPlan& plan) {
  auto resp = StealthDbServer::ExecutePlan(plan);
  if (!resp.ok()) return resp;
  resp->stats.revealed_volume = NextPowerOfTwo(resp->stats.revealed_volume);
  return resp;
}

LeakageProfile VolumePaddedServer::leakage() const {
  // Padding collapses the volume side channel; the composite behaves as a
  // volume-hiding scheme for DP-Sync's compatibility purposes.
  LeakageProfile p = StealthDbServer::leakage();
  p.query_class = LeakageClass::kL0;
  return p;
}

}  // namespace dpsync::edb
