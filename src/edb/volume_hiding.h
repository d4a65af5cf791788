/// \file volume_hiding.h
/// L-1 leakage and its countermeasure (§6). Schemes like StealthDB or
/// SisoSPIR hide the access pattern but their query protocol reveals the
/// exact response volume — the number of records matching each query.
/// Because dummy records never match rewritten queries, response volumes
/// count *real* records only, so a server correlating volumes across time
/// can recover exactly the update information DP-Sync spent its budget
/// hiding. Such schemes are therefore compatible only after a
/// volume-hiding countermeasure; we implement the naive-padding transform
/// the paper cites (round every revealed volume up to the next power of
/// two, cf. Kamara–Moataz pseudorandom transformations).
///
/// StealthDbServer is ObliDB's engine with the volume revealed, and the
/// only L-1 engine; VolumePaddedServer is StealthDB with the countermeasure,
/// a subclass that pads the volume StealthDB's ExecutePlan reveals, so
/// planning, views and counters are StealthDB's own.
#pragma once

#include <memory>
#include <string>

#include "edb/encrypted_database.h"
#include "edb/oblidb_engine.h"

namespace dpsync::edb {

/// Smallest power of two >= v (v <= 0 maps to 1).
int64_t NextPowerOfTwo(int64_t v);

/// A StealthDB-style L-1 engine: ObliDB's oblivious evaluation over linear
/// tables, with the response volume of every query — the number of real
/// records it matches, or of matching real pairs for a join — exposed in
/// QueryStats::revealed_volume, whatever its aggregate. The volume is the
/// same query with COUNT(*) as its aggregate, summed over groups and
/// re-planned under the fingerprint of its own text, so it never reads
/// the view of another aggregate. Prepare registers that count's view
/// next to the query's own, so a volume a view can answer costs no scan.
/// Otherwise the count takes its own capture: an owner commit landing
/// between the two captures makes the volume count the later prefix.
class StealthDbServer : public ObliDbServer {
 public:
  explicit StealthDbServer(uint64_t seed = 3,
                           const AdmissionConfig& admission = {});
  ~StealthDbServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "StealthDB"; }

  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;

 protected:
  /// Registers the views of both the plan and its CountPlan.
  void OnPlanReady(
      const std::shared_ptr<const query::QueryPlan>& plan) override;

 private:
  /// `plan`'s query with COUNT(*) as every aggregate: the plan whose
  /// answer, summed over groups, is the revealed volume.
  StatusOr<std::shared_ptr<const query::QueryPlan>> CountPlan(
      const query::QueryPlan& plan) const;
};

/// The §6 countermeasure: StealthDB with every revealed response volume
/// padded to the next power of two, collapsing the volume side channel to
/// log-many distinguishable values (data-independent given a bounded table
/// size). Upgrades the leakage class to L-0 for compatibility-checking
/// purposes.
class VolumePaddedServer : public StealthDbServer {
 public:
  using StealthDbServer::StealthDbServer;
  ~VolumePaddedServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override {
    return StealthDbServer::name() + "+pad";
  }

  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
};

}  // namespace dpsync::edb
