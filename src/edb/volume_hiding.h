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
/// StealthDbServer is ObliDB's engine with the volume revealed;
/// VolumePaddedServer is an EdbServer decorator built on the engine SPI:
/// it delegates planning (FindSchema/planner_options) and execution
/// (ExecutePlan) to the wrapped server and pads the revealed volume, so
/// the full v2 session surface (prepare/execute/submit) works through it
/// unchanged.
#pragma once

#include <memory>

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
  query::PlannerOptions planner_options() const override;

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

/// The §6 countermeasure: wraps any EdbServer and pads every revealed
/// response volume to the next power of two, collapsing the volume side
/// channel to log-many distinguishable values (data-independent given a
/// bounded table size). Upgrades the leakage class to L-0 for
/// compatibility-checking purposes.
class VolumePaddedServer : public EdbServer {
 public:
  /// Does not take ownership; `inner` must outlive the wrapper.
  /// `admission` gates queries through this wrapper (the inner server's
  /// gate never engages — ExecutePlan is called through the SPI), so
  /// configure the limits on the outermost server analysts talk to.
  explicit VolumePaddedServer(EdbServer* inner,
                              const AdmissionConfig& admission = {})
      : EdbServer(admission), inner_(inner) {}
  ~VolumePaddedServer() override { DrainSessions(); }

  LeakageProfile leakage() const override;
  std::string name() const override { return inner_->name() + "+pad"; }
  int64_t total_outsourced_bytes() const override {
    return inner_->total_outsourced_bytes();
  }
  int64_t total_outsourced_records() const override {
    return inner_->total_outsourced_records();
  }

  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override {
    return inner_->FindSchema(table);
  }
  query::PlannerOptions planner_options() const override {
    return inner_->planner_options();
  }

 protected:
  StatusOr<EdbTable*> CreateTableImpl(const std::string& name,
                                      const query::Schema& schema) override {
    return inner_->CreateTable(name, schema);
  }

 private:
  EdbServer* inner_;
};

}  // namespace dpsync::edb
