/// \file sweep_distributed.cpp
/// Distributed scatter-gather sweep: deployment {local, 1-server,
/// 4-server, 4-server replicated} x query {SUM, filtered SUM,
/// group-count} x table size n {1k, 16k, 64k}, all on the same 4-shard
/// ObliDB topology. Every distributed cell is HARD-CHECKED in-binary
/// against the local engine: the answer (bit pattern, including grouped
/// maps), records_scanned and the virtual QET must be identical —
/// servers ship one aggregate cell per storage shard and the coordinator
/// folds the rank-ordered cells in global shard order, replaying the
/// single-process scan's span-aligned merge tree, so any divergence is a
/// bug, not noise. The fares here are non-dyadic doubles, so SUM/AVG
/// genuinely exercise FP merge order.
///
/// The dist-x4-replicated deployment additionally kills one leader
/// MID-SWEEP (at a fixed rep of the first query) and requires the
/// coordinator to promote that rank's follower and keep every later
/// answer bit-identical — the post-cutover identity is the same hard
/// check, and the failover is visible in the `failovers` counter.
///
/// Output: "sweep_distributed,<deployment>,<query>,n<records>,..." CSV
/// lines, a summary table, and BENCH_sweep_distributed.json entries
/// (wired into the CI bench-artifacts job). records_scanned, rpc_calls,
/// bytes_shipped, failovers, replica_lag_batches and bytes_replicated
/// are deterministic and gated by tools/bench_diff.py; wall_seconds /
/// qps / rpc_us_per_call / failover_wall_seconds are timing and
/// warn-only.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "dist/coordinator.h"
#include "edb/oblidb_engine.h"
#include "query/parser.h"
#include "workload/trip_record.h"

using namespace dpsync;
using namespace dpsync::bench;

namespace {

constexpr int kGlobalShards = 4;

void Die(const std::string& what, const Status& status) {
  std::cerr << "sweep_distributed: " << what << ": " << status.ToString()
            << std::endl;
  std::exit(1);
}

void DieIf(bool divergence, const std::string& what) {
  if (!divergence) return;
  std::cerr << "sweep_distributed: distributed answer diverged from the "
               "local engine: "
            << what << std::endl;
  std::exit(1);
}

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<Record> MakeRecords(int64_t n) {
  Rng rng(4242);
  std::vector<Record> records;
  records.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    workload::TripRecord trip;
    trip.pick_time = i;
    trip.pickup_id = rng.UniformInt(1, 265);
    trip.dropoff_id = rng.UniformInt(1, 265);
    trip.trip_distance = 1.0 + rng.UniformDouble() * 5;
    trip.fare = 2.5 + trip.trip_distance * 2.5;
    records.push_back(trip.ToRecord());
  }
  return records;
}

struct QueryCase {
  const char* label;
  const char* sql;
};

constexpr QueryCase kQueries[] = {
    {"sum", "SELECT SUM(fare) FROM YellowCab"},
    {"filtered-sum",
     "SELECT SUM(fare) FROM YellowCab WHERE pickupID BETWEEN 50 AND 150"},
    {"group-count",
     "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID"},
};

/// One deployment: the local 4-shard engine or a coordinator splitting
/// the same 4 shards over 1 or 4 servers, optionally with one warm
/// follower per rank and a mid-sweep leader kill.
struct Deployment {
  const char* label;
  int num_servers;  ///< 0 = single-process engine
  int replicas = 0;
  bool kill_mid_sweep = false;
};

constexpr Deployment kDeployments[] = {
    {"local", 0},
    {"dist-x1", 1},
    {"dist-x4", 4},
    {"dist-x4-replicated", 4, 1, true},
};

struct Server {
  std::unique_ptr<edb::EdbServer> server;
  dist::DistributedEdbServer* dist = nullptr;  ///< null for local
};

Server MakeServer(const Deployment& d, int64_t n) {
  Server out;
  if (d.num_servers == 0) {
    edb::ObliDbConfig cfg;
    cfg.storage.num_shards = kGlobalShards;
    out.server = std::make_unique<edb::ObliDbServer>(cfg);
  } else {
    dist::DistributedConfig cfg;
    cfg.engine = dist::DistEngineKind::kObliDb;
    cfg.num_servers = d.num_servers;
    cfg.replication_factor = d.replicas;
    cfg.oblidb.storage.num_shards = kGlobalShards;
    auto server = std::make_unique<dist::DistributedEdbServer>(cfg);
    if (!server->init_status().ok()) Die("init", server->init_status());
    out.dist = server.get();
    out.server = std::move(server);
  }
  auto table = out.server->CreateTable("YellowCab", workload::TripSchema());
  if (!table.ok()) Die("CreateTable", table.status());
  if (auto s = table.value()->Setup(MakeRecords(n)); !s.ok()) Die("Setup", s);
  return out;
}

void CheckIdentical(const edb::QueryResponse& got,
                    const edb::QueryResponse& want) {
  DieIf(got.result.grouped != want.result.grouped, "grouped flag");
  DieIf(BitsOf(got.result.scalar) != BitsOf(want.result.scalar), "scalar");
  DieIf(got.result.groups.size() != want.result.groups.size(), "group count");
  auto it = want.result.groups.begin();
  for (const auto& [key, value] : got.result.groups) {
    DieIf(!(key == it->first), "group key");
    DieIf(BitsOf(value) != BitsOf(it->second), "group value");
    ++it;
  }
  DieIf(got.stats.records_scanned != want.stats.records_scanned,
        "records_scanned");
  DieIf(BitsOf(got.stats.virtual_seconds) != BitsOf(want.stats.virtual_seconds),
        "virtual_seconds");
}

}  // namespace

int main() {
  Banner("Distributed sweep: scatter-gather vs single-process, same shards",
         "plan shipping over 4 storage shards; answers must be identical");
  const bool fast = FastMode();
  const std::vector<int64_t> kSizes =
      fast ? std::vector<int64_t>{1000, 4000, 16000}
           : std::vector<int64_t>{1000, 16000, 64000};
  const int kReps = fast ? 8 : 32;

  TablePrinter table({"deployment", "query", "records", "reps", "wall (s)",
                      "qps", "rpc calls", "KiB shipped", "us/rpc"});

  for (int64_t n : kSizes) {
    // The local reference answers, computed once per table size; every
    // distributed cell must reproduce them bit for bit.
    std::vector<edb::QueryResponse> reference;
    for (const Deployment& d : kDeployments) {
      Server s = MakeServer(d, n);
      auto session = s.server->CreateSession();
      for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
        auto parsed = query::ParseSelect(kQueries[qi].sql);
        if (!parsed.ok()) Die("parse", parsed.status());
        auto prepared = session->Prepare(parsed.value());
        if (!prepared.ok()) Die("Prepare", prepared.status());

        const int64_t rpc_before = s.dist ? s.dist->rpc_calls() : 0;
        const int64_t bytes_before = s.dist ? s.dist->bytes_shipped() : 0;
        auto start = std::chrono::steady_clock::now();
        edb::QueryResponse last;
        double virtual_seconds = 0;
        double failover_wall = 0;
        for (int rep = 0; rep < kReps; ++rep) {
          // The mid-sweep kill cell: halfway through the FIRST query's
          // reps, rank 1's leader dies. The very next Execute must cut
          // over to the follower; its wall clock (including the probe +
          // promote round trips) is the failover latency, and every rep
          // from here on exercises the post-cutover path. The rep index
          // is fixed, so the counters below stay deterministic.
          if (d.kill_mid_sweep && qi == 0 && rep == kReps / 2) {
            if (auto k = s.dist->KillServer(1); !k.ok()) Die("KillServer", k);
          }
          const bool timed_failover =
              d.kill_mid_sweep && qi == 0 && rep == kReps / 2;
          auto rep_start = std::chrono::steady_clock::now();
          auto resp = session->Execute(prepared.value());
          if (!resp.ok()) Die("Execute", resp.status());
          if (timed_failover) {
            failover_wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - rep_start)
                                .count();
            // Post-cutover bit-identity, hard-checked at the cutover rep
            // itself (the per-cell check below re-verifies the last rep).
            CheckIdentical(resp.value(), reference[qi]);
          }
          virtual_seconds += resp->stats.virtual_seconds;
          last = std::move(resp.value());
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        const int64_t rpc_calls =
            (s.dist ? s.dist->rpc_calls() : 0) - rpc_before;
        const int64_t bytes_shipped =
            (s.dist ? s.dist->bytes_shipped() : 0) - bytes_before;

        if (d.num_servers == 0) {
          reference.push_back(last);
        } else {
          CheckIdentical(last, reference[qi]);
        }

        double qps = wall > 0 ? kReps / wall : 0;
        double rpc_us_per_call =
            rpc_calls > 0 ? wall * 1e6 / static_cast<double>(rpc_calls) : 0;
        std::cout << "sweep_distributed," << d.label << ","
                  << kQueries[qi].label << ",n" << n << "," << kReps << ","
                  << wall << "," << qps << "," << rpc_calls << ","
                  << bytes_shipped << "\n";
        table.AddRow({d.label, kQueries[qi].label, std::to_string(n),
                      std::to_string(kReps), TablePrinter::Fmt(wall, 4),
                      TablePrinter::Fmt(qps, 1), std::to_string(rpc_calls),
                      TablePrinter::Fmt(bytes_shipped / 1024.0, 1),
                      TablePrinter::Fmt(rpc_us_per_call, 1)});
        if (failover_wall > 0) {
          // Timing-only (warn-only in bench_diff): the one Execute that
          // absorbed the probe + promote + retry round trips.
          std::cout << "# failover latency (kill -> first post-cutover "
                       "answer): "
                    << failover_wall << " s\n";
        }

        auto stats = s.server->stats();
        // Scatter accounting must close: one scatter per execution, one
        // partial per server per scatter (the reference check already
        // proved the merged VALUES; this proves the bookkeeping).
        const int64_t expect_scatters =
            d.num_servers == 0 ? 0 : stats.queries_executed;
        if (stats.remote_scatters != expect_scatters ||
            stats.remote_partials != expect_scatters * d.num_servers) {
          std::cerr << "sweep_distributed: scatter counters off ("
                    << stats.remote_scatters << "/" << stats.remote_partials
                    << " for " << d.label << ")" << std::endl;
          return 1;
        }
        // The kill cell must have produced exactly one cutover (and the
        // unkilled deployments none) — a second failover would mean the
        // promoted follower died too.
        if (stats.failovers != (d.kill_mid_sweep ? 1 : 0)) {
          std::cerr << "sweep_distributed: expected "
                    << (d.kill_mid_sweep ? 1 : 0) << " failover(s), saw "
                    << stats.failovers << " for " << d.label << std::endl;
          return 1;
        }

        std::ostringstream json;
        json.precision(17);
        json << "{\"engine\":\""
             << (d.num_servers == 0 ? std::string("ObliDB-local")
                                    : "Distributed+ObliDB-x" +
                                          std::to_string(d.num_servers))
             << "\",\"strategy\":\"" << kQueries[qi].label
             << "\",\"epsilon\":" << n << ",\"num_shards\":" << kGlobalShards
             << ",\"num_servers\":" << d.num_servers
             << ",\"records\":" << n << ",\"query_count\":" << kReps
             << ",\"records_scanned\":" << last.stats.records_scanned
             << ",\"virtual_seconds\":" << virtual_seconds
             << ",\"wall_seconds\":" << wall << ",\"qps\":" << qps
             << ",\"rpc_calls\":" << rpc_calls
             << ",\"bytes_shipped\":" << bytes_shipped
             << ",\"rpc_us_per_call\":" << rpc_us_per_call
             << ",\"failovers\":" << stats.failovers
             << ",\"replica_lag_batches\":"
             << (s.dist ? s.dist->replica_lag_batches() : 0)
             << ",\"bytes_replicated\":"
             << (s.dist ? s.dist->bytes_replicated() : 0)
             << ",\"failover_wall_seconds\":" << failover_wall
             << ",\"plan_cache\":{\"prepares\":" << stats.prepares
             << ",\"hits\":" << stats.plan_cache_hits
             << ",\"misses\":" << stats.plan_cache_misses
             << ",\"executed\":" << stats.queries_executed
             << ",\"remote_scatters\":" << stats.remote_scatters
             << ",\"remote_partials\":" << stats.remote_partials << "}}";
        RecordEntry(json.str());
      }
    }
  }

  std::cout << "\n";
  table.Print(std::cout);
  std::cout << "\nExpected shape: every dist cell's answer, records_scanned "
               "and virtual QET\nare bit-identical to the local cell (hard-"
               "checked above — this binary exits\nnonzero on any "
               "divergence). rpc_calls is reps x servers per cell, bytes\n"
               "shipped grows with the group-by reply size, and the virtual "
               "QET is\ninvariant in the deployment — plan shipping moves "
               "wall clock only.\nThe dist-x4-replicated cells survive a "
               "mid-sweep leader kill: exactly one\nfailover, and every "
               "post-cutover answer stays bit-identical.\n";
  return 0;
}
