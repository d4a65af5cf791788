/// \file sweep_concurrency.cpp
/// Concurrency sweep over the Query API v2: queries/sec on one ObliDB
/// server for admission limits (in-flight) {1, 4, 8} x storage method
/// {linear (epoch-snapshot scans), indexed (ORAM; serialized per table
/// because every oblivious access rewrites tree state)}. Every query
/// targets the SAME table, so the linear cells show what the snapshot
/// layer buys: same-table scans that overlap instead of queueing on the
/// table mutex, as the indexed cells do. Every cell prepares a small
/// mixed query set once, fans `kQueries` executions out through
/// Submit/Wait, checks each answer against the sequential reference, and
/// verifies the admission controller never exceeded its in-flight limit.
///
/// Output: "sweep_concurrency,<method>,x<in_flight>,..." CSV lines, a
/// summary table with the x8-over-x1 qps speedup per method, and
/// BENCH_sweep_concurrency.json entries (wired into the CI
/// bench-artifacts job; `virtual_seconds` is deterministic and gated by
/// tools/bench_diff.py). On a multi-core host the snapshot cells should
/// show x8 >= 2x the qps of x1; single-core hosts cannot overlap
/// CPU-bound scans, so the speedup check only warns. DPSYNC_FAST=1
/// shrinks the workload 4x.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "edb/oblidb_engine.h"
#include "workload/trip_record.h"

using namespace dpsync;
using namespace dpsync::bench;

namespace {

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

/// MIN/MAX shapes only: materialized views would answer COUNT/SUM/AVG in
/// O(1) and leave nothing to contend, so the sweep keeps every execution
/// on the scan paths it measures (bench/sweep_views.cpp covers views).
std::vector<std::string> MixedQueries() {
  return {
      "SELECT MAX(fare) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100",
      "SELECT MIN(fare) FROM YellowCab WHERE pickupID BETWEEN 10 AND 40",
      "SELECT pickupID, MAX(fare) AS m FROM YellowCab GROUP BY pickupID",
      "SELECT MIN(fare) FROM YellowCab WHERE tripDistance >= 3",
  };
}

void Die(const std::string& what, const Status& status) {
  std::cerr << "sweep_concurrency: " << what << ": " << status.ToString()
            << std::endl;
  std::exit(1);
}

}  // namespace

struct Method {
  const char* name;        ///< CSV/JSON label
  bool use_oram_index;
};

int main() {
  Banner("Concurrency sweep: queries/sec vs admission limit x method",
         "Query API v2, same-table workload, on the §8 workload scale");
  const bool fast = FastMode();
  const int64_t kRecords = fast ? 4000 : 20000;
  const int kQueries = fast ? 64 : 256;

  const Method kMethods[] = {
      {"linear", false},
      {"indexed", true},
  };

  TablePrinter table({"method", "in-flight", "queries", "wall (s)", "qps",
                      "rows/s", "peak", "plans", "snapshots", "executions"});
  std::map<std::string, std::map<int, double>> qps_by_method;
  for (const Method& method : kMethods) {
    for (int in_flight : {1, 4, 8}) {
      edb::ObliDbConfig cfg;
      cfg.use_oram_index = method.use_oram_index;
      cfg.oram_capacity = static_cast<size_t>(kRecords) * 2;
      cfg.admission.max_in_flight = in_flight;
      cfg.admission.max_queue = 4096;  // never reject in this sweep
      edb::ObliDbServer server(cfg);
      auto t = server.CreateTable("YellowCab", workload::TripSchema());
      if (!t.ok()) Die("CreateTable", t.status());
      if (auto s = t.value()->Setup(MakeRecords(kRecords)); !s.ok()) {
        Die("Setup", s);
      }

      auto session = server.CreateSession();
      std::vector<edb::PreparedQuery> prepared;
      std::vector<double> reference;
      for (const auto& sql : MixedQueries()) {
        auto q = session->Prepare(sql);
        if (!q.ok()) Die("Prepare", q.status());
        // Sequential reference answer (ObliDB is deterministic).
        auto r = session->Execute(q.value());
        if (!r.ok()) Die("reference Execute", r.status());
        reference.push_back(r->result.grouped
                                ? static_cast<double>(r->result.groups.size())
                                : r->result.scalar);
        prepared.push_back(std::move(q.value()));
      }

      auto start = std::chrono::steady_clock::now();
      std::vector<edb::QueryTicket> tickets;
      tickets.reserve(static_cast<size_t>(kQueries));
      for (int i = 0; i < kQueries; ++i) {
        auto ticket = session->Submit(prepared[i % prepared.size()]);
        if (!ticket.ok()) Die("Submit", ticket.status());
        tickets.push_back(ticket.value());
      }
      double virtual_seconds = 0;
      for (size_t i = 0; i < tickets.size(); ++i) {
        auto r = session->Wait(tickets[i]);
        if (!r.ok()) Die("Wait", r.status());
        double got = r->result.grouped
                         ? static_cast<double>(r->result.groups.size())
                         : r->result.scalar;
        if (got != reference[i % reference.size()]) {
          std::cerr << "sweep_concurrency: answer diverged under concurrency"
                    << std::endl;
          return 1;
        }
        virtual_seconds += r->stats.virtual_seconds;
      }
      double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      auto stats = server.stats();
      if (stats.peak_in_flight > in_flight) {
        std::cerr << "sweep_concurrency: admission limit violated (peak "
                  << stats.peak_in_flight << " > " << in_flight << ")"
                  << std::endl;
        return 1;
      }

      // Snapshot accounting must match the method: every execution of a
      // linear plan counts, no indexed one does.
      const int64_t expect_snapshots =
          method.use_oram_index ? 0 : stats.queries_executed;
      if (stats.snapshot_scans != expect_snapshots) {
        std::cerr << "sweep_concurrency: snapshot_scans counter "
                  << stats.snapshot_scans << " != expected "
                  << expect_snapshots << " for " << method.name << std::endl;
        return 1;
      }

      double qps = wall > 0 ? kQueries / wall : 0;
      // Every query scans the whole table, so the scan throughput each
      // cell sustains is (records per scan) x (scans per second) — the
      // number the scan kernel's columnar loop moves (see
      // bench/sweep_vectorized.cpp for the per-query-shape breakdown).
      double rows_per_sec =
          wall > 0 ? static_cast<double>(kRecords) * kQueries / wall : 0;
      qps_by_method[method.name][in_flight] = qps;
      std::cout << "sweep_concurrency," << method.name << ",x" << in_flight
                << "," << kQueries << "," << wall << "," << qps << ","
                << rows_per_sec << "," << stats.peak_in_flight << ","
                << stats.plan_cache_misses << ","
                << stats.queries_executed << "\n";
      table.AddRow({method.name, std::to_string(in_flight),
                    std::to_string(kQueries), TablePrinter::Fmt(wall, 3),
                    TablePrinter::Fmt(qps, 1),
                    TablePrinter::Fmt(rows_per_sec, 0),
                    std::to_string(stats.peak_in_flight),
                    std::to_string(stats.plan_cache_misses),
                    std::to_string(stats.snapshot_scans),
                    std::to_string(stats.queries_executed)});

      std::ostringstream json;
      json.precision(17);
      json << "{\"engine\":\"ObliDB\",\"strategy\":\"concurrency-"
           << method.name << "-x" << in_flight
           << "\",\"in_flight\":" << in_flight << ",\"use_oram_index\":"
           << (method.use_oram_index ? "true" : "false")
           << ",\"records\":" << kRecords << ",\"query_count\":" << kQueries
           << ",\"wall_seconds\":" << wall << ",\"qps\":" << qps
           << ",\"rows_per_sec\":" << rows_per_sec
           << ",\"virtual_seconds\":" << virtual_seconds
           << ",\"peak_in_flight\":" << stats.peak_in_flight
           << ",\"plan_cache\":{\"prepares\":" << stats.prepares
           << ",\"hits\":" << stats.plan_cache_hits
           << ",\"misses\":" << stats.plan_cache_misses << "}}";
      RecordEntry(json.str());
    }
  }
  std::cout << "\n";
  table.Print(std::cout);

  // The overlap win, method by method. Only the snapshot cells can beat
  // 1x on same-table scans (indexed cells serialize on the table lock);
  // whether they DO depends on the host's core count.
  std::cout << "\nSame-table x8-over-x1 qps speedup:";
  for (const auto& [name, cells] : qps_by_method) {
    double base = cells.count(1) ? cells.at(1) : 0;
    double top = cells.count(8) ? cells.at(8) : 0;
    double speedup = base > 0 ? top / base : 0;
    std::cout << "  " << name << " " << TablePrinter::Fmt(speedup, 2) << "x";
  }
  std::cout << "\n";
  {
    const auto& snap = qps_by_method["linear"];
    double speedup = snap.at(1) > 0 ? snap.at(8) / snap.at(1) : 0;
    if (std::thread::hardware_concurrency() >= 2 && speedup < 2.0) {
      // Multi-core hosts should overlap same-table snapshot scans; warn
      // (don't fail — CI machines share cores) so regressions surface in
      // the log and the archived JSON.
      std::cout << "WARN: snapshot linear x8 speedup " << speedup
                << "x < 2x on a " << std::thread::hardware_concurrency()
                << "-thread host\n";
    }
  }

  std::cout << "\nExpected shape: answers are identical in every cell (the "
               "admission limit\nchanges scheduling only), peak in-flight "
               "never exceeds the limit, every\ncell plans each of the 4 "
               "distinct queries exactly once however many times\nit "
               "executes them, and only the snapshot linear cells overlap "
               "same-table\nscans (their x8 qps pulls away from x1 as cores "
               "allow).\n";
  return 0;
}
