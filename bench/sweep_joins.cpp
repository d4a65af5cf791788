/// \file sweep_joins.cpp
/// Join-execution sweep: qps/rows-per-sec on one ObliDB server pair of
/// tables for build-side size n in {1k, 16k, 64k} x query shape {COUNT,
/// filtered SUM, grouped COUNT}. Linear joins always take the lock-free
/// two-snapshot path with the partitioned hash join on the shared pool.
/// The probe side (YellowCab) is fixed at 64k rows, so every cell's pair
/// count clears the oblivious nested-loop limit and times the partitioned
/// hash join itself; each cell prepares its query once, warms the enclave
/// mirrors with one untimed execution, then times `iters` executions of
/// the cached plan.
///
/// Before any number is reported the binary hard-fails unless each
/// cell's answer equals, bit for bit, query::Executor's join over the
/// same plaintext rows (same row order, so the same chunk decomposition
/// and merge tree), and unless every timed execution repeats the warm-up
/// exactly. DPSYNC_FAST=1 shrinks the per-cell row budget.
///
/// Output: "sweep_joins,<query>,n<build>,..." CSV lines, a summary table,
/// and BENCH_sweep_joins.json entries (wired into the CI bench-artifacts
/// job; wall_seconds/qps/rows_per_sec are allowlisted as timing, the
/// counters stay gated).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "edb/oblidb_engine.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workload/trip_record.h"

using namespace dpsync;
using namespace dpsync::bench;

namespace {

constexpr int64_t kProbeRows = 64000;

/// Sequential pickTime keys give ~1 build match per probe row (the join
/// below is on pickTime), so the timed loop measures hash build + probe,
/// not quadratic match enumeration.
std::vector<workload::TripRecord> MakeTrips(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<workload::TripRecord> trips;
  trips.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    workload::TripRecord trip;
    trip.pick_time = i;
    trip.pickup_id = rng.UniformInt(1, 265);
    trip.dropoff_id = rng.UniformInt(1, 265);
    trip.trip_distance = 1.0 + rng.UniformDouble() * 5;
    trip.fare = 2.5 + trip.trip_distance * 2.5;
    trips.push_back(trip);
  }
  return trips;
}

struct Shape {
  const char* name;  ///< CSV/JSON label
  const char* sql;
};

// Every column is table-qualified: the joined schema's fields are
// "Table.col", and only qualified names bind in it.
const Shape kShapes[] = {
    {"count",
     "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
     "YellowCab.pickTime = GreenTaxi.pickTime"},
    {"filtered-sum",
     "SELECT SUM(YellowCab.fare) FROM YellowCab INNER JOIN GreenTaxi ON "
     "YellowCab.pickTime = GreenTaxi.pickTime "
     "WHERE YellowCab.tripDistance >= 3"},
    {"group-count",
     "SELECT GreenTaxi.pickupID, COUNT(*) AS c FROM YellowCab INNER JOIN "
     "GreenTaxi ON YellowCab.pickTime = GreenTaxi.pickTime "
     "GROUP BY GreenTaxi.pickupID"},
};

/// One timed cell: throughput plus the deterministic counters.
struct Cell {
  double wall = 0;
  double qps = 0;
  double rows_per_sec = 0;
  int iters = 0;
  double virtual_seconds = 0;
  int64_t records_scanned = 0;
  int64_t join_pairs = 0;
  int64_t snapshot_joins = 0;
  query::QueryResult result;
};

void Die(const std::string& what, const Status& status) {
  std::cerr << "sweep_joins: " << what << ": " << status.ToString()
            << std::endl;
  std::exit(1);
}

/// Exact equality, group by group: the engine's join and the reference
/// executor walk the same rows over the same chunk decomposition and
/// merge order, so anything but == is a bug, not noise.
bool SameAnswer(const query::QueryResult& a, const query::QueryResult& b) {
  return a.grouped == b.grouped && a.scalar == b.scalar &&
         a.groups == b.groups;
}

query::Table PlainTable(const char* name,
                        const std::vector<workload::TripRecord>& trips) {
  query::Table table;
  table.name = name;
  table.schema = workload::TripSchema();
  table.rows.reserve(trips.size());
  for (const auto& trip : trips) table.rows.push_back(trip.ToRow());
  return table;
}

Cell RunCell(const Shape& shape,
             const std::vector<workload::TripRecord>& probe,
             const std::vector<workload::TripRecord>& build, int iters) {
  edb::ObliDbServer server{edb::ObliDbConfig{}};
  for (const auto& [name, trips] :
       {std::pair<const char*, const std::vector<workload::TripRecord>*>{
            "YellowCab", &probe},
        {"GreenTaxi", &build}}) {
    auto t = server.CreateTable(name, workload::TripSchema());
    if (!t.ok()) Die("CreateTable", t.status());
    std::vector<Record> records;
    records.reserve(trips->size());
    for (const auto& trip : *trips) records.push_back(trip.ToRecord());
    if (auto s = t.value()->Setup(records); !s.ok()) Die("Setup", s);
  }

  auto session = server.CreateSession();
  auto q = session->Prepare(shape.sql);
  if (!q.ok()) Die("Prepare", q.status());

  // Warm-up: populates both decrypted mirrors so the timed loop measures
  // steady-state joins, not the first catch-up.
  auto warm = session->Execute(q.value());
  if (!warm.ok()) Die("warm-up Execute", warm.status());

  Cell cell;
  cell.iters = iters;
  cell.virtual_seconds = warm->stats.virtual_seconds;
  cell.records_scanned = warm->stats.records_scanned;
  cell.join_pairs = warm->stats.join_pairs;
  cell.result = warm->result;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = session->Execute(q.value());
    if (!r.ok()) Die("Execute", r.status());
    if (!SameAnswer(r->result, cell.result) ||
        r->stats.virtual_seconds != cell.virtual_seconds ||
        r->stats.records_scanned != cell.records_scanned ||
        r->stats.join_pairs != cell.join_pairs) {
      std::cerr << "sweep_joins: answer drifted across iterations"
                << std::endl;
      std::exit(1);
    }
  }
  cell.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cell.qps = cell.wall > 0 ? static_cast<double>(iters) / cell.wall : 0;
  cell.rows_per_sec =
      cell.wall > 0
          ? static_cast<double>(cell.records_scanned) * iters / cell.wall
          : 0;
  // Every execution (warm-up + timed) is a lock-free snapshot join.
  cell.snapshot_joins = server.stats().snapshot_joins;
  if (cell.snapshot_joins != iters + 1) {
    std::cerr << "sweep_joins: snapshot_joins counter " << cell.snapshot_joins
              << " != expected " << iters + 1 << std::endl;
    std::exit(1);
  }
  return cell;
}

}  // namespace

int main() {
  Banner("Join-execution sweep: lock-free snapshot joins",
         "the two-snapshot capture + partitioned parallel hash join");
  const bool fast = FastMode();
  // Per-cell row budget: every cell joins ~this many (probe+build) rows
  // total, so small build sides run more iterations instead of finishing
  // too fast to time.
  const int64_t kRowBudget = fast ? 1 << 20 : 1 << 23;
  const int64_t kBuildSizes[] = {1000, 16000, 64000};

  const auto probe = MakeTrips(kProbeRows, 4242);
  const query::Table probe_table = PlainTable("YellowCab", probe);

  TablePrinter table(
      {"query", "build", "iters", "wall (s)", "qps", "rows/s"});
  for (int64_t n : kBuildSizes) {
    const auto build = MakeTrips(n, 7171);
    const query::Table build_table = PlainTable("GreenTaxi", build);
    query::Catalog catalog;
    catalog.AddTable(&probe_table);
    catalog.AddTable(&build_table);
    const query::Executor reference(&catalog);
    const int iters = static_cast<int>(
        std::max<int64_t>(4, kRowBudget / (kProbeRows + n)));
    for (const Shape& shape : kShapes) {
      Cell cell = RunCell(shape, probe, build, iters);

      auto parsed = query::ParseSelect(shape.sql);
      if (!parsed.ok()) Die("ParseSelect", parsed.status());
      auto expected = reference.Execute(parsed.value());
      if (!expected.ok()) Die("reference Execute", expected.status());
      if (!SameAnswer(expected.value(), cell.result)) {
        std::cerr << "sweep_joins: " << shape.name << " n=" << n
                  << " differs from query::Executor over the same rows"
                  << std::endl;
        return 1;
      }
      if (cell.records_scanned != kProbeRows + n ||
          cell.join_pairs != kProbeRows * n) {
        std::cerr << "sweep_joins: " << shape.name << " n=" << n
                  << " priced the wrong row counts" << std::endl;
        return 1;
      }

      std::cout << "sweep_joins," << shape.name << ",n" << n << ","
                << cell.iters << "," << cell.wall << "," << cell.qps << ","
                << cell.rows_per_sec << "\n";
      table.AddRow({shape.name, std::to_string(n), std::to_string(cell.iters),
                    TablePrinter::Fmt(cell.wall, 3),
                    TablePrinter::Fmt(cell.qps, 1),
                    TablePrinter::Fmt(cell.rows_per_sec, 0)});
      std::ostringstream json;
      json.precision(17);
      json << "{\"engine\":\"ObliDB\",\"strategy\":\"join-" << shape.name
           << "-n" << n << "\",\"query\":\"" << shape.name
           << "\",\"build_records\":" << n
           << ",\"probe_records\":" << kProbeRows
           << ",\"iters\":" << cell.iters
           << ",\"wall_seconds\":" << cell.wall << ",\"qps\":" << cell.qps
           << ",\"rows_per_sec\":" << cell.rows_per_sec
           << ",\"virtual_seconds\":" << cell.virtual_seconds
           << ",\"records_scanned\":" << cell.records_scanned
           << ",\"join_pairs\":" << cell.join_pairs
           << ",\"snapshot_joins\":" << cell.snapshot_joins << "}";
      RecordEntry(json.str());
    }
  }
  std::cout << "\n";
  table.Print(std::cout);

  std::cout << "\nExpected shape: every (query, build) cell matches "
               "query::Executor over the\nsame plaintext rows exactly "
               "(checked in-binary; bench_diff --strict gates\nthe counters "
               "across runs); the timings show what the partitioned hash\n"
               "join costs as the build side grows.\n";
  return 0;
}
