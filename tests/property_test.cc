// Cross-strategy property tests (TEST_P over the full strategy matrix):
// invariants every synchronization policy must uphold regardless of its
// privacy/accuracy trade-off, checked on randomized streams.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/strategy_factory.h"
#include "edb/encrypted_table.h"
#include "edb/oblidb_engine.h"
#include "edb/snapshot.h"
#include "edb/storage_backend.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/result.h"
#include "query/rewriter.h"
#include "test_util.h"
#include "workload/taxi_generator.h"
#include "workload/trip_record.h"

namespace dpsync {
namespace {

class RecordingBackend : public SogdbBackend {
 public:
  Status Setup(const std::vector<Record>& g) override { return Add(g); }
  Status Update(const std::vector<Record>& g) override {
    ++update_calls_;
    return Add(g);
  }
  int64_t outsourced_count() const override {
    return static_cast<int64_t>(received_.size());
  }
  const std::vector<Record>& received() const { return received_; }
  int64_t update_calls() const { return update_calls_; }

 private:
  Status Add(const std::vector<Record>& g) {
    received_.insert(received_.end(), g.begin(), g.end());
    return Status::Ok();
  }
  std::vector<Record> received_;
  int64_t update_calls_ = 0;
};

using MatrixParam = std::tuple<StrategyKind, uint64_t /*seed*/>;

class StrategyMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(StrategyMatrixTest, CoreInvariantsHold) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  StrategyParams params;
  params.flush_interval = 700;
  params.flush_size = 8;
  RecordingBackend backend;
  DpSyncEngine engine(MakeStrategy(kind, params, &rng), &backend,
                      workload::MakeTripDummyFactory(seed ^ 0xff), seed);

  // Initial database of 20 records.
  std::vector<Record> initial;
  for (int64_t i = 0; i < 20; ++i) {
    workload::TripRecord trip;
    trip.pick_time = 0;
    trip.pickup_id = i + 1;
    initial.push_back(trip.ToRecord());
  }
  ASSERT_TRUE(engine.Setup(std::move(initial)).ok());

  Rng arrivals(seed * 31 + 7);
  const int64_t horizon = 2100;
  for (int64_t t = 1; t <= horizon; ++t) {
    std::optional<Record> arrival;
    if (arrivals.Bernoulli(0.35)) {
      workload::TripRecord trip;
      trip.pick_time = t;
      trip.pickup_id = arrivals.UniformInt(1, 265);
      arrival = trip.ToRecord();
    }
    ASSERT_TRUE(engine.Tick(std::move(arrival)).ok());

    // Invariant 1: conservation — every record the owner holds is either
    // still cached or was shipped as a real record.
    const auto& c = engine.counters();
    ASSERT_EQ(c.received_total + c.initial_size,
              c.real_synced + engine.logical_gap())
        << engine.strategy().name() << " at t=" << t;
  }

  // Invariant 2: the update pattern transcript exactly accounts for the
  // server's holdings.
  EXPECT_EQ(engine.update_pattern().total_volume(), backend.outsourced_count());
  EXPECT_EQ(engine.update_pattern().num_updates() - 1,  // minus setup event
            backend.update_calls());

  // Invariant 3: server holdings = real + dummy accounting.
  EXPECT_EQ(backend.outsourced_count(),
            engine.counters().real_synced + engine.counters().dummy_synced);

  // Invariant 4 (P3, order half): real records reach the server in FIFO
  // arrival order.
  int64_t last_time = -1;
  int64_t last_zone = -1;
  for (const auto& r : backend.received()) {
    if (r.is_dummy) continue;
    auto trip = workload::TripRecord::FromRecord(r);
    ASSERT_TRUE(trip.ok());
    if (trip->pick_time == 0) {
      // Initial DB: zones were assigned in increasing order.
      ASSERT_EQ(last_time, -1) << "initial records must precede stream";
      EXPECT_GT(trip->pickup_id, last_zone);
      last_zone = trip->pickup_id;
    } else {
      EXPECT_GT(trip->pick_time, last_time);
      last_time = trip->pick_time;
    }
  }

  // Invariant 5: every shipped record still decrypts/parses (payloads are
  // never corrupted by the pipeline).
  for (const auto& r : backend.received()) {
    EXPECT_TRUE(workload::TripRecord::FromRecord(r).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyMatrixTest,
    ::testing::Combine(::testing::Values(StrategyKind::kSur, StrategyKind::kOto,
                                         StrategyKind::kSet,
                                         StrategyKind::kDpTimer,
                                         StrategyKind::kDpAnt),
                       ::testing::Values(11u, 29u, 47u)));

// The analyst's view must converge once the stream stops (P3, eventual
// consistency) for every strategy that uploads at all (OTO excluded).
class ConvergenceTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ConvergenceTest, QueriesConvergeAfterStreamEnds) {
  StrategyKind kind = GetParam();
  Rng rng(5);
  StrategyParams params;
  params.flush_interval = 300;
  params.flush_size = 10;
  RecordingBackend backend;
  DpSyncEngine engine(MakeStrategy(kind, params, &rng), &backend,
                      workload::MakeTripDummyFactory(6), 7);
  ASSERT_TRUE(engine.Setup({}).ok());

  query::Table logical;
  logical.name = "T";
  logical.schema = workload::TripSchema();

  Rng arrivals(8);
  for (int64_t t = 1; t <= 600; ++t) {
    std::optional<Record> arrival;
    if (arrivals.Bernoulli(0.4)) {
      workload::TripRecord trip;
      trip.pick_time = t;
      trip.pickup_id = arrivals.UniformInt(1, 100);
      logical.rows.push_back(trip.ToRow());
      arrival = trip.ToRecord();
    }
    ASSERT_TRUE(engine.Tick(std::move(arrival)).ok());
  }
  // Quiet period long enough for flushes to drain any residue.
  for (int64_t t = 601; t <= 600 + 300 * 40; ++t) {
    ASSERT_TRUE(engine.Tick(std::nullopt).ok());
    if (engine.logical_gap() == 0) break;
  }
  ASSERT_EQ(engine.logical_gap(), 0) << StrategyKindName(kind);

  // Count real records on the "server" (dummy-aware view): must equal the
  // logical database exactly.
  query::Table server_view;
  server_view.name = "T";
  server_view.schema = workload::TripSchema();
  for (const auto& r : backend.received()) {
    auto row = query::DeserializeRow(r.payload);
    ASSERT_TRUE(row.ok());
    server_view.rows.push_back(std::move(row.value()));
  }
  query::Catalog catalog;
  catalog.AddTable(&server_view);
  query::Executor executor(&catalog);
  auto q = query::ParseSelect("SELECT COUNT(*) FROM T");
  auto rewritten = query::RewriteForDummies(q.value());
  auto server_count = executor.Execute(rewritten);
  ASSERT_TRUE(server_count.ok());
  EXPECT_DOUBLE_EQ(server_count->scalar,
                   static_cast<double>(logical.rows.size()));
}

INSTANTIATE_TEST_SUITE_P(Strategies, ConvergenceTest,
                         ::testing::Values(StrategyKind::kSur,
                                           StrategyKind::kSet,
                                           StrategyKind::kDpTimer,
                                           StrategyKind::kDpAnt));

// ------------------------------------------- float determinism property

// The scan kernel's loop contract in one randomized property: fill an
// encrypted store with random float-heavy rows, pin its committed prefix,
// and the kernel's row and columnar loops must produce bit-identical
// per-span cells (and so answers) across backends x shard counts. One
// cell exceeds 8192 rows so both loops cross the parallel-scan threshold
// and exercise the multi-chunk partial merge, where a reduction-order
// slip would surface as a last-ulp SUM/AVG difference. Engines run the
// columnar loop wherever it applies, so what they answer — and, on
// Crypt-eps, the Laplace noise stream drawn after the exact answer —
// rests on this equality.
TEST(VectorizedDeterminismTest, RandomChunkFillsBitIdenticalAcrossConfigs) {
  namespace fs = std::filesystem;
  struct Cell {
    edb::StorageBackendKind backend;
    int shards;
    int64_t rows;
  };
  const Cell cells[] = {
      // > kParallelScanThreshold: the fan-out path.
      {edb::StorageBackendKind::kInMemory, 1, 9000},
      {edb::StorageBackendKind::kInMemory, 4, 1500},
      {edb::StorageBackendKind::kSegmentLog, 1, 1200},
      {edb::StorageBackendKind::kSegmentLog, 4, 1200},
  };
  const std::vector<std::string> sqls = {
      "SELECT SUM(fare) FROM YellowCab",
      "SELECT AVG(fare) FROM YellowCab",
      "SELECT SUM(tripDistance) FROM YellowCab WHERE fare >= 30.0",
      "SELECT pickupID, SUM(fare) FROM YellowCab GROUP BY pickupID",
  };

  // Two independent random data sets per configuration.
  for (int fill = 0; fill < 2; ++fill) {
    for (size_t ci = 0; ci < std::size(cells); ++ci) {
      const Cell& cell = cells[ci];
      // Random chunk fill: irregular doubles make FP addition genuinely
      // non-associative, so any reordering shows.
      auto rng = testutil::MakeRng(1000 + 10 * ci + fill);
      std::vector<Record> records;
      records.reserve(static_cast<size_t>(cell.rows));
      for (int64_t i = 0; i < cell.rows; ++i) {
        workload::TripRecord trip;
        trip.pick_time = i;
        trip.pickup_id = rng.UniformInt(1, 40);
        trip.dropoff_id = rng.UniformInt(1, 40);
        trip.trip_distance = rng.UniformDouble() * 12.0;
        trip.fare = rng.UniformDouble() * 60.0;
        records.push_back(trip.ToRecord());
      }

      edb::StorageConfig storage;
      storage.backend = cell.backend;
      storage.num_shards = cell.shards;
      fs::path dir;
      if (cell.backend == edb::StorageBackendKind::kSegmentLog) {
        dir = fs::temp_directory_path() /
              ("dpsync-vecdet-" + std::to_string(fill) + "-" +
               std::to_string(ci));
        fs::remove_all(dir);
        storage.dir = dir.string();
      }
      edb::SnapshotView pinned;
      {
        edb::EncryptedTableStore store("YellowCab", workload::TripSchema(),
                                       Bytes(32, 9), storage);
        ASSERT_TRUE(store.Setup(records).ok());
        std::lock_guard<std::mutex> lk(store.table_mutex());
        auto snap = store.Snapshot();
        ASSERT_TRUE(snap.ok());
        pinned = std::move(snap.value());
      }
      ASSERT_EQ(pinned.total_rows, cell.rows);
      query::Table table;
      table.name = "YellowCab";
      table.schema = workload::TripSchema();
      table.borrowed_spans = pinned.spans;

      for (const auto& sql : sqls) {
        const std::string where = "fill " + std::to_string(fill) + " cell " +
                                  std::to_string(ci) + " " + sql;
        auto parsed = query::ParseSelect(sql);
        ASSERT_TRUE(parsed.ok()) << where;
        // What the engines execute: the Appendix-B dummy-exclusion rewrite.
        const query::SelectQuery q = query::RewriteForDummies(parsed.value());
        auto row_loop = query::ExecuteScanPartial(q, table, false);
        auto columnar = query::ExecuteScanPartial(q, table, true);
        ASSERT_TRUE(row_loop.ok()) << where;
        ASSERT_TRUE(columnar.ok()) << where;
        testutil::ExpectSameCells(row_loop.value(), columnar.value(), where);
        const auto s = row_loop->Finalize();
        const auto v = columnar->Finalize();
        EXPECT_EQ(s.grouped, v.grouped) << where;
        EXPECT_EQ(s.scalar, v.scalar) << where;
        EXPECT_TRUE(s.groups == v.groups) << where;
      }
      if (!dir.empty()) fs::remove_all(dir);
    }
  }
}

// ---------------------------------------------- join determinism property

// The join's whole determinism contract in one randomized property: fill
// two tables with random float-heavy rows (heavy key collisions, dummies
// in the stream) and every combination of backend x shard count x
// {lock-free linear, locked ORAM-indexed} x {synchronous Execute,
// Submit/Wait on a pool task} must agree bit-for-bit with the linear
// synchronous reference — answers, grouped maps, AND the deterministic
// metrics (virtual QET, records_scanned, join_pairs). One cell exceeds
// 8192 probe rows so the parallel extraction and probe genuinely fan
// out, where a chunk-order slip would surface as a last-ulp SUM
// difference (a pool task runs the probe's ParallelFor inline, so the
// merge tree must not depend on it); the segment-log cells keep the
// default pair limit so the oblivious nested loop (COUNT) is swept
// across configs too.
TEST(JoinDeterminismTest, RandomJoinsBitIdenticalAcrossConfigs) {
  namespace fs = std::filesystem;
  struct Cell {
    edb::StorageBackendKind backend;
    int shards;
    int64_t probe_rows;
    int64_t build_rows;
    int64_t join_limit;  ///< 0 forces the hash path; -1 keeps the default
  };
  const Cell cells[] = {
      // > kParallelScanThreshold: the parallel extraction/probe path.
      {edb::StorageBackendKind::kInMemory, 1, 9000, 300, 0},
      {edb::StorageBackendKind::kInMemory, 4, 1500, 400, 0},
      {edb::StorageBackendKind::kSegmentLog, 1, 900, 200, -1},
      {edb::StorageBackendKind::kSegmentLog, 4, 900, 200, -1},
  };
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime",
      "SELECT SUM(YellowCab.fare) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime WHERE "
      "YellowCab.tripDistance >= 6.0",
      "SELECT GreenTaxi.pickupID, SUM(YellowCab.fare) FROM YellowCab "
      "INNER JOIN GreenTaxi ON YellowCab.pickTime = GreenTaxi.pickTime "
      "GROUP BY GreenTaxi.pickupID",
  };

  struct Outcome {
    query::QueryResult result;
    double virtual_seconds;
    int64_t records_scanned;
    int64_t join_pairs;
  };

  for (size_t ci = 0; ci < std::size(cells); ++ci) {
    const Cell& cell = cells[ci];
    auto make_rows = [&](int64_t n, uint64_t salt) {
      auto rng = testutil::MakeRng(2000 + 10 * ci + salt);
      std::vector<Record> records;
      records.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        workload::TripRecord trip;
        trip.pick_time = rng.UniformInt(0, 50);  // heavy collisions
        trip.pickup_id = rng.UniformInt(1, 40);
        trip.dropoff_id = rng.UniformInt(1, 40);
        trip.trip_distance = rng.UniformDouble() * 12.0;
        trip.fare = rng.UniformDouble() * 60.0;
        trip.is_dummy = (i % 11 == 0);  // rewrite must filter these
        records.push_back(trip.ToRecord());
      }
      return records;
    };
    const auto probe = make_rows(cell.probe_rows, 1);
    const auto build = make_rows(cell.build_rows, 2);

    auto run = [&](bool indexed, bool submit) -> std::vector<Outcome> {
      edb::ObliDbConfig cfg;
      cfg.master_seed = 20260807;
      cfg.storage.backend = cell.backend;
      cfg.storage.num_shards = cell.shards;
      cfg.use_oram_index = indexed;
      if (cell.join_limit >= 0) cfg.oblivious_join_limit = cell.join_limit;
      fs::path dir;
      if (cell.backend == edb::StorageBackendKind::kSegmentLog) {
        dir = fs::temp_directory_path() /
              ("dpsync-joindet-" + std::to_string(ci) +
               (indexed ? "-idx" : "-lin") + (submit ? "-sub" : "-exe"));
        fs::remove_all(dir);
        cfg.storage.dir = dir.string();
      }
      std::vector<Outcome> outcomes;
      {
        edb::ObliDbServer server(cfg);
        auto yt = server.CreateTable("YellowCab", workload::TripSchema());
        EXPECT_TRUE(yt.ok());
        EXPECT_TRUE(yt.value()->Setup(probe).ok());
        auto gt = server.CreateTable("GreenTaxi", workload::TripSchema());
        EXPECT_TRUE(gt.ok());
        EXPECT_TRUE(gt.value()->Setup(build).ok());
        auto session = server.CreateSession();
        for (const auto& sql : sqls) {
          auto prepared = session->Prepare(sql);
          EXPECT_TRUE(prepared.ok()) << sql;
          StatusOr<edb::QueryResponse> r = Status::Internal("not run");
          if (submit) {
            auto ticket = session->Submit(prepared.value());
            EXPECT_TRUE(ticket.ok()) << sql;
            r = session->Wait(ticket.value());
          } else {
            r = session->Execute(prepared.value());
          }
          EXPECT_TRUE(r.ok()) << sql;
          outcomes.push_back({r->result, r->stats.virtual_seconds,
                              r->stats.records_scanned,
                              r->stats.join_pairs});
        }
        // The lock-free path must engage exactly for linear tables.
        EXPECT_EQ(server.stats().snapshot_joins,
                  indexed ? 0 : static_cast<int64_t>(sqls.size()));
      }
      if (!dir.empty()) fs::remove_all(dir);
      return outcomes;
    };

    const auto reference = run(false, false);  // linear, synchronous
    for (bool indexed : {false, true}) {
      for (bool submit : {false, true}) {
        if (!indexed && !submit) continue;
        auto got = run(indexed, submit);
        ASSERT_EQ(got.size(), reference.size());
        for (size_t i = 0; i < got.size(); ++i) {
          const std::string where =
              "cell " + std::to_string(ci) + " sql " + std::to_string(i) +
              (indexed ? " indexed" : " linear") +
              (submit ? " submit" : " execute");
          EXPECT_EQ(reference[i].result.grouped, got[i].result.grouped)
              << where;
          EXPECT_EQ(reference[i].result.scalar, got[i].result.scalar)
              << where;
          EXPECT_EQ(reference[i].result.groups, got[i].result.groups)
              << where;
          EXPECT_EQ(reference[i].virtual_seconds, got[i].virtual_seconds)
              << where;
          EXPECT_EQ(reference[i].records_scanned, got[i].records_scanned)
              << where;
          EXPECT_EQ(reference[i].join_pairs, got[i].join_pairs) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpsync
