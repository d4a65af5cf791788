// Tests for the extension features: the TLC CSV loader (with the paper's
// preprocessing), multi-record-per-tick arrivals, geometric-noise strategy
// variants, and the Crypt-eps analyst budget: its exact release count on
// both servers and the exact bits of its noise stream.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/dp_timer.h"
#include "core/engine.h"
#include "core/naive_strategies.h"
#include "dist/coordinator.h"
#include "edb/crypte_engine.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/tlc_loader.h"
#include "workload/trip_record.h"

namespace dpsync {
namespace {

using testutil::DoubleBits;
using testutil::PrepareAndExecute;
using testutil::RecordingBackend;
using testutil::Trip;
using workload::TripRecord;

// ------------------------------------------------------------ TLC loader

class TlcLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/dpsync_tlc_test.csv";
    std::ofstream out(path_);
    // Header mirrors the 2020 Yellow layout (11 columns; we only read 5).
    out << "VendorID,tpep_pickup_datetime,tpep_dropoff_datetime,passenger_"
           "count,trip_distance,RatecodeID,store_and_fwd_flag,PULocationID,"
           "DOLocationID,payment_type,fare_amount\n";
    auto row = [&](const std::string& ts, const std::string& pu,
                   const std::string& doo, const std::string& dist,
                   const std::string& fare) {
      out << "1," << ts << ",2020-06-01 00:20:00,1," << dist << ",1,N," << pu
          << "," << doo << ",1," << fare << "\n";
    };
    row("2020-06-01 00:08:42", "132", "45", "3.2", "14.5");   // kept, min 8
    row("2020-06-01 00:08:59", "100", "10", "1.0", "5.0");    // dup minute 8
    row("2020-06-02 13:30:00", "7", "7", "0.5", "3.0");       // kept
    row("2020-05-31 23:59:00", "1", "1", "1.0", "4.0");       // out of month
    row("2020-06-15 07:00:00", "999", "45", "1.0", "4.0");    // bad zone
    row("2020-06-15 07:01:00", "45", "45", "-2.0", "4.0");    // bad distance
    row("garbage-timestamp", "45", "45", "1.0", "4.0");       // bad ts
    row("2020-06-30 23:59:00", "265", "1", "2.0", "9.0");     // kept, last min
  }

  std::string path_;
};

TEST_F(TlcLoaderTest, AppliesPaperPreprocessing) {
  workload::TlcLoadOptions opt;
  workload::TlcLoadStats stats;
  auto trace = workload::LoadTlcCsv(path_, opt, &stats);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(stats.rows_read, 8);
  EXPECT_EQ(stats.kept, 3);
  EXPECT_EQ(stats.duplicates_dropped, 1);
  EXPECT_EQ(stats.invalid_dropped, 2);      // bad zone, bad distance
  EXPECT_EQ(stats.out_of_month_dropped, 2);  // May row + garbage timestamp
  EXPECT_EQ(trace->record_count(), 3);
  EXPECT_EQ(trace->config.horizon_minutes, 43200);
}

TEST_F(TlcLoaderTest, MapsTimestampsToMinuteSlots) {
  workload::TlcLoadOptions opt;
  auto trace = workload::LoadTlcCsv(path_, opt, nullptr);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->arrivals[8].has_value());  // 00:08 on day 1
  EXPECT_EQ(trace->arrivals[8]->pickup_id, 132);
  EXPECT_DOUBLE_EQ(trace->arrivals[8]->trip_distance, 3.2);
  // Day 2, 13:30 -> 1440 + 13*60 + 30.
  EXPECT_TRUE(trace->arrivals[1440 + 13 * 60 + 30].has_value());
  // Last minute of the month.
  EXPECT_TRUE(trace->arrivals[43200 - 1].has_value());
}

TEST_F(TlcLoaderTest, MissingFileFails) {
  workload::TlcLoadOptions opt;
  EXPECT_FALSE(workload::LoadTlcCsv("/no/such/file.csv", opt).ok());
}

TEST(ParseTlcMinuteTest, ParsesAndValidates) {
  workload::TlcLoadOptions opt;  // June 2020
  EXPECT_EQ(workload::ParseTlcMinute("2020-06-01 00:00:00", opt), 0);
  EXPECT_EQ(workload::ParseTlcMinute("2020-06-01 01:30:59", opt), 90);
  EXPECT_EQ(workload::ParseTlcMinute("2020-06-30 23:59:00", opt), 43199);
  EXPECT_EQ(workload::ParseTlcMinute("2020-07-01 00:00:00", opt), -1);
  EXPECT_EQ(workload::ParseTlcMinute("2019-06-01 00:00:00", opt), -1);
  EXPECT_EQ(workload::ParseTlcMinute("2020-06-31 00:00:00", opt), -1);
  EXPECT_EQ(workload::ParseTlcMinute("not a time", opt), -1);
  EXPECT_EQ(workload::ParseTlcMinute("", opt), -1);
}

// ----------------------------------------------- Multi-record arrivals

Record SomeRecord(int64_t t) {
  TripRecord trip;
  trip.pick_time = t;
  return trip.ToRecord();
}

TEST(TickBatchTest, SurSyncsWholeBatch) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &backend,
                      workload::MakeTripDummyFactory(1), 2);
  ASSERT_TRUE(engine.Setup({}).ok());
  ASSERT_TRUE(engine.TickBatch({SomeRecord(1), SomeRecord(1), SomeRecord(1)})
                  .ok());
  EXPECT_EQ(backend.update_volume(), 3);
  EXPECT_EQ(engine.logical_gap(), 0);
}

TEST(TickBatchTest, TimerCountsAllArrivals) {
  RecordingBackend backend;
  DpTimerConfig cfg;
  cfg.period = 10;
  cfg.epsilon = 100.0;  // ~noiseless
  cfg.flush_interval = 0;
  DpSyncEngine engine(std::make_unique<DpTimerStrategy>(cfg), &backend,
                      workload::MakeTripDummyFactory(3), 4);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 10; ++t) {
    ASSERT_TRUE(engine.TickBatch({SomeRecord(t), SomeRecord(t)}).ok());
  }
  // 20 arrivals in the window; near-noiseless count fetches ~20.
  EXPECT_NEAR(static_cast<double>(backend.update_volume()), 20.0, 1.0);
  EXPECT_EQ(engine.counters().received_total, 20);
}

TEST(TickBatchTest, EmptyBatchIsANullUpdate) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &backend,
                      workload::MakeTripDummyFactory(5), 6);
  ASSERT_TRUE(engine.Setup({}).ok());
  ASSERT_TRUE(engine.TickBatch({}).ok());
  EXPECT_EQ(engine.now(), 1);
  EXPECT_EQ(backend.update_volume(), 0);
}

// ------------------------------------------------------- Geometric noise

TEST(NoiseKindTest, PerturbCountWithDispatches) {
  Rng rng(7);
  // Geometric is integer-valued by construction; Laplace rounds. Both must
  // stay near the true count at high epsilon.
  for (auto kind : {dp::NoiseKind::kLaplace, dp::NoiseKind::kGeometric}) {
    int64_t v = dp::PerturbCountWith(kind, 50.0, 42, &rng);
    EXPECT_NEAR(static_cast<double>(v), 42.0, 2.0) << dp::NoiseKindName(kind);
  }
}

TEST(NoiseKindTest, TimerWithGeometricNoiseStillTracksCounts) {
  DpTimerConfig cfg;
  cfg.period = 10;
  cfg.epsilon = 2.0;
  cfg.noise = dp::NoiseKind::kGeometric;
  cfg.flush_interval = 0;
  DpTimerStrategy timer(cfg);
  Rng rng(8);
  int64_t fetched = 0;
  int64_t windows = 0;
  for (int t = 1; t <= 1000; ++t) {
    for (const auto& d : timer.OnTick(t, 1, &rng)) fetched += d.fetch_count;
    if (t % 10 == 0) ++windows;
  }
  EXPECT_NEAR(static_cast<double>(fetched) / static_cast<double>(windows),
              10.0, 2.0);
}

TEST(NoiseKindTest, NamesAreStable) {
  EXPECT_STREQ(dp::NoiseKindName(dp::NoiseKind::kLaplace), "laplace");
  EXPECT_STREQ(dp::NoiseKindName(dp::NoiseKind::kGeometric), "geometric");
}

// ------------------------------------------------ Crypt-eps budget limit

/// A 2-rank distributed twin of `cfg`: the release over the coordinator
/// spends the same budget the single-process engine does.
dist::DistributedCryptEpsServer TwoRankTwin(edb::CryptEpsConfig cfg) {
  cfg.storage.num_shards = 2;
  dist::DistributedConfig topology;
  topology.num_servers = 2;
  return dist::DistributedCryptEpsServer(cfg, topology);
}

/// One row of the exact-budget grid. The limit is written as a decimal
/// literal, never computed as answers * epsilon, so 0.3 / 0.1 falls just
/// short of 3 in binary and 1e-9 / 1e-10 lands near 10 by rounding.
struct BudgetCase {
  double epsilon;
  double limit;
  int answers;  ///< floor(limit / epsilon)
};

void PrintTo(const BudgetCase& c, std::ostream* os) {
  *os << "epsilon " << c.epsilon << ", limit " << c.limit;
}

template <typename Server>
void ExpectAnswersThenDenied(Server& server, const BudgetCase& c) {
  auto t = server.CreateTable("YellowCab", workload::TripSchema());
  ASSERT_OK(t);
  ASSERT_OK(t.value()->Setup({Trip(1, 60)}));
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  for (int i = 0; i < c.answers; ++i) {
    ASSERT_OK(PrepareAndExecute(server, q.value()));
  }
  auto denied = PrepareAndExecute(server, q.value());
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server.consumed_query_budget(), c.answers * c.epsilon);
}

class CryptBudgetTest : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(CryptBudgetTest, AnswersFloorOfLimitOverEpsilonThenRefuses) {
  const BudgetCase& c = GetParam();
  edb::CryptEpsConfig cfg;
  cfg.query_epsilon = c.epsilon;
  cfg.total_budget_limit = c.limit;
  {
    SCOPED_TRACE("CryptEpsServer");
    edb::CryptEpsServer server(cfg);
    ExpectAnswersThenDenied(server, c);
  }
  {
    SCOPED_TRACE("2-rank DistributedCryptEpsServer");
    dist::DistributedCryptEpsServer server = TwoRankTwin(cfg);
    ASSERT_OK(server.init_status());
    ExpectAnswersThenDenied(server, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CryptBudgetTest,
    ::testing::Values(
        BudgetCase{3.0, 7.0, 2},  // a limit between two multiples
        BudgetCase{3.0, 3.0, 1}, BudgetCase{3.0, 9.0, 3},
        BudgetCase{3.0, 30.0, 10}, BudgetCase{3.0, 31.5, 10},
        BudgetCase{0.1, 0.1, 1}, BudgetCase{0.1, 0.3, 3},
        BudgetCase{0.1, 1.0, 10}, BudgetCase{0.1, 1.05, 10},
        BudgetCase{1e-3, 1e-3, 1}, BudgetCase{1e-3, 3e-3, 3},
        BudgetCase{1e-3, 1e-2, 10}, BudgetCase{1e-3, 1.05e-2, 10},
        BudgetCase{1e-10, 1e-10, 1}, BudgetCase{1e-10, 3e-10, 3},
        BudgetCase{1e-10, 1e-9, 10}, BudgetCase{1e-10, 1.05e-9, 10}));

TEST(CryptBudgetTest, ZeroLimitMeansUnlimited) {
  edb::CryptEpsConfig cfg;
  cfg.total_budget_limit = 0.0;
  edb::CryptEpsServer server(cfg);
  auto t = server.CreateTable("YellowCab", workload::TripSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->Setup({Trip(1, 60)}).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(PrepareAndExecute(server, q.value()).ok());
  }
}

// ------------------------------------------------- Crypt-eps noise golden

/// Every released value of a fixed query sequence, as bit patterns: one
/// per scalar answer, one per group in key order.
template <typename Server>
std::vector<uint64_t> ReleasedBits(Server& server) {
  std::vector<uint64_t> bits;
  auto t = server.CreateTable("YellowCab", workload::TripSchema());
  EXPECT_OK(t);
  if (!t.ok()) return bits;
  std::vector<Record> rows;
  for (int64_t i = 1; i <= 12; ++i) rows.push_back(Trip(i, 60 + 10 * (i % 3)));
  rows.push_back(Trip(13, 60, /*dummy=*/true));
  EXPECT_OK(t.value()->Setup(rows));
  for (const char* sql : {
           "SELECT COUNT(*) FROM YellowCab",
           "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID",
           "SELECT SUM(fare) FROM YellowCab WHERE pickupID = 70",
           "SELECT COUNT(*) FROM YellowCab WHERE pickupID = 99",
           "SELECT pickupID, SUM(fare) FROM YellowCab GROUP BY pickupID",
           "SELECT COUNT(*) FROM YellowCab WHERE pickupID = 98",
       }) {
    auto q = query::ParseSelect(sql);
    EXPECT_OK(q);
    auto r = PrepareAndExecute(server, q.value());
    EXPECT_OK(r);
    if (!r.ok()) return bits;
    if (r->result.grouped) {
      for (const auto& [key, value] : r->result.groups) {
        bits.push_back(DoubleBits(value));
      }
    } else {
      bits.push_back(DoubleBits(r->result.scalar));
    }
  }
  return bits;
}

// The exact bits of a fixed-seed sequence of Crypt-eps releases. The
// noise-stream identity tests compare two servers built from the same
// code, so a change that shifted every stream alike would pass them; this
// pins the seed, the draw order (one draw per scalar, one per group in
// key order) and the clamp at 0 (the two zero-count queries), on both
// servers.
TEST(CryptEpsNoiseGoldenTest, FixedSeedReleasesArePinned) {
  const std::vector<uint64_t> kGolden = {
      0x40282ee1891d03c1,  // COUNT(*)
      0x401ffa55cde9e7f0,  // COUNT(*) GROUP BY pickupID: 60
      0x402e0311a44da3e2,  //   70
      0x400dfc396ecff6e9,  //   80
      0x4030f769470d2a3d,  // SUM(fare) WHERE pickupID = 70
      0x3fe31fd8cfdfb9b8,  // COUNT(*) WHERE pickupID = 99 (exact 0)
      0x4035596fa6645342,  // SUM(fare) GROUP BY pickupID: 60
      0x40356c4dc8a54fb2,  //   70
      0x403406801ea6b168,  //   80
      0x0000000000000000,  // COUNT(*) WHERE pickupID = 98: clamped at 0
  };
  edb::CryptEpsConfig cfg;
  cfg.master_seed = 12;
  cfg.query_epsilon = 0.5;
  edb::CryptEpsServer local(cfg);
  dist::DistributedCryptEpsServer distributed = TwoRankTwin(cfg);
  ASSERT_OK(distributed.init_status());
  for (const auto& bits : {ReleasedBits(local), ReleasedBits(distributed)}) {
    ASSERT_EQ(bits.size(), kGolden.size());
    for (size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(bits[i], kGolden[i]) << "release " << i;
    }
  }
}

}  // namespace
}  // namespace dpsync
