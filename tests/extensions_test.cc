// Tests for the extension features: multi-record-per-tick arrivals,
// geometric-noise strategy variants, and the Crypt-eps analyst budget: its
// exact release count, its refusal of an epsilon or limit it cannot
// release under, the epsilon a failed query gives back, and the exact bits
// of its noise stream.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/dp_timer.h"
#include "core/engine.h"
#include "core/naive_strategies.h"
#include "crypto/record_cipher.h"
#include "edb/crypte_engine.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync {
namespace {

using testutil::DoubleBits;
using testutil::PrepareAndExecute;
using testutil::RecordingBackend;
using testutil::Trip;
using workload::TripRecord;

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

void ExpectAnswersThenDenied(edb::CryptEpsServer& server,
                             const BudgetCase& c) {
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
  edb::CryptEpsServer server(cfg);
  ExpectAnswersThenDenied(server, c);
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

// An epsilon that is not finite and > 0 has no Laplace release, and a NaN
// limit is no limit: every query is refused with InvalidArgument before
// anything is reserved, never answered and never refused as an exhausted
// budget.
TEST(CryptBudgetTest, InvalidQueryEpsilonIsRefused) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double epsilon;
    double limit;
  } kCases[] = {{0.0, 6.0}, {-1.0, 6.0}, {kNaN, 6.0}, {kInf, 6.0},
                {3.0, kNaN}};
  for (const auto& c : kCases) {
    SCOPED_TRACE("epsilon " + std::to_string(c.epsilon) + ", limit " +
                 std::to_string(c.limit));
    edb::CryptEpsConfig cfg;
    cfg.query_epsilon = c.epsilon;
    cfg.total_budget_limit = c.limit;
    edb::CryptEpsServer server(cfg);
    auto t = server.CreateTable("YellowCab", workload::TripSchema());
    ASSERT_OK(t);
    std::vector<Record> rows;
    for (int64_t i = 1; i <= 5; ++i) rows.push_back(Trip(i, 60));
    ASSERT_OK(t.value()->Setup(rows));
    auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
    ASSERT_OK(q);
    for (int i = 0; i < 4; ++i) {
      auto r = PrepareAndExecute(server, q.value());
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
    EXPECT_EQ(server.consumed_query_budget(), 0.0);
  }
}

// A query that fails after its reservation releases nothing, so it spends
// nothing: dropping the reservation gives the epsilon back. With a
// two-query limit and one query answered, a leaked reservation would turn
// the second failure into PermissionDenied.
TEST(CryptBudgetTest, FailedQueryGivesTheEpsilonBack) {
  edb::CryptEpsConfig cfg;
  cfg.query_epsilon = 3.0;
  cfg.total_budget_limit = 6.0;
  edb::CryptEpsServer server(cfg);
  auto t = server.CreateTable("YellowCab", workload::TripSchema());
  ASSERT_OK(t);
  ASSERT_OK(t.value()->Setup({Trip(1, 60), Trip(2, 70)}));
  // MAX has no materialized view, so every execution captures the table.
  auto q = query::ParseSelect("SELECT MAX(fare) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_OK(PrepareAndExecute(server, q.value()));

  // Ingest opens no ciphertext, so one that fails authentication is
  // stored and fails every later capture.
  auto* store = static_cast<edb::EncryptedTableStore*>(t.value());
  ASSERT_OK(store->IngestCiphertexts(
      {{0, Bytes(crypto::RecordCipher::kCiphertextSize, 0)}},
      store->nonce_high_water(), /*setup_batch=*/false));
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto resp = PrepareAndExecute(server, q.value());
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument)
        << resp.status().ToString();
    EXPECT_EQ(server.consumed_query_budget(), 3.0);
  }
}

// ------------------------------------------------- Crypt-eps noise golden

/// Every released value of a fixed query sequence, as bit patterns: one
/// per scalar answer, one per group in key order.
std::vector<uint64_t> ReleasedBits(edb::CryptEpsServer& server) {
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
// key order) and the clamp at 0 (the two zero-count queries).
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
  edb::CryptEpsServer server(cfg);
  const std::vector<uint64_t> bits = ReleasedBits(server);
  ASSERT_EQ(bits.size(), kGolden.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(bits[i], kGolden[i]) << "release " << i;
  }
}

}  // namespace
}  // namespace dpsync
