// Integration tests: full DP-Sync experiments (scaled-down traces) across
// strategies and engines, checking every qualitative claim of §8, plus the
// update-pattern adversary.
//
// DPSYNC_SMOKE_SIM=1 selects a further-reduced smoke mode (half a
// simulated day, ~650 records) so sanitizer/CI sweeps finish ~8x faster;
// assertions that scale with the trace are expressed in terms of the
// config so both modes verify the same qualitative claims. The default
// (local) run keeps the full five-day sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <utility>

#include "sim/adversary.h"
#include "sim/experiment.h"

namespace dpsync::sim {
namespace {

bool SmokeMode() {
  const char* v = std::getenv("DPSYNC_SMOKE_SIM");
  return v != nullptr && v[0] == '1';
}

/// Scaled-down config: ~5 simulated days, ~2.3k yellow records (smoke
/// mode: half a day, ~650 records across both tables).
ExperimentConfig SmallConfig(StrategyKind strategy, EngineKind engine) {
  ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.strategy = strategy;
  cfg.yellow.horizon_minutes = 7200;
  cfg.yellow.target_records = 3000;
  cfg.green.horizon_minutes = 7200;
  cfg.green.target_records = 3500;
  cfg.params.flush_interval = 1000;
  cfg.size_sample_interval = 360;
  if (SmokeMode()) {
    // Half a simulated day with the same record/horizon density as the
    // full sweep (the SET-vs-DP volume ratios the tests assert depend on
    // it), and proportionally tightened query/flush/sampling schedules so
    // every series still collects enough points.
    cfg.yellow.horizon_minutes = 720;
    cfg.yellow.target_records = 300;
    cfg.green.horizon_minutes = 720;
    cfg.green.target_records = 350;
    cfg.params.flush_interval = 180;
    cfg.size_sample_interval = 90;
    for (auto& q : cfg.queries) q.interval = (q.name == "Q3") ? 360 : 90;
  }
  return cfg;
}

TEST(ExperimentTest, SurExactOnObliDb) {
  auto r = RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  // ObliDB answers are exact and SUR has no gap: all errors are zero.
  for (const auto& q : r->queries) {
    EXPECT_DOUBLE_EQ(q.mean_l1, 0.0) << q.name;
    EXPECT_DOUBLE_EQ(q.max_l1, 0.0) << q.name;
  }
  EXPECT_DOUBLE_EQ(r->mean_logical_gap, 0.0);
  EXPECT_EQ(r->dummy_synced, 0);
}

TEST(ExperimentTest, OtoErrorGrowsUnbounded) {
  auto r = RunExperiment(SmallConfig(StrategyKind::kOto, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  const auto& q1 = r->queries[0].l1_error;
  ASSERT_GE(q1.value.size(), 3u);
  // Error at the end is much larger than early on, and the mean is huge.
  EXPECT_GT(q1.value.back(), q1.value.front());
  EXPECT_GT(r->queries[1].mean_l1, 100.0);
}

TEST(ExperimentTest, SetExactButHeavy) {
  auto cfg = SmallConfig(StrategyKind::kSet, EngineKind::kObliDb);
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  for (const auto& q : r->queries) EXPECT_DOUBLE_EQ(q.mean_l1, 0.0) << q.name;
  // SET outsources one record per tick per table (~2 * horizon posts, of
  // which the real stream covers less than half): more than a full horizon
  // of pure padding at either trace scale.
  EXPECT_GT(r->dummy_synced, cfg.yellow.horizon_minutes);
}

TEST(ExperimentTest, DpStrategiesBoundedError) {
  for (auto kind : {StrategyKind::kDpTimer, StrategyKind::kDpAnt}) {
    auto r = RunExperiment(SmallConfig(kind, EngineKind::kObliDb));
    ASSERT_TRUE(r.ok());
    // Bounded error: max well below OTO-scale; no error accumulation.
    EXPECT_LT(r->queries[0].max_l1, 120.0) << r->strategy_name;
    EXPECT_LT(r->queries[1].max_l1, 200.0) << r->strategy_name;
    // Performance within a modest overhead of the data actually received.
    // (DP-ANT at eps=0.5 fires spuriously on SVT noise — §8.2 Obs. 4 — so
    // its dummy volume is larger than DP-Timer's but still SET-dominated:
    // SET would post ~2*horizon = 14400 dummies here.)
    EXPECT_LT(r->dummy_synced, 2 * r->real_synced) << r->strategy_name;
  }
}

TEST(ExperimentTest, DpErrorsMuchSmallerThanOto) {
  auto oto = RunExperiment(SmallConfig(StrategyKind::kOto, EngineKind::kObliDb));
  auto timer =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(oto.ok());
  ASSERT_TRUE(timer.ok());
  EXPECT_GT(oto->queries[1].mean_l1, timer->queries[1].mean_l1 * 20);
}

TEST(ExperimentTest, SetOutsourcesFarMoreThanDp) {
  auto set = RunExperiment(SmallConfig(StrategyKind::kSet, EngineKind::kObliDb));
  auto timer =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(timer.ok());
  EXPECT_GT(set->final_total_mb, timer->final_total_mb * 1.5);
  // ... and pays for it in QET (virtual, cost-model-driven).
  EXPECT_GT(set->queries[1].mean_qet, timer->queries[1].mean_qet * 1.5);
}

TEST(ExperimentTest, DpCloseToSurInData) {
  auto sur = RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kObliDb));
  auto timer =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(sur.ok());
  ASSERT_TRUE(timer.ok());
  // Paper: DP total data within a few percent of SUR (here: within 25% on
  // the small trace, where flush dummies weigh relatively more).
  EXPECT_LT(timer->final_total_mb, sur->final_total_mb * 1.25);
}

TEST(ExperimentTest, CryptEpsNoisyButBounded) {
  auto r =
      RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kCryptEps));
  ASSERT_TRUE(r.ok());
  // Q1 noise is Lap(1/3): tiny but nonzero.
  EXPECT_GT(r->queries[0].mean_l1, 0.0);
  EXPECT_LT(r->queries[0].mean_l1, 5.0);
}

TEST(ExperimentTest, CryptEpsSkipsJoinQueries) {
  auto cfg = SmallConfig(StrategyKind::kSur, EngineKind::kCryptEps);
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  // Q3 was filtered out: only Q1/Q2 collected.
  EXPECT_EQ(r->queries.size(), 2u);
}

TEST(ExperimentTest, JoinErrorsTrackGapOnObliDb) {
  auto r =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->queries.size(), 3u);
  EXPECT_EQ(r->queries[2].name, "Q3");
  EXPECT_GT(r->queries[2].l1_error.value.size(), 0u);
  EXPECT_LT(r->queries[2].max_l1, 300.0);
}

TEST(ExperimentTest, DeterministicInSeed) {
  auto cfg = SmallConfig(StrategyKind::kDpAnt, EngineKind::kObliDb);
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->queries[0].mean_l1, b->queries[0].mean_l1);
  EXPECT_EQ(a->final_total_mb, b->final_total_mb);
}

TEST(ExperimentTest, SeedChangesOutcome) {
  auto cfg = SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb);
  auto a = RunExperiment(cfg);
  cfg.seed = 12345;
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Some individual metric can coincide by chance on a small trace (Q1's
  // range filter often reports zero error under both seeds); the joint
  // outcome must differ.
  EXPECT_TRUE(a->queries[1].mean_l1 != b->queries[1].mean_l1 ||
              a->final_total_mb != b->final_total_mb ||
              a->dummy_synced != b->dummy_synced);
}

TEST(ExperimentTest, DpStrategyParamsOutOfRangeAreRejected) {
  using Mutate = void (*)(StrategyParams&);
  const std::pair<StrategyKind, Mutate> cases[] = {
      {StrategyKind::kDpTimer, [](StrategyParams& p) { p.timer_period = 0; }},
      {StrategyKind::kDpTimer, [](StrategyParams& p) { p.epsilon = 0; }},
      {StrategyKind::kDpTimer, [](StrategyParams& p) { p.epsilon = -1; }},
      {StrategyKind::kDpAnt, [](StrategyParams& p) { p.epsilon = NAN; }},
      {StrategyKind::kDpAnt, [](StrategyParams& p) { p.ant_threshold = 0; }},
      {StrategyKind::kDpAnt,
       [](StrategyParams& p) { p.ant_budget_split = 1; }},
  };
  for (const auto& [kind, mutate] : cases) {
    auto cfg = SmallConfig(kind, EngineKind::kObliDb);
    mutate(cfg.params);
    EXPECT_EQ(RunExperiment(cfg).status().code(),
              StatusCode::kInvalidArgument)
        << StrategyKindName(kind);
  }
  // The baselines never read epsilon, so it is not checked for them.
  auto oto = SmallConfig(StrategyKind::kOto, EngineKind::kObliDb);
  oto.params.epsilon = 0;
  EXPECT_TRUE(RunExperiment(oto).ok());
}

TEST(ExperimentTest, InitialDatabaseSupported) {
  auto cfg = SmallConfig(StrategyKind::kSur, EngineKind::kObliDb);
  cfg.initial_db_size = 100;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->queries[0].mean_l1, 0.0);
}

// ------------------------------------------- Storage backends & sharding

/// Everything the experiment reports, flattened for exact comparison.
std::vector<double> MetricVector(const ExperimentResult& r) {
  std::vector<double> v;
  for (const auto& q : r.queries) {
    v.push_back(q.mean_l1);
    v.push_back(q.max_l1);
    v.push_back(q.mean_qet);
    v.insert(v.end(), q.l1_error.value.begin(), q.l1_error.value.end());
    v.insert(v.end(), q.qet.value.begin(), q.qet.value.end());
  }
  v.insert(v.end(), r.logical_gap.value.begin(), r.logical_gap.value.end());
  v.insert(v.end(), r.total_mb.value.begin(), r.total_mb.value.end());
  v.insert(v.end(), r.dummy_mb.value.begin(), r.dummy_mb.value.end());
  v.push_back(r.mean_logical_gap);
  v.push_back(r.final_total_mb);
  v.push_back(r.final_dummy_mb);
  v.push_back(static_cast<double>(r.real_synced));
  v.push_back(static_cast<double>(r.dummy_synced));
  v.push_back(static_cast<double>(r.updates_posted));
  return v;
}

TEST(ExperimentTest, MetricsInvariantAcrossBackendsAndShardCounts) {
  // The acceptance bar for the storage-spine, per-shard ORAM, Query API
  // v2, epoch-snapshot and materialized-view refactors: both engines,
  // both backends, both storage methods (linear and ORAM-indexed on
  // ObliDB) and shard counts {1, 4} — every reported metric bit-identical
  // to the single-shard in-memory baseline at the same seed. Linear
  // variants answer Q1/Q2 from materialized views and Q3 from two pinned
  // snapshots, indexed variants pay the ORAM touches and scan or join
  // pinned snapshots for all three, so this also proves the view answers
  // (on Crypt-eps the Laplace noise stream is part of the compared
  // series) identical to the oblivious scans across engines x backends x
  // shard counts. (View answers vs unprepared snapshot scans are compared
  // by view_test, Execute vs Submit/Wait by concurrency_test and edb_test,
  // and the scan kernel's two loops cell for cell by executor_test and
  // property_test's VectorizedDeterminismTest.) Physical storage placement, the oblivious
  // index and the execution path must all be unobservable in the
  // simulation's outputs; only the ORAM health block may differ.
  struct Variant {
    edb::StorageBackendKind backend;
    int num_shards;
  };
  const Variant variants[] = {
      {edb::StorageBackendKind::kInMemory, 1},
      {edb::StorageBackendKind::kInMemory, 4},
      {edb::StorageBackendKind::kSegmentLog, 1},
      {edb::StorageBackendKind::kSegmentLog, 4},
  };
  for (auto engine : {EngineKind::kObliDb, EngineKind::kCryptEps}) {
    for (bool indexed : {false, true}) {
      if (indexed && engine == EngineKind::kCryptEps) continue;
      auto base_cfg = SmallConfig(StrategyKind::kDpTimer, engine);
      base_cfg.yellow.horizon_minutes = 720;
      base_cfg.yellow.target_records = 350;
      base_cfg.green.horizon_minutes = 720;
      base_cfg.green.target_records = 400;
      base_cfg.params.flush_interval = 180;
      base_cfg.size_sample_interval = 90;
      base_cfg.use_oram_index = indexed;
      base_cfg.oram_capacity = 4096;  // small trees keep the sweep fast
      // Tight schedules so Q1/Q2 (and Q3's join path on ObliDB) all fire
      // several times inside the short horizon.
      for (auto& q : base_cfg.queries) {
        q.interval = (q.name == "Q3") ? 360 : 90;
      }
      auto baseline = RunExperiment(base_cfg);
      ASSERT_TRUE(baseline.ok()) << EngineKindName(engine);
      auto expect = MetricVector(baseline.value());
      ASSERT_FALSE(expect.empty());
      EXPECT_EQ(baseline->oram.enabled, indexed);
      for (const auto& variant : variants) {
        auto cfg = base_cfg;
        cfg.backend = variant.backend;
        cfg.num_shards = variant.num_shards;
        auto r = RunExperiment(cfg);
        ASSERT_TRUE(r.ok())
            << EngineKindName(engine) << " "
            << edb::StorageBackendKindName(variant.backend) << " x"
            << variant.num_shards << (indexed ? " indexed" : " linear");
        auto got = MetricVector(r.value());
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expect[i])
              << EngineKindName(engine) << " "
              << edb::StorageBackendKindName(variant.backend) << " x"
              << variant.num_shards << (indexed ? " indexed" : " linear")
              << " metric index " << i;
        }
        // The ORAM did real per-shard work without perturbing any metric
        // (and the view path never short-circuits an indexed scan — every
        // oblivious touch still happens).
        EXPECT_EQ(r->oram.enabled, indexed);
        if (indexed) {
          EXPECT_EQ(r->oram.shard_access_counts.size(),
                    static_cast<size_t>(variant.num_shards));
          EXPECT_EQ(r->oram.access_count, baseline->oram.access_count);
          EXPECT_GT(r->oram.access_count, 0);
        }
        // Session sweeps prepare each scheduled query exactly once and
        // execute cached plans from then on.
        EXPECT_EQ(r->server_stats.plan_cache_hits, 0);
        EXPECT_EQ(r->server_stats.prepares,
                  static_cast<int64_t>(r->queries.size()));
        EXPECT_EQ(r->server_stats.plan_rebinds, 0);
        EXPECT_GT(r->server_stats.queries_executed, 0);
        // The variants really did take the paths they claim: indexed-mode
        // plans are view-ineligible, so each of Q1's and Q2's 8 executions
        // (every 90 of 720 minutes) is a snapshot scan, while on linear
        // tables every eligible execution is an O(1) view hit fed by
        // per-flush delta folds, so the snapshot scan layer stays quiet.
        EXPECT_EQ(r->server_stats.snapshot_scans, indexed ? 16 : 0);
        if (indexed) {
          EXPECT_EQ(r->server_stats.view_hits, 0);
          EXPECT_EQ(r->server_stats.view_folds, 0);
        } else {
          EXPECT_GT(r->server_stats.view_hits, 0);
          EXPECT_GT(r->server_stats.view_folds, 0);
        }
      }
    }
  }
}

TEST(ExperimentTest, UpdatePatternExposedForAnalysis) {
  auto r = RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->yellow_pattern.num_updates(), 100);
}

// ------------------------------------------------------------- Adversary

TEST(AdversaryTest, TimingAttackPerfectAgainstSur) {
  auto r = RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  auto trace = workload::GenerateTaxiTrace(
      SmallConfig(StrategyKind::kSur, EngineKind::kObliDb).yellow);
  auto report = RunTimingAttack(r->yellow_pattern, trace.ArrivalBits());
  // SUR uploads at exactly the arrival ticks: the attack is perfect.
  EXPECT_DOUBLE_EQ(report.precision, 1.0);
  EXPECT_DOUBLE_EQ(report.recall, 1.0);
  EXPECT_DOUBLE_EQ(report.per_tick_accuracy, 1.0);
}

TEST(AdversaryTest, TimingAttackDefeatedByDpTimer) {
  auto r =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(r.ok());
  auto trace = workload::GenerateTaxiTrace(
      SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb).yellow);
  auto report = RunTimingAttack(r->yellow_pattern, trace.ArrivalBits());
  // Updates land on the fixed T-grid with noisy volumes: per-tick recall
  // collapses (the adversary can only point at schedule ticks).
  EXPECT_LT(report.recall, 0.25);
}

TEST(AdversaryTest, WindowCountsNoisyUnderDp) {
  auto sur = RunExperiment(SmallConfig(StrategyKind::kSur, EngineKind::kObliDb));
  auto timer =
      RunExperiment(SmallConfig(StrategyKind::kDpTimer, EngineKind::kObliDb));
  ASSERT_TRUE(sur.ok());
  ASSERT_TRUE(timer.ok());
  auto trace = workload::GenerateTaxiTrace(
      SmallConfig(StrategyKind::kSur, EngineKind::kObliDb).yellow);
  auto bits = trace.ArrivalBits();
  // SUR reveals per-window counts exactly; DP-Timer's are noisy.
  EXPECT_DOUBLE_EQ(WindowCountError(sur->yellow_pattern, bits, 30), 0.0);
  EXPECT_GT(WindowCountError(timer->yellow_pattern, bits, 30), 0.2);
}

TEST(AdversaryTest, SetPatternIsDataIndependent) {
  auto cfg = SmallConfig(StrategyKind::kSet, EngineKind::kObliDb);
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  // Every tick posts volume exactly 1 — nothing about the data shows.
  for (const auto& e : r->yellow_pattern.events()) {
    if (e.t == 0) continue;
    EXPECT_EQ(e.volume, 1);
  }
}

}  // namespace
}  // namespace dpsync::sim
