// Tests for the core framework: local cache, sync strategies, flush
// policy, strategy factory, and the DpSyncEngine driving a recording
// backend.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/dp_ant.h"
#include "core/dp_timer.h"
#include "core/engine.h"
#include "core/flush_policy.h"
#include "core/local_cache.h"
#include "core/naive_strategies.h"
#include "core/strategy_factory.h"
#include "test_util.h"

namespace dpsync {
namespace {

using testutil::MakeRecord;
using testutil::RecordingBackend;
using testutil::TestDummyFactory;

// ------------------------------------------------------------ LocalCache

TEST(LocalCacheTest, FifoOrderPreserved) {
  LocalCache cache(TestDummyFactory());
  for (int i = 0; i < 5; ++i) cache.Write(MakeRecord(i));
  auto out = cache.Read(5);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].payload[0], i);
  }
}

TEST(LocalCacheTest, ShortReadPadsWithDummies) {
  LocalCache cache(TestDummyFactory());
  cache.Write(MakeRecord(1));
  auto out = cache.Read(4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[0].is_dummy);
  for (size_t i = 1; i < 4; ++i) EXPECT_TRUE(out[i].is_dummy);
  EXPECT_EQ(cache.dummies_created(), 3);
}

TEST(LocalCacheTest, NonPositiveReadIsEmpty) {
  LocalCache cache(TestDummyFactory());
  cache.Write(MakeRecord(1));
  EXPECT_TRUE(cache.Read(0).empty());
  EXPECT_TRUE(cache.Read(-5).empty());
  EXPECT_EQ(cache.len(), 1);
}

TEST(LocalCacheTest, PartialReadLeavesRemainder) {
  LocalCache cache(TestDummyFactory());
  for (int i = 0; i < 5; ++i) cache.Write(MakeRecord(i));
  cache.Read(2);
  EXPECT_EQ(cache.len(), 3);
  auto out = cache.Read(1);
  EXPECT_EQ(out[0].payload[0], 2);  // FIFO continues where it left off
}

TEST(LocalCacheTest, PeakLenTracksHighWater) {
  LocalCache cache(TestDummyFactory());
  for (int i = 0; i < 7; ++i) cache.Write(MakeRecord(i));
  cache.Read(6);
  cache.Write(MakeRecord(8));
  EXPECT_EQ(cache.peak_len(), 7);
}

// -------------------------------------------------------- FlushPolicy

TEST(FlushPolicyTest, FiresOnSchedule) {
  FlushPolicy flush(100, 15);
  EXPECT_FALSE(flush.OnTick(99).has_value());
  auto d = flush.OnTick(100);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->fetch_count, 15);
  EXPECT_TRUE(d->is_flush);
  EXPECT_TRUE(flush.OnTick(200).has_value());
}

TEST(FlushPolicyTest, DisabledWhenIntervalNonPositive) {
  FlushPolicy flush(0, 15);
  EXPECT_FALSE(flush.enabled());
  EXPECT_FALSE(flush.OnTick(100).has_value());
}

// ------------------------------------------------------ Naive strategies

TEST(SurStrategyTest, SyncsExactlyOnArrival) {
  SurStrategy sur;
  Rng rng(1);
  EXPECT_TRUE(sur.OnTick(1, 0, &rng).empty());
  auto d = sur.OnTick(2, 1, &rng);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].fetch_count, 1);
  EXPECT_EQ(sur.epsilon(), kNoPrivacy);
  EXPECT_EQ(sur.InitialFetch(10, &rng), 10);
}

TEST(OtoStrategyTest, NeverSyncsAfterSetup) {
  OtoStrategy oto;
  Rng rng(1);
  EXPECT_EQ(oto.InitialFetch(10, &rng), 10);
  for (int t = 1; t < 100; ++t) {
    EXPECT_TRUE(oto.OnTick(t, t % 2 == 0 ? 1 : 0, &rng).empty());
  }
  EXPECT_EQ(oto.epsilon(), 0.0);
}

TEST(SetStrategyTest, SyncsEveryTickRegardlessOfArrivals) {
  SetStrategy set;
  Rng rng(1);
  for (int t = 1; t < 50; ++t) {
    auto d = set.OnTick(t, 0, &rng);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].fetch_count, 1);
  }
  EXPECT_EQ(set.epsilon(), 0.0);
}

// ----------------------------------------------------------- DP-Timer

TEST(DpTimerTest, SyncsOnlyOnPeriodBoundaries) {
  DpTimerConfig cfg;
  cfg.period = 10;
  cfg.flush_interval = 0;
  DpTimerStrategy timer(cfg);
  Rng rng(2);
  for (int t = 1; t <= 100; ++t) {
    auto d = timer.OnTick(t, 1, &rng);
    if (t % 10 != 0) {
      EXPECT_TRUE(d.empty()) << "sync off schedule at t=" << t;
    }
  }
  EXPECT_EQ(timer.sync_count(), 10);
}

TEST(DpTimerTest, NoisyCountTracksWindowArrivals) {
  DpTimerConfig cfg;
  cfg.period = 20;
  cfg.epsilon = 50.0;  // negligible noise
  cfg.flush_interval = 0;
  DpTimerStrategy timer(cfg);
  Rng rng(3);
  int64_t fetched = 0;
  for (int t = 1; t <= 20; ++t) {
    for (const auto& d : timer.OnTick(t, t % 2 == 0 ? 1 : 0, &rng)) {
      fetched += d.fetch_count;
    }
  }
  EXPECT_NEAR(static_cast<double>(fetched), 10.0, 1.0);
}

TEST(DpTimerTest, WindowCounterResetsBetweenSyncs) {
  DpTimerConfig cfg;
  cfg.period = 5;
  cfg.epsilon = 100.0;
  cfg.flush_interval = 0;
  DpTimerStrategy timer(cfg);
  Rng rng(4);
  // 5 arrivals in the first window, none in the second.
  int64_t w1 = 0, w2 = 0;
  for (int t = 1; t <= 5; ++t) {
    for (const auto& d : timer.OnTick(t, 1, &rng)) w1 += d.fetch_count;
  }
  for (int t = 6; t <= 10; ++t) {
    for (const auto& d : timer.OnTick(t, 0, &rng)) w2 += d.fetch_count;
  }
  EXPECT_EQ(w1, 5);
  EXPECT_LE(w2, 1);  // only residual noise (usually 0, never the stale 5)
}

TEST(DpTimerTest, InitialFetchPerturbsSize) {
  DpTimerConfig cfg;
  cfg.epsilon = 0.5;
  DpTimerStrategy timer(cfg);
  Rng rng(5);
  RunningStat s;
  for (int i = 0; i < 5000; ++i) {
    DpTimerStrategy fresh(cfg);
    s.Add(static_cast<double>(fresh.InitialFetch(100, &rng)));
  }
  EXPECT_NEAR(s.mean(), 100.0, 1.0);
  EXPECT_GT(s.stddev(), 1.0);  // noise is present
}

TEST(DpTimerTest, FlushDecisionsCarryFixedSize) {
  DpTimerConfig cfg;
  cfg.period = 30;
  cfg.flush_interval = 50;
  cfg.flush_size = 9;
  DpTimerStrategy timer(cfg);
  Rng rng(6);
  bool saw_flush = false;
  for (int t = 1; t <= 200; ++t) {
    for (const auto& d : timer.OnTick(t, 0, &rng)) {
      if (d.is_flush) {
        EXPECT_EQ(d.fetch_count, 9);
        EXPECT_EQ(t % 50, 0);
        saw_flush = true;
      }
    }
  }
  EXPECT_TRUE(saw_flush);
}

// ------------------------------------------------------------- DP-ANT

TEST(DpAntTest, FiresNearThreshold) {
  DpAntConfig cfg;
  cfg.threshold = 10;
  cfg.epsilon = 20.0;  // low noise: fires close to exactly 10 arrivals
  cfg.flush_interval = 0;
  Rng rng(7);
  DpAntStrategy ant(cfg, &rng);
  int64_t arrivals_before_first_sync = 0;
  for (int t = 1; t <= 1000; ++t) {
    auto d = ant.OnTick(t, 1, &rng);
    ++arrivals_before_first_sync;
    if (!d.empty()) break;
  }
  EXPECT_NEAR(static_cast<double>(arrivals_before_first_sync), 10.0, 4.0);
}

TEST(DpAntTest, NoArrivalsRarelyFires) {
  DpAntConfig cfg;
  cfg.threshold = 50;
  cfg.epsilon = 1.0;
  cfg.flush_interval = 0;
  Rng rng(8);
  DpAntStrategy ant(cfg, &rng);
  int syncs = 0;
  for (int t = 1; t <= 2000; ++t) {
    syncs += !ant.OnTick(t, 0, &rng).empty() ? 1 : 0;
  }
  EXPECT_LT(syncs, 20);
}

TEST(DpAntTest, ThresholdRedrawnAfterSync) {
  DpAntConfig cfg;
  cfg.threshold = 5;
  cfg.epsilon = 10.0;
  cfg.flush_interval = 0;
  Rng rng(9);
  DpAntStrategy ant(cfg, &rng);
  double first = ant.current_noisy_threshold();
  // Force a sync by pushing many arrivals.
  for (int t = 1; t <= 100; ++t) {
    if (!ant.OnTick(t, 1, &rng).empty()) break;
  }
  EXPECT_NE(first, ant.current_noisy_threshold());
}

TEST(DpAntTest, SyncCountGrowsWithArrivalRate) {
  DpAntConfig cfg;
  cfg.threshold = 15;
  cfg.epsilon = 2.0;
  cfg.flush_interval = 0;
  Rng rng1(10), rng2(10);
  DpAntStrategy dense(cfg, &rng1), sparse(cfg, &rng2);
  for (int t = 1; t <= 4000; ++t) {
    dense.OnTick(t, t % 2 == 0 ? 1 : 0, &rng1);
    sparse.OnTick(t, t % 50 == 0 ? 1 : 0, &rng2);
  }
  EXPECT_GT(dense.sync_count(), sparse.sync_count() * 2);
}

TEST(DpAntTest, LowEpsilonFiresMoreOftenThanHighEpsilon) {
  // Observation 4 (paper §8.2): with small epsilon the large SVT noise
  // triggers uploads before enough data accumulates, so update frequency
  // *increases* as epsilon decreases.
  auto updates_posted = [](double epsilon) {
    DpAntConfig cfg;
    cfg.threshold = 25;
    cfg.epsilon = epsilon;
    cfg.flush_interval = 0;
    Rng rng(14);
    DpAntStrategy ant(cfg, &rng);
    int posted = 0;
    for (int t = 1; t <= 4000; ++t) {
      posted += ant.OnTick(t, t % 8 == 0 ? 1 : 0, &rng).empty() ? 0 : 1;
    }
    return posted;
  };
  EXPECT_GT(updates_posted(0.1), updates_posted(10.0) * 2);
}

// ------------------------------------------------------------- Factory

TEST(StrategyFactoryTest, CreatesAllKinds) {
  Rng rng(11);
  StrategyParams params;
  for (StrategyKind kind : kAllStrategies) {
    auto s = MakeStrategy(kind, params, &rng);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), StrategyKindName(kind));
  }
}

TEST(StrategyFactoryTest, ParamsPropagate) {
  Rng rng(12);
  StrategyParams params;
  params.epsilon = 0.25;
  params.timer_period = 77;
  auto s = MakeStrategy(StrategyKind::kDpTimer, params, &rng);
  auto* timer = dynamic_cast<DpTimerStrategy*>(s.get());
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->config().period, 77);
  EXPECT_DOUBLE_EQ(timer->epsilon(), 0.25);
}

// --------------------------------------------------------------- Engine

TEST(EngineTest, TickBeforeSetupFails) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &backend,
                      TestDummyFactory(), 1);
  EXPECT_FALSE(engine.Tick(std::nullopt).ok());
}

TEST(EngineTest, DoubleSetupFails) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &backend,
                      TestDummyFactory(), 1);
  ASSERT_TRUE(engine.Setup({}).ok());
  EXPECT_FALSE(engine.Setup({}).ok());
}

TEST(EngineTest, SurHasZeroLogicalGap) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &backend,
                      TestDummyFactory(), 1);
  ASSERT_TRUE(engine.Setup({MakeRecord(0)}).ok());
  for (int t = 1; t <= 100; ++t) {
    auto arrival = (t % 3 == 0) ? std::optional<Record>(MakeRecord(t))
                                : std::nullopt;
    ASSERT_TRUE(engine.Tick(arrival).ok());
    EXPECT_EQ(engine.logical_gap(), 0);
  }
  EXPECT_EQ(engine.counters().dummy_synced, 0);
}

TEST(EngineTest, SetUploadsExactlyOnePerTick) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<SetStrategy>(), &backend,
                      TestDummyFactory(), 1);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 50; ++t) {
    ASSERT_TRUE(engine.Tick(t % 5 == 0 ? std::optional<Record>(MakeRecord(t))
                                       : std::nullopt)
                    .ok());
  }
  EXPECT_EQ(backend.outsourced_count(), 50);
  // 10 arrivals, 40 dummies.
  EXPECT_EQ(engine.counters().real_synced, 10);
  EXPECT_EQ(engine.counters().dummy_synced, 40);
  EXPECT_EQ(engine.logical_gap(), 0);
}

TEST(EngineTest, OtoGapGrowsWithoutBound) {
  RecordingBackend backend;
  DpSyncEngine engine(std::make_unique<OtoStrategy>(), &backend,
                      TestDummyFactory(), 1);
  ASSERT_TRUE(engine.Setup({MakeRecord(0), MakeRecord(1)}).ok());
  EXPECT_EQ(backend.outsourced_count(), 2);
  for (int t = 1; t <= 30; ++t) {
    ASSERT_TRUE(engine.Tick(MakeRecord(t)).ok());
  }
  EXPECT_EQ(engine.logical_gap(), 30);
  EXPECT_EQ(backend.update_calls(), 0);
}

TEST(EngineTest, UpdatePatternMatchesBackendCalls) {
  RecordingBackend backend;
  DpTimerConfig cfg;
  cfg.period = 10;
  cfg.flush_interval = 0;
  DpSyncEngine engine(std::make_unique<DpTimerStrategy>(cfg), &backend,
                      TestDummyFactory(), 2);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 100; ++t) {
    ASSERT_TRUE(engine.Tick(MakeRecord(t)).ok());
  }
  // Every pattern event beyond setup corresponds to one Update call with
  // matching volume.
  const auto& events = engine.update_pattern().events();
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].t, 0);
  int64_t pattern_volume = 0;
  for (size_t i = 1; i < events.size(); ++i) pattern_volume += events[i].volume;
  EXPECT_EQ(static_cast<int>(events.size()) - 1, backend.update_calls());
  EXPECT_EQ(pattern_volume + events[0].volume, backend.outsourced_count());
}

TEST(EngineTest, FifoOrderReachesBackend) {
  RecordingBackend backend;
  DpTimerConfig cfg;
  cfg.period = 7;
  cfg.epsilon = 100.0;  // ~exact counts
  cfg.flush_interval = 0;
  DpSyncEngine engine(std::make_unique<DpTimerStrategy>(cfg), &backend,
                      TestDummyFactory(), 3);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 70; ++t) {
    ASSERT_TRUE(engine.Tick(MakeRecord(t)).ok());
  }
  // Real records must arrive at the backend in arrival order (P3).
  int64_t last = -1;
  for (const auto& r : backend.received()) {
    if (r.is_dummy) continue;
    int64_t id = r.payload[0] | (static_cast<int64_t>(r.payload[1]) << 8);
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST(EngineTest, EventualConsistencyViaFlush) {
  // After arrivals stop, the flush mechanism must drain the cache: gap -> 0.
  RecordingBackend backend;
  DpTimerConfig cfg;
  cfg.period = 10;
  cfg.epsilon = 0.5;
  cfg.flush_interval = 50;
  cfg.flush_size = 5;
  DpSyncEngine engine(std::make_unique<DpTimerStrategy>(cfg), &backend,
                      TestDummyFactory(), 4);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 100; ++t) {
    ASSERT_TRUE(engine.Tick(MakeRecord(t)).ok());
  }
  int64_t gap_at_stop = engine.logical_gap();
  // No more arrivals; run long enough for flushes to drain the cache.
  for (int t = 101; t <= 100 + 50 * (gap_at_stop / 5 + 2); ++t) {
    ASSERT_TRUE(engine.Tick(std::nullopt).ok());
  }
  EXPECT_EQ(engine.logical_gap(), 0);
}

TEST(EngineTest, CountersAreConsistent) {
  RecordingBackend backend;
  DpAntConfig cfg;
  cfg.threshold = 8;
  cfg.flush_interval = 40;
  cfg.flush_size = 4;
  Rng seed_rng(5);
  DpSyncEngine engine(std::make_unique<DpAntStrategy>(cfg, &seed_rng), &backend,
                      TestDummyFactory(), 5);
  ASSERT_TRUE(engine.Setup({}).ok());
  for (int t = 1; t <= 500; ++t) {
    ASSERT_TRUE(
        engine.Tick(t % 3 == 0 ? std::optional<Record>(MakeRecord(t))
                               : std::nullopt)
            .ok());
  }
  const auto& c = engine.counters();
  EXPECT_EQ(c.received_total, 166);
  EXPECT_EQ(c.real_synced + engine.logical_gap(), c.received_total);
  EXPECT_EQ(backend.outsourced_count(), c.real_synced + c.dummy_synced);
  EXPECT_EQ(engine.update_pattern().total_volume(), backend.outsourced_count());
}

/// Asks for fixed counts: `initial` at Setup and `per_tick` on every tick.
class FixedFetchStrategy : public SyncStrategy {
 public:
  FixedFetchStrategy(int64_t initial, int64_t per_tick)
      : initial_(initial), per_tick_(per_tick) {}
  std::string name() const override { return "fixed-fetch"; }
  double epsilon() const override { return 0.0; }
  int64_t InitialFetch(int64_t, Rng*) override { return initial_; }
  std::vector<SyncDecision> OnTick(int64_t, int64_t, Rng*) override {
    return {SyncDecision{per_tick_, false}};
  }

 private:
  int64_t initial_;
  int64_t per_tick_;
};

TEST(EngineTest, OversizeFetchIsRefusedBeforeReadingTheCache) {
  // A DP count has no upper bound (DP-Timer at eps=1e-12 draws ~10^12);
  // padding it with dummies would exhaust memory, so the engine refuses it.
  {
    RecordingBackend backend;
    DpSyncEngine engine(
        std::make_unique<FixedFetchStrategy>(kMaxFetchPerUpdate + 1, 1),
        &backend, TestDummyFactory(), 1);
    EXPECT_EQ(engine.Setup({MakeRecord(0)}).code(),
              StatusCode::kResourceExhausted);
    EXPECT_TRUE(backend.batch_sizes().empty());
    EXPECT_EQ(engine.cache().len(), 0);
    EXPECT_EQ(engine.counters().initial_size, 0);
    EXPECT_EQ(engine.counters().real_synced, 0);
    EXPECT_EQ(engine.counters().dummy_synced, 0);
    EXPECT_TRUE(engine.update_pattern().events().empty());
  }
  {
    RecordingBackend backend;
    DpSyncEngine engine(
        std::make_unique<FixedFetchStrategy>(0, kMaxFetchPerUpdate + 1),
        &backend, TestDummyFactory(), 1);
    ASSERT_OK(engine.Setup({}));
    EXPECT_EQ(engine.Tick(MakeRecord(1)).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(backend.update_calls(), 0);
    EXPECT_EQ(backend.batch_sizes(), std::vector<int64_t>{0});  // Setup's
    EXPECT_EQ(engine.cache().len(), 1);  // the arrival waits, unread
    EXPECT_EQ(engine.counters().real_synced, 0);
    EXPECT_EQ(engine.counters().dummy_synced, 0);
    EXPECT_EQ(engine.counters().updates_posted, 0);
    EXPECT_EQ(engine.update_pattern().events().size(), 1u);
  }
}

/// A backend whose every Update fails.
class RefusingBackend : public RecordingBackend {
 public:
  Status Update(const std::vector<Record>&) override {
    return Status::Unavailable("update refused");
  }
};

TEST(EngineTest, TickAllTicksEveryEngineAndReportsTheFirstFailure) {
  DpTimerConfig cfg;
  cfg.period = 3;
  cfg.flush_interval = 0;
  RecordingBackend first_backend, last_backend, twin_backend;
  RefusingBackend refusing;
  DpSyncEngine first(std::make_unique<DpTimerStrategy>(cfg), &first_backend,
                     TestDummyFactory(), 7);
  DpSyncEngine middle(std::make_unique<SetStrategy>(), &refusing,
                      TestDummyFactory(), 8);
  DpSyncEngine last(std::make_unique<DpTimerStrategy>(cfg), &last_backend,
                    TestDummyFactory(), 9);
  DpSyncEngine twin(std::make_unique<DpTimerStrategy>(cfg), &twin_backend,
                    TestDummyFactory(), 9);
  for (DpSyncEngine* e : {&first, &middle, &last, &twin}) {
    ASSERT_OK(e->Setup({}));
  }

  for (int64_t t = 1; t <= 12; ++t) {
    std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work;
    work.emplace_back(&first, std::vector<Record>{MakeRecord(t)});
    work.emplace_back(&middle, std::vector<Record>{MakeRecord(t)});
    work.emplace_back(&last, std::vector<Record>{MakeRecord(t), MakeRecord(t)});
    Status st = DpSyncEngine::TickAll(std::move(work));
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_EQ(st.message(), "update refused");
    EXPECT_EQ(first.now(), t);
    EXPECT_EQ(middle.now(), t);
    EXPECT_EQ(last.now(), t);
    ASSERT_OK(twin.TickBatch({MakeRecord(t), MakeRecord(t)}));
  }

  const auto& a = last.counters();
  const auto& b = twin.counters();
  EXPECT_EQ(a.received_total, b.received_total);
  EXPECT_EQ(a.real_synced, b.real_synced);
  EXPECT_EQ(a.dummy_synced, b.dummy_synced);
  EXPECT_EQ(a.updates_posted, b.updates_posted);
  EXPECT_GT(a.updates_posted, 0);
  EXPECT_EQ(last.logical_gap(), twin.logical_gap());
  EXPECT_EQ(last_backend.batch_sizes(), twin_backend.batch_sizes());
}

}  // namespace
}  // namespace dpsync
