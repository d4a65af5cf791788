// Materialized aggregate views over CommitEpoch deltas (edb/view.h):
// registration + per-flush delta folds through the store seam, the
// Reopen invalidate-and-rebuild-lazily contract (reopen mid-dashboard,
// pinned snapshots surviving a restart while views rebuild), RowChunk's
// append-past-capacity refusal, and engine-level bit-identity of the O(1)
// view path against the same plans run unprepared (snapshot scans) — on
// ObliDB for exact answers, on Crypt-eps for the full Laplace noise
// stream, and with fractional sums the view must leave to the scan. The
// racing case (owner flush-folds vs analyst view answers) is part of the
// CI TSan job's regex.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edb/crypte_engine.h"
#include "edb/encrypted_table.h"
#include "edb/oblidb_engine.h"
#include "edb/snapshot.h"
#include "edb/view.h"
#include "query/parser.h"
#include "query/plan.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

using testutil::Trip;
using workload::TripSchema;

/// Plans `sql` against the trip schema the way a server Prepare would
/// (every table resolves to TripSchema; catalog epoch 0).
std::shared_ptr<const query::QueryPlan> PlanFor(const std::string& sql) {
  auto parsed = query::ParseSelect(sql);
  EXPECT_OK(parsed);
  static const query::Schema schema = TripSchema();
  auto plan = query::PlanSelect(
      parsed.value(),
      [](const std::string&) -> const query::Schema* { return &schema; },
      query::PlannerOptions{});
  EXPECT_OK(plan);
  return plan.value();
}

/// Runs `sql` either prepared — Prepare registers the view, which answers
/// while it is current — or unprepared, which takes the snapshot scan.
/// The unprepared run is the reference the view identity tests compare
/// against, on a separate same-seed server.
StatusOr<QueryResponse> RunQuery(EdbServer& server, QuerySession& session,
                                 const std::string& sql, bool prepare) {
  if (!prepare) return testutil::ExecuteUnprepared(server, sql);
  auto q = session.Prepare(sql);
  if (!q.ok()) return q.status();
  return session.Execute(q.value());
}

// ------------------------------------------------------ RowChunk hardening

TEST(RowChunkTest, AppendPastCapacityIsRefused) {
  // The address-stability invariant every pinned SnapshotView rides on:
  // a chunk never reallocates, so an append past the reservation must be
  // refused loudly instead of silently dangling outstanding spans.
  RowChunk chunk(2);
  ASSERT_OK(chunk.Append(query::Row{}));
  ASSERT_FALSE(chunk.full());
  ASSERT_OK(chunk.Append(query::Row{}));
  EXPECT_TRUE(chunk.full());
  EXPECT_EQ(chunk.capacity(), 2u);

  const query::Row* stable = chunk.rows.data();
  auto st = chunk.Append(query::Row{});
  EXPECT_NOT_OK(st);
  EXPECT_EQ(chunk.rows.size(), 2u);       // the chunk was left untouched
  EXPECT_EQ(chunk.rows.data(), stable);   // and never reallocated
}

// ---------------------------------------------------------- eligibility

TEST(ViewEligibilityTest, OnlyAppendFoldableAggregatesQualify) {
  // COUNT/SUM/AVG fold as pure (count, sum) monoids under appends —
  // filtered and grouped variants included.
  EXPECT_TRUE(query::PlanIsViewEligible(
      *PlanFor("SELECT COUNT(*) FROM YellowCab")));
  EXPECT_TRUE(query::PlanIsViewEligible(*PlanFor(
      "SELECT SUM(fare) FROM YellowCab WHERE pickupID BETWEEN 1 AND 3")));
  EXPECT_TRUE(query::PlanIsViewEligible(*PlanFor(
      "SELECT pickupID, AVG(fare) FROM YellowCab GROUP BY pickupID")));
  // MIN/MAX would bake append-only-forever into view state; joins are not
  // single-table scans.
  EXPECT_FALSE(query::PlanIsViewEligible(
      *PlanFor("SELECT MIN(fare) FROM YellowCab")));
  EXPECT_FALSE(query::PlanIsViewEligible(
      *PlanFor("SELECT MAX(fare) FROM YellowCab")));
  EXPECT_FALSE(query::PlanIsViewEligible(*PlanFor(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime")));
}

TEST(ViewEligibilityTest, IndexedTablesKeepNoViews) {
  // An eligible plan on an ORAM-indexed table: the store refuses its view,
  // so every execution scans and pays one oblivious path per record.
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 512;
  cfg.storage.num_shards = 2;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(t);
  std::vector<Record> init;
  for (int64_t i = 0; i < 40; ++i) init.push_back(Trip(i, i % 7));
  ASSERT_OK(t.value()->Setup(init));
  auto* table = dynamic_cast<EncryptedTableStore*>(t.value());
  ASSERT_NE(table, nullptr);

  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_TRUE(query::PlanIsViewEligible(*q->plan()));
  EXPECT_EQ(table->RegisterView(PlanFor("SELECT COUNT(*) FROM YellowCab"))
                .code(),
            StatusCode::kFailedPrecondition);
  const int64_t scans_before = server.stats().snapshot_scans;
  for (int run = 0; run < 2; ++run) {
    auto r = session->Execute(q.value());
    ASSERT_OK(r);
    EXPECT_EQ(r->result.scalar, 40.0);
    EXPECT_EQ(r->stats.records_scanned, 40);
    EXPECT_EQ(r->stats.oram_paths, 40);
  }
  EXPECT_EQ(table->registered_views(), 0u);
  EXPECT_EQ(server.stats().view_hits, 0);
  EXPECT_EQ(server.stats().snapshot_scans, scans_before + 2);
}

// ------------------------------------------------- store-level lifecycle

TEST(ViewRegistryTest, FoldsExactlyTheCommittedDeltaPerFlush) {
  StorageConfig cfg;
  cfg.flush_every_update = false;  // manual commit points
  cfg.num_shards = 2;
  EncryptedTableStore store("YellowCab", TripSchema(), Bytes(32, 1), cfg);
  std::atomic<int64_t> folds{0};
  store.set_view_fold_counter(&folds);

  ASSERT_OK(store.Setup({Trip(1, 1), Trip(2, 2)}));
  ASSERT_OK(store.Flush());  // commit point: epoch 1, 2 rows committed

  auto plan = PlanFor("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(store.RegisterView(plan));
  EXPECT_EQ(store.registered_views(), 1u);
  EXPECT_EQ(folds.load(), 1);  // registration warm-folds the prefix
  auto hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.scalar, 2.0);
  EXPECT_EQ(hit->committed_rows, 2);

  // Re-registration is idempotent: no second view, no re-fold.
  ASSERT_OK(store.RegisterView(plan));
  EXPECT_EQ(store.registered_views(), 1u);
  EXPECT_EQ(folds.load(), 1);

  // Appended-but-unflushed rows stay invisible: the epoch is unchanged,
  // the view is still current, and the answer is still the committed 2.
  ASSERT_OK(store.Update({Trip(3, 3)}));
  hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.scalar, 2.0);
  EXPECT_EQ(folds.load(), 1);

  // The flush commits the 1-row delta: exactly one more fold, answer 3.
  ASSERT_OK(store.Flush());
  EXPECT_EQ(folds.load(), 2);
  hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.scalar, 3.0);
  EXPECT_EQ(hit->committed_rows, 3);

  // An idle flush commits nothing and folds nothing.
  ASSERT_OK(store.Flush());
  EXPECT_EQ(folds.load(), 2);

  // A wrong canonical text never answers (fingerprint-collision guard).
  EXPECT_FALSE(store.TryViewAnswer(plan->fingerprint, "SELECT something else")
                   .has_value());
}

TEST(ViewReopenTest, ReopenMidDashboardInvalidatesThenRebuildsLazily) {
  // Reopen advances the CommitEpoch without committing rows: every view
  // invalidates, the dashboard's next Execute falls back to a scan
  // (nullopt here), and the next committing flush rebuilds the state from
  // row zero over the recovered prefix.
  namespace fs = std::filesystem;
  static int counter = 0;
  std::string dir =
      (fs::temp_directory_path() /
       ("dpsync-view-test-" + std::to_string(counter++))).string();
  fs::remove_all(dir);
  StorageConfig cfg;
  cfg.backend = StorageBackendKind::kSegmentLog;
  cfg.dir = dir;
  cfg.num_shards = 2;
  {
    EncryptedTableStore store("YellowCab", TripSchema(), Bytes(32, 1), cfg);
    std::vector<Record> init;
    for (int64_t i = 0; i < 50; ++i) init.push_back(Trip(i, i % 5));
    ASSERT_OK(store.Setup(init));  // auto-flush: committed on return

    auto plan = PlanFor("SELECT SUM(fare) FROM YellowCab");
    ASSERT_OK(store.RegisterView(plan));
    auto hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result.scalar, 50 * 5.0);  // every trip fares 5.0

    ASSERT_OK(store.Reopen());
    // Invalidated, not answering — a dashboard query between the restart
    // and the next flush takes the scan path.
    EXPECT_FALSE(
        store.TryViewAnswer(plan->fingerprint, plan->canonical_text)
            .has_value());
    EXPECT_EQ(store.registered_views(), 1u);  // the registration survives

    // The next committing flush rebuilds from row zero: the answer spans
    // the recovered prefix AND the new delta.
    ASSERT_OK(store.Update({Trip(100, 1)}));
    hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result.scalar, 51 * 5.0);
    EXPECT_EQ(hit->committed_rows, 51);
  }
  fs::remove_all(dir);
}

TEST(ViewReopenTest, PinnedSnapshotStaysStableWhileViewsRebuild) {
  // A reader that pinned a snapshot before the restart keeps scanning
  // pre-restart chunks (it co-owns them) while the view layer goes
  // through its invalidate -> rebuild cycle; afterwards both regimes
  // agree with the recovered table.
  namespace fs = std::filesystem;
  static int counter = 0;
  std::string dir =
      (fs::temp_directory_path() /
       ("dpsync-view-pin-test-" + std::to_string(counter++))).string();
  fs::remove_all(dir);
  StorageConfig cfg;
  cfg.backend = StorageBackendKind::kSegmentLog;
  cfg.dir = dir;
  cfg.num_shards = 2;
  {
    EncryptedTableStore store("YellowCab", TripSchema(), Bytes(32, 1), cfg);
    std::vector<Record> init;
    for (int64_t i = 0; i < 40; ++i) init.push_back(Trip(i, i % 4));
    ASSERT_OK(store.Setup(init));
    auto plan = PlanFor("SELECT COUNT(*) FROM YellowCab");
    ASSERT_OK(store.RegisterView(plan));

    SnapshotView pinned;
    {
      std::lock_guard<std::mutex> lk(store.table_mutex());
      auto snap = store.Snapshot();
      ASSERT_OK(snap);
      pinned = std::move(snap.value());
    }
    ASSERT_EQ(pinned.total_rows, 40);

    ASSERT_OK(store.Reopen());
    ASSERT_OK(store.Update({Trip(50, 1), Trip(51, 2)}));

    // The pinned view still walks exactly the 40 pre-restart rows...
    int64_t pinned_rows = 0;
    for (const auto& span : pinned.spans) {
      pinned_rows += static_cast<int64_t>(span.size);
    }
    EXPECT_EQ(pinned_rows, 40);
    // ...while the rebuilt view answers over the recovered + new prefix.
    auto hit = store.TryViewAnswer(plan->fingerprint, plan->canonical_text);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result.scalar, 42.0);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ engine-level identity

TEST(ViewIdentityTest, ObliDbViewAnswersBitIdenticalToScans) {
  // Same data, same query mix, interleaved appends: answers, committed
  // row counts and virtual QET of prepared plans (view answers) must be
  // bit-identical to the same plans run unprepared (snapshot scans) on a
  // same-seed server — the view path changes wall-clock only.
  const std::vector<std::string> kQueries = {
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 1 AND 4",
      "SELECT SUM(fare) FROM YellowCab",
      "SELECT pickupID, COUNT(*) AS Cnt FROM YellowCab GROUP BY pickupID",
      "SELECT AVG(fare) FROM YellowCab WHERE pickupID BETWEEN 0 AND 3",
  };
  struct Outcome {
    std::string result;
    int64_t scanned;
    double qet;
  };
  auto run = [&](bool prepare, int64_t init_rows) {
    ObliDbConfig cfg;
    cfg.master_seed = 5;
    cfg.storage.num_shards = 2;
    ObliDbServer server(cfg);
    auto t = server.CreateTable("YellowCab", TripSchema());
    EXPECT_TRUE(t.ok());
    std::vector<Record> init;
    for (int64_t i = 0; i < init_rows; ++i) init.push_back(Trip(i, i % 7));
    EXPECT_OK(t.value()->Setup(init));
    auto session = server.CreateSession();
    std::vector<Outcome> outcomes;
    for (int round = 0; round < 4; ++round) {
      for (const auto& sql : kQueries) {
        auto r = RunQuery(server, *session, sql, prepare);
        EXPECT_TRUE(r.ok());
        outcomes.push_back({r->result.ToString(),
                            r->stats.records_scanned,
                            r->stats.virtual_seconds});
      }
      EXPECT_OK(t.value()->Update(
          {Trip(100 + round, round % 7), Trip(200 + round, round % 7)}));
    }
    // Every query here is eligible, so each prepared execution is a view
    // hit and each unprepared one a snapshot scan.
    const auto executions = static_cast<int64_t>(outcomes.size());
    auto stats = server.stats();
    EXPECT_EQ(stats.view_hits, prepare ? executions : 0);
    EXPECT_EQ(stats.snapshot_scans, prepare ? 0 : executions);
    EXPECT_EQ(stats.view_folds > 0, prepare);
    return outcomes;
  };
  // 64 rows fit in one 4,096-row mirror chunk per shard; 10,000 rows over
  // two shards fill more than one, so the views' warm fold and the scans
  // both cross a chunk edge. The larger input replaces the retired view
  // sweep's in-binary check on its multi-chunk tables.
  for (int64_t init_rows : {64, 10000}) {
    auto scanned = run(false, init_rows);
    auto viewed = run(true, init_rows);
    ASSERT_EQ(scanned.size(), viewed.size());
    for (size_t i = 0; i < scanned.size(); ++i) {
      const std::string where =
          kQueries[i % 4] + " over " + std::to_string(init_rows) + " rows";
      EXPECT_EQ(viewed[i].result, scanned[i].result) << where;
      EXPECT_EQ(viewed[i].scanned, scanned[i].scanned) << where;
      EXPECT_EQ(viewed[i].qet, scanned[i].qet) << where;
    }
  }
}

TEST(ViewIdentityTest, CryptEpsNoiseStreamIdenticalPreparedAndUnprepared) {
  // The view path substitutes only the exact aggregate; budget reserve
  // and Laplace release are untouched, so the same seed must produce the
  // bit-identical noisy answer stream whether the plans were prepared
  // (view answers) or not (snapshot scans).
  auto run = [](bool prepare) {
    CryptEpsConfig cfg;
    cfg.master_seed = 11;
    CryptEpsServer server(cfg);
    auto t = server.CreateTable("YellowCab", TripSchema());
    EXPECT_TRUE(t.ok());
    std::vector<Record> init;
    for (int64_t i = 0; i < 64; ++i) init.push_back(Trip(i, i % 7));
    EXPECT_OK(t.value()->Setup(init));
    auto session = server.CreateSession();
    std::vector<std::pair<double, double>> outcomes;  // (answer, qet)
    for (int round = 0; round < 3; ++round) {
      for (const char* sql :
           {"SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 1 AND 4",
            "SELECT SUM(fare) FROM YellowCab"}) {
        auto r = RunQuery(server, *session, sql, prepare);
        EXPECT_TRUE(r.ok());
        outcomes.emplace_back(r->result.scalar, r->stats.virtual_seconds);
      }
      EXPECT_OK(t.value()->Update({Trip(100 + round, round % 7)}));
    }
    auto stats = server.stats();
    if (prepare) {
      EXPECT_GT(stats.view_hits, 0);
      EXPECT_EQ(stats.snapshot_scans, 0);
    } else {
      EXPECT_EQ(stats.view_hits, 0);
      EXPECT_GT(stats.snapshot_scans, 0);
    }
    return outcomes;
  };
  auto scanned = run(false);
  auto viewed = run(true);
  ASSERT_EQ(scanned.size(), viewed.size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    EXPECT_EQ(viewed[i].first, scanned[i].first) << i;    // exact bits,
    EXPECT_EQ(viewed[i].second, scanned[i].second) << i;  // not NEAR
  }
}

TEST(ViewIdentityTest, FractionalSumsAnswerFromScans) {
  // A view adds rows shard-major, one at a time; a scan merges per-span
  // cells. With fractional fares over several shards the two orders round
  // differently, so the view must decline and leave SUM/AVG to the
  // snapshot scan, while COUNT keeps answering from its view.
  auto fare_trip = [](int64_t t) {
    workload::TripRecord trip;
    trip.pick_time = t;
    trip.pickup_id = 1 + t % 5;
    trip.dropoff_id = 1;
    trip.trip_distance = 1.0;
    trip.fare = 2.5 + 0.1 * static_cast<double>(t % 11);  // not dyadic
    return trip.ToRecord();
  };
  const std::vector<std::string> kQueries = {
      "SELECT SUM(fare) FROM YellowCab",
      "SELECT AVG(fare) FROM YellowCab WHERE pickupID >= 2",
      "SELECT pickupID, SUM(fare) FROM YellowCab GROUP BY pickupID",
      "SELECT COUNT(*) FROM YellowCab",
  };
  auto run = [&](bool prepare, ServerStats* stats) {
    ObliDbConfig cfg;
    cfg.storage.num_shards = 4;
    ObliDbServer server(cfg);
    auto t = server.CreateTable("YellowCab", TripSchema());
    EXPECT_TRUE(t.ok());
    std::vector<Record> init;
    for (int64_t i = 0; i < 200; ++i) init.push_back(fare_trip(i));
    EXPECT_OK(t.value()->Setup(init));
    auto session = server.CreateSession();
    std::vector<query::QueryResult> answers;
    for (int round = 0; round < 3; ++round) {
      for (const auto& sql : kQueries) {
        auto r = RunQuery(server, *session, sql, prepare);
        EXPECT_TRUE(r.ok());
        answers.push_back(r->result);
      }
      EXPECT_OK(t.value()->Update({fare_trip(300 + round)}));
    }
    *stats = server.stats();
    return answers;
  };
  ServerStats scan_stats, view_stats;
  auto scanned = run(false, &scan_stats);
  auto viewed = run(true, &view_stats);
  ASSERT_EQ(scanned.size(), viewed.size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    const std::string& sql = kQueries[i % kQueries.size()];
    EXPECT_EQ(std::memcmp(&viewed[i].scalar, &scanned[i].scalar,
                          sizeof(double)),
              0)
        << sql;
    EXPECT_EQ(viewed[i].groups, scanned[i].groups) << sql;
  }
  // Only the COUNT(*) plan answered from its view, once per round.
  EXPECT_EQ(view_stats.view_hits, 3);
  EXPECT_EQ(view_stats.snapshot_scans, 9);
  EXPECT_EQ(scan_stats.view_hits, 0);
}

// ----------------------------------------------------------- concurrency

TEST(ViewConcurrencyTest, ViewAnswersAreCommittedPrefixesUnderRacingAppends) {
  // The TSan case for the view layer: owner appends auto-flush and fold
  // under the table mutex while analysts answer from the view. Every
  // answer must be a committed prefix (== 1 mod 3 given the 1-row Setup)
  // and monotone per analyst — a torn fold or a stale-epoch answer would
  // break one of the two.
  ObliDbConfig cfg;
  cfg.storage.num_shards = 4;
  cfg.admission.max_in_flight = 4;
  cfg.admission.max_queue = 4096;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_OK(t.value()->Setup({Trip(0, 1)}));

  constexpr int kBatches = 60;
  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 1; b <= kBatches; ++b) {
      std::vector<Record> batch = {Trip(b, 1), Trip(b, 2), Trip(b, 3)};
      if (!t.value()->Update(batch).ok()) ++failures;
    }
  });
  std::vector<std::thread> analysts;
  for (int a = 0; a < 3; ++a) {
    analysts.emplace_back([&] {
      auto session = server.CreateSession();
      auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
      if (!q.ok()) {
        ++failures;
        return;
      }
      double last = 0;
      for (int i = 0; i < 20; ++i) {
        auto r = session->Execute(q.value());
        if (!r.ok()) {
          ++failures;
          continue;
        }
        double count = r->result.scalar;
        if (static_cast<int64_t>(count - 1) % 3 != 0) ++failures;
        if (count < last) ++failures;
        last = count;
      }
    });
  }
  owner.join();
  for (auto& th : analysts) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 1.0 + 3.0 * kBatches);
  // The fast path really served the race: every analyst answer was a
  // view hit fed by the owner's per-flush folds.
  EXPECT_GT(server.stats().view_hits, 0);
  EXPECT_GT(server.stats().view_folds, 0);
}

}  // namespace
}  // namespace dpsync::edb
