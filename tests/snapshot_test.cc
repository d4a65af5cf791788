// Visibility and stability edges of the epoch-snapshot layer
// (edb/snapshot.h, docs/CONCURRENCY.md): CommitEpoch advance on flush,
// owner reads-its-own-flush, snapshots pinned to an epoch staying stable
// while owner appends race, epoch advance during a submitted batch, and
// ORAM-indexed scans pinning the committed prefix too. The racing cases
// are the ones the CI TSan job leans on: they read pinned spans — through
// both scan-kernel loops — lock-free while the owner keeps appending.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/naive_strategies.h"
#include "edb/crypte_engine.h"
#include "edb/encrypted_table.h"
#include "edb/oblidb_engine.h"
#include "edb/snapshot.h"
#include "query/executor.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

using testutil::Trip;
using workload::TripSchema;

/// Sum of one numeric column over a pinned view — touches every visible
/// row, which is exactly what must stay safe and stable while appends
/// race (column 1 is pickupID in the trip schema).
double SpanColumnSum(const SnapshotView& view, size_t col) {
  double sum = 0;
  for (const auto& span : view.spans) {
    for (size_t i = 0; i < span.size; ++i) sum += span.data[i][col].AsDouble();
  }
  return sum;
}

int64_t SpanRowCount(const SnapshotView& view) {
  int64_t rows = 0;
  for (const auto& span : view.spans) rows += static_cast<int64_t>(span.size);
  return rows;
}

// ------------------------------------------------- CommitEpoch semantics

TEST(CommitEpochTest, UncommittedTailInvisibleUntilFlush) {
  StorageConfig cfg;
  cfg.flush_every_update = false;  // manual commit points
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), cfg);
  ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20), Trip(3, 30)}));

  // Appended but not flushed: no commit point yet. The store holds the
  // tail; a snapshot does not see it.
  EXPECT_EQ(store.commit_epoch(), 0u);
  EXPECT_EQ(store.committed_rows(), 0);
  EXPECT_EQ(store.outsourced_count(), 3);
  {
    std::lock_guard<std::mutex> lk(store.table_mutex());
    auto snap = store.Snapshot();
    ASSERT_OK(snap);
    EXPECT_EQ(snap->total_rows, 0);
    EXPECT_TRUE(snap->spans.empty());
  }

  // Flush = the commit point: the epoch advances and the records become
  // snapshot-visible.
  ASSERT_OK(store.Flush());
  EXPECT_EQ(store.commit_epoch(), 1u);
  EXPECT_EQ(store.committed_rows(), 3);
  {
    std::lock_guard<std::mutex> lk(store.table_mutex());
    auto snap = store.Snapshot();
    ASSERT_OK(snap);
    EXPECT_EQ(snap->total_rows, 3);
    EXPECT_EQ(snap->epoch, 1u);
  }

  // An idle flush commits nothing new and must NOT advance the epoch
  // (an unchanged epoch is a reader's license to keep reusing a view).
  ASSERT_OK(store.Flush());
  EXPECT_EQ(store.commit_epoch(), 1u);
}

TEST(CommitEpochTest, AutoFlushAdvancesPerUpdate) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  ASSERT_OK(store.Setup({Trip(1, 10)}));
  uint64_t after_setup = store.commit_epoch();
  EXPECT_GE(after_setup, 1u);
  ASSERT_OK(store.Update({Trip(2, 20)}));
  EXPECT_GT(store.commit_epoch(), after_setup);
  EXPECT_EQ(store.committed_rows(), 2);
}

TEST(CommitEpochTest, EngineObservesFlushCommitPoint) {
  // The owner-side engine sees the commit point through the SogdbBackend
  // surface: after a posted update lands, its own flush is readable.
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  DpSyncEngine engine(std::make_unique<SurStrategy>(), &store,
                      testutil::TestDummyFactory(), /*seed=*/7);
  ASSERT_OK(engine.Setup({Trip(1, 10)}));
  uint64_t epoch0 = engine.backend_commit_epoch();
  EXPECT_GE(epoch0, 1u);
  // SUR posts on arrival: the tick both appends and commits.
  ASSERT_OK(engine.Tick(Trip(2, 20)));
  EXPECT_GT(engine.backend_commit_epoch(), epoch0);
  EXPECT_EQ(store.committed_rows(), 2);
}

// --------------------------------------------------- reads-your-own-flush

TEST(SnapshotVisibilityTest, OwnerReadsItsOwnFlushThroughSnapshotScans) {
  ObliDbServer server{ObliDbConfig{}};
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> init;
  for (int64_t i = 0; i < 10; ++i) init.push_back(Trip(i, i));
  ASSERT_OK(t.value()->Setup(init));

  // This test pins the *scan* path: a prepared COUNT(*) would answer from
  // its materialized view and never reach the snapshot layer (view_test
  // covers that route), so the plan runs unprepared.
  const char* sql = "SELECT COUNT(*) FROM YellowCab";
  auto r1 = testutil::ExecuteUnprepared(server, sql);
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->result.scalar, 10.0);

  // The owner's Update auto-flushes; the very next snapshot scan must see
  // it (no stale-epoch window on the same thread).
  uint64_t epoch_before = t.value()->commit_epoch();
  ASSERT_OK(t.value()->Update({Trip(10, 10), Trip(11, 11)}));
  EXPECT_GT(t.value()->commit_epoch(), epoch_before);
  auto r2 = testutil::ExecuteUnprepared(server, sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->result.scalar, 12.0);
  EXPECT_EQ(server.stats().snapshot_scans, 2);
}

// ------------------------------------------------- pinned-view stability

TEST(SnapshotStabilityTest, PinnedViewStableWhileAppendsRace) {
  StorageConfig cfg;
  cfg.num_shards = 4;
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), cfg);
  std::vector<Record> init;
  for (int64_t i = 0; i < 500; ++i) init.push_back(Trip(i, i % 40));
  ASSERT_OK(store.Setup(init));

  SnapshotView pinned;
  {
    std::lock_guard<std::mutex> lk(store.table_mutex());
    auto snap = store.Snapshot();
    ASSERT_OK(snap);
    pinned = std::move(snap.value());
  }
  ASSERT_EQ(pinned.total_rows, 500);
  const double baseline_sum = SpanColumnSum(pinned, 1);

  // Both scan-kernel loops over the same pinned spans — the row loop reads
  // the rows, the columnar loop the column projections — with a filtered
  // grouped query whose answer must not waver either.
  auto grouped = query::ParseSelect(
      "SELECT pickupID, SUM(fare) FROM T WHERE pickupID BETWEEN 5 AND 24 "
      "GROUP BY pickupID");
  ASSERT_OK(grouped);
  query::Table pinned_table;
  pinned_table.name = "T";
  pinned_table.schema = store.schema();
  pinned_table.borrowed_spans = pinned.spans;
  auto kernel_answer = [&](bool vectorized) {
    auto partial =
        query::ExecuteScanPartial(grouped.value(), pinned_table, vectorized);
    return partial.ok() ? std::optional<query::QueryResult>(
                              partial->Finalize())
                        : std::nullopt;
  };
  const auto baseline_answer = kernel_answer(true);
  ASSERT_TRUE(baseline_answer.has_value());
  ASSERT_EQ(baseline_answer->groups.size(), 20u);
  auto matches_baseline = [&](const std::optional<query::QueryResult>& r) {
    return r.has_value() && r->grouped &&
           r->groups == baseline_answer->groups;
  };

  // Owner keeps appending (and auto-committing) while readers re-walk the
  // pinned spans lock-free: row count, content and both loops' answers
  // must never waver, no matter how many epochs advance underneath. This
  // is the TSan case.
  constexpr int kBatches = 100;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 0; b < kBatches; ++b) {
      if (!store.Update({Trip(500 + b, b % 40), Trip(600 + b, b % 40)}).ok()) {
        ++failures;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (SpanRowCount(pinned) != 500) ++failures;
        if (SpanColumnSum(pinned, 1) != baseline_sum) ++failures;
        for (bool vectorized : {false, true}) {
          if (!matches_baseline(kernel_answer(vectorized))) ++failures;
        }
      }
    });
  }
  owner.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent: a fresh snapshot sees everything the owner committed.
  std::lock_guard<std::mutex> lk(store.table_mutex());
  auto now = store.Snapshot();
  ASSERT_OK(now);
  EXPECT_EQ(now->total_rows, 500 + 2 * kBatches);
  EXPECT_GT(now->epoch, pinned.epoch);
}

TEST(SnapshotStabilityTest, ScanAnswersAreCommittedPrefixesUnderRacingAppends) {
  // Server-level version of the pin: owner appends batches of 3 while
  // analysts run COUNT(*). Every answer must be a committed prefix —
  // i.e. ≡ 1 (mod 3) given the 1-record Setup — never a torn mid-batch
  // count. The analysts run the plan unprepared so every execution is a
  // racing snapshot scan rather than a view answer.
  ObliDbConfig cfg;
  cfg.storage.num_shards = 4;
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
      double last = 0;
      for (int i = 0; i < 20; ++i) {
        auto r = testutil::ExecuteUnprepared(server,
                                             "SELECT COUNT(*) FROM YellowCab");
        if (!r.ok()) {
          ++failures;
          continue;
        }
        double count = r->result.scalar;
        // Committed prefix: 1 + 3k. Also monotone within one analyst —
        // epochs only advance.
        if (static_cast<int64_t>(count - 1) % 3 != 0) ++failures;
        if (count < last) ++failures;
        last = count;
      }
    });
  }
  owner.join();
  for (auto& th : analysts) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.stats().snapshot_scans, 0);

  auto r = testutil::ExecuteUnprepared(server, "SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 1.0 + 3.0 * kBatches);
}

TEST(SnapshotStabilityTest, EpochAdvancesDuringSubmittedBatch) {
  // A whole batch executes while the owner races epochs forward: every
  // response lands on some committed prefix, and the fan-out itself runs
  // through the snapshot layer (no per-table serialization). MAX is not
  // view-eligible, so every execution reaches the snapshot layer. Batch b
  // appends pickTime b to zones 1-3 at once, so a committed prefix shows
  // one common per-zone maximum; a torn batch would show two.
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 8;
  cfg.admission.max_queue = 4096;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_OK(t.value()->Setup({Trip(0, 1), Trip(0, 2)}));

  auto session = server.CreateSession();
  auto q = session->Prepare(
      "SELECT pickupID, MAX(pickTime) FROM YellowCab GROUP BY pickupID");
  ASSERT_TRUE(q.ok());
  constexpr int kBatch = 24;

  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 1; b <= 40; ++b) {
      if (!t.value()->Update({Trip(b, 1), Trip(b, 2), Trip(b, 3)}).ok()) {
        ++failures;
      }
    }
  });
  std::vector<StatusOr<QueryTicket>> tickets;
  for (int i = 0; i < kBatch; ++i) {
    tickets.push_back(session->Submit(q.value()));
  }
  std::vector<StatusOr<QueryResponse>> responses;
  for (const auto& ticket : tickets) {
    if (ticket.ok()) responses.push_back(session->Wait(ticket.value()));
  }
  owner.join();
  for (const auto& ticket : tickets) ASSERT_TRUE(ticket.ok());
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto& groups = r->result.groups;
    ASSERT_FALSE(groups.empty());
    const double latest = groups.begin()->second;
    const size_t zones = latest == 0 ? 2u : 3u;
    EXPECT_EQ(groups.size(), zones) << r->result.ToString();
    for (const auto& [zone, max_time] : groups) {
      EXPECT_EQ(max_time, latest)
          << r->result.ToString() << " is not a committed prefix";
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().snapshot_scans, kBatch);
}

// ---------------------------------------------- both storage methods

TEST(SnapshotRoutingTest, IndexedScansPinTheCommittedPrefix) {
  // Under manual commit points both storage methods read only what the
  // last Flush committed. An indexed capture still touches every mirrored
  // record, committed or not, because each touch rewrites its tree. The
  // owner appends the uncommitted tail while analysts scan: the race the
  // CI TSan job checks. The plans run unprepared, so linear executions
  // scan too instead of answering from a view.
  for (bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "linear");
    ObliDbConfig cfg;
    cfg.use_oram_index = indexed;
    cfg.oram_capacity = 4096;
    cfg.storage.num_shards = 4;
    cfg.storage.flush_every_update = false;
    ObliDbServer server(cfg);
    auto t = server.CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    auto* table = static_cast<EncryptedTableStore*>(t.value());
    std::vector<Record> init;
    for (int64_t i = 0; i < 40; ++i) init.push_back(Trip(i, i % 10));
    ASSERT_OK(table->Setup(init));
    ASSERT_OK(table->Flush());

    const char* sql = "SELECT COUNT(*) FROM YellowCab";
    std::atomic<int> failures{0};
    std::thread owner([&] {
      for (int64_t b = 0; b < 3; ++b) {
        if (!table->Update({Trip(40 + b, b)}).ok()) ++failures;
      }
    });
    std::vector<std::thread> analysts;
    for (int a = 0; a < 2; ++a) {
      analysts.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          auto r = testutil::ExecuteUnprepared(server, sql);
          if (!r.ok() || r->result.scalar != 40.0 ||
              r->stats.records_scanned != 40) {
            ++failures;
          }
        }
      });
    }
    owner.join();
    for (auto& th : analysts) th.join();
    EXPECT_EQ(failures.load(), 0);

    auto before = testutil::ExecuteUnprepared(server, sql);
    ASSERT_TRUE(before.ok());
    EXPECT_DOUBLE_EQ(before->result.scalar, 40.0);
    EXPECT_EQ(before->stats.records_scanned, 40);
    EXPECT_EQ(before->stats.oram_paths, indexed ? 43 : 0);

    ASSERT_OK(table->Flush());
    auto after = testutil::ExecuteUnprepared(server, sql);
    ASSERT_TRUE(after.ok());
    EXPECT_DOUBLE_EQ(after->result.scalar, 43.0);
    EXPECT_EQ(after->stats.records_scanned, 43);
    EXPECT_EQ(after->stats.oram_paths, indexed ? 43 : 0);
    EXPECT_EQ(server.stats().snapshot_scans, 2 * 10 + 2);
  }
}

// --------------------------------------------------- pinned-view lifetime

TEST(SnapshotIdentityTest, PinnedViewSurvivesReopen) {
  // Reopen drops the mirrors, but a pinned view co-owns its chunks: a
  // reader that started before the restart finishes on pre-restart data.
  namespace fs = std::filesystem;
  static int counter = 0;
  std::string dir =
      (fs::temp_directory_path() /
       ("dpsync-snapshot-test-" + std::to_string(counter++))).string();
  fs::remove_all(dir);
  StorageConfig cfg;
  cfg.backend = StorageBackendKind::kSegmentLog;
  cfg.dir = dir;
  cfg.num_shards = 2;
  {
    EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), cfg);
    std::vector<Record> init;
    for (int64_t i = 0; i < 50; ++i) init.push_back(Trip(i, i % 5));
    ASSERT_OK(store.Setup(init));

    SnapshotView pinned;
    uint64_t epoch_before;
    {
      std::lock_guard<std::mutex> lk(store.table_mutex());
      auto snap = store.Snapshot();
      ASSERT_OK(snap);
      pinned = std::move(snap.value());
      epoch_before = store.commit_epoch();
    }
    double sum = SpanColumnSum(pinned, 1);

    ASSERT_OK(store.Reopen());
    EXPECT_GT(store.commit_epoch(), epoch_before);  // visibility regime changed
    EXPECT_EQ(SpanRowCount(pinned), 50);            // pinned data intact
    EXPECT_EQ(SpanColumnSum(pinned, 1), sum);

    std::lock_guard<std::mutex> lk(store.table_mutex());
    auto fresh = store.Snapshot();
    ASSERT_OK(fresh);
    EXPECT_EQ(fresh->total_rows, 50);  // recovered prefix is committed
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dpsync::edb
