// Join execution across the lock modes (docs/CONCURRENCY.md,
// docs/ARCHITECTURE.md): parity of answers and deterministic metrics
// between the lock-free linear path and the locked ORAM-indexed path;
// answers independent of the execution mode (Execute, Submit/Wait,
// ExecuteMany); nested-loop vs partitioned-hash identity; NULL and
// cross-type join keys; the poisoned-column scalar fallback; two-snapshot
// visibility (uncommitted tails, racing appends, epoch advance
// mid-batch); and A⋈B vs B⋈A deadlock-freedom. The racing cases are the
// ones the CI TSan job leans on: snapshot joins read two pinned prefixes
// lock-free while the owner keeps appending, and pool tasks run joins
// while the caller runs the same join.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edb/crypte_engine.h"
#include "edb/oblidb_engine.h"
#include "query/schema.h"
#include "query/value.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

using query::Value;
using testutil::Trip;
using workload::TripSchema;

/// Schema-valid record with payload = the serialized row (the stores
/// decode payloads with DeserializeRow and never re-validate against the
/// schema, which is exactly how NULL or wrong-typed cells reach a table).
Record RowRecord(query::Row row, bool dummy = false) {
  Record rec;
  rec.payload = query::SerializeRow(row);
  rec.is_dummy = dummy;
  return rec;
}

/// Trip-schema row with an arbitrary pickTime value (NULL, double, ...).
query::Row TripRowWithKey(Value key, int64_t zone) {
  return query::Row{std::move(key), Value(zone), Value(zone),
                    Value(1.0),     Value(5.0),  Value(int64_t{0})};
}

struct JoinRun {
  query::QueryResult result;
  double virtual_seconds = 0;
  int64_t records_scanned = 0;
  int64_t join_pairs = 0;
  int64_t snapshot_joins = 0;
};

JoinRun ToRun(const QueryResponse& r) {
  JoinRun run;
  run.result = r.result;
  run.virtual_seconds = r.stats.virtual_seconds;
  run.records_scanned = r.stats.records_scanned;
  run.join_pairs = r.stats.join_pairs;
  return run;
}

/// One server, two trip tables, one join execution. `indexed` selects the
/// ORAM-indexed storage method (the locked join path; linear joins run
/// lock-free on two snapshots). `limit` overrides oblivious_join_limit (0
/// forces the hash path for any size).
JoinRun RunTripJoin(const std::string& sql, const std::vector<Record>& left,
                    const std::vector<Record>& right, bool indexed,
                    int64_t limit) {
  ObliDbConfig cfg;
  cfg.use_oram_index = indexed;
  cfg.oblivious_join_limit = limit;
  ObliDbServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  EXPECT_TRUE(yt.ok());
  EXPECT_OK(yt.value()->Setup(left));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  EXPECT_TRUE(gt.ok());
  EXPECT_OK(gt.value()->Setup(right));

  auto session = server.CreateSession();
  auto q = session->Prepare(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto r = session->Execute(q.value());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  JoinRun run = ToRun(r.value());
  run.snapshot_joins = server.stats().snapshot_joins;
  return run;
}

/// Exact result equality — every lock mode and execution mode joins the
/// same spans over one chunk decomposition and merge order, so even the
/// FP sums must be bit-equal.
void ExpectSameRun(const JoinRun& a, const JoinRun& b, const char* what) {
  EXPECT_EQ(a.result.grouped, b.result.grouped) << what;
  EXPECT_EQ(a.result.scalar, b.result.scalar) << what;
  EXPECT_EQ(a.result.groups, b.result.groups) << what;
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds) << what;
  EXPECT_EQ(a.records_scanned, b.records_scanned) << what;
  EXPECT_EQ(a.join_pairs, b.join_pairs) << what;
}

/// Probe/build tables with duplicated keys, dummies and varied numeric
/// attributes — every code path (chains, dummy filter, WHERE, groups).
std::vector<Record> ProbeRows(int64_t n) {
  std::vector<Record> rows;
  for (int64_t i = 0; i < n; ++i) {
    workload::TripRecord t;
    t.pick_time = i % 37;
    t.pickup_id = 1 + i % 11;
    t.dropoff_id = 1 + i % 7;
    t.trip_distance = 0.5 + 0.25 * static_cast<double>(i % 20);
    t.fare = 2.5 + t.trip_distance * 2.5;
    rows.push_back(t.ToRecord());
    if (i % 13 == 0) rows.push_back(Trip(i % 37, 3, /*dummy=*/true));
  }
  return rows;
}

std::vector<Record> BuildRows(int64_t n) {
  std::vector<Record> rows;
  for (int64_t i = 0; i < n; ++i) {
    workload::TripRecord t;
    t.pick_time = i % 41;
    t.pickup_id = 1 + i % 5;
    t.dropoff_id = 1 + i % 3;
    t.trip_distance = 1.0 + 0.5 * static_cast<double>(i % 6);
    t.fare = 4.0 + t.trip_distance;
    rows.push_back(t.ToRecord());
    if (i % 17 == 0) rows.push_back(Trip(i % 41, 2, /*dummy=*/true));
  }
  return rows;
}

const char* kCountSql =
    "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
    "YellowCab.pickTime = GreenTaxi.pickTime";
const char* kSumSql =
    "SELECT SUM(YellowCab.fare) FROM YellowCab INNER JOIN GreenTaxi ON "
    "YellowCab.pickTime = GreenTaxi.pickTime WHERE YellowCab.tripDistance "
    ">= 3";
const char* kGroupSql =
    "SELECT GreenTaxi.pickupID, COUNT(*) AS c FROM YellowCab INNER JOIN "
    "GreenTaxi ON YellowCab.pickTime = GreenTaxi.pickTime GROUP BY "
    "GreenTaxi.pickupID";

// ------------------------------------------------------------ tri-parity

TEST(JoinParityTest, ParityAcrossLockModes) {
  const auto left = ProbeRows(400);
  const auto right = BuildRows(300);
  for (const char* sql : {kCountSql, kSumSql, kGroupSql}) {
    // limit 0 forces the partitioned hash path in both modes.
    JoinRun locked = RunTripJoin(sql, left, right, true, 0);
    JoinRun snapshot = RunTripJoin(sql, left, right, false, 0);
    ExpectSameRun(locked, snapshot, sql);
    // The counter is the mode's signature: 0 on the exclusive indexed
    // path, one per execution on the lock-free linear path.
    EXPECT_EQ(locked.snapshot_joins, 0);
    EXPECT_EQ(snapshot.snapshot_joins, 1);
  }
}

TEST(JoinParityTest, NestedLoopAndHashAgree) {
  // COUNT under the pair limit runs the real oblivious nested loop; with
  // the limit forced to 0 the same query takes the partitioned hash path.
  // Both must produce the same answer AND the same virtual cost (the QET
  // model is shape-dependent, never strategy-dependent).
  const auto left = ProbeRows(120);
  const auto right = BuildRows(90);
  JoinRun nested = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  JoinRun hash = RunTripJoin(kCountSql, left, right, false, 0);
  ExpectSameRun(nested, hash, "nested-loop vs hash");

  // Cross-check against a brute-force count over the logical rows
  // (dummies excluded — Appendix-B rewriting filters them).
  auto keys = [](const std::vector<Record>& recs) {
    std::vector<int64_t> keys;
    for (const auto& r : recs) {
      auto trip = workload::TripRecord::FromRecord(r);
      EXPECT_TRUE(trip.ok());
      if (!trip->is_dummy) keys.push_back(trip->pick_time);
    }
    return keys;
  };
  int64_t expected = 0;
  for (int64_t a : keys(left)) {
    for (int64_t b : keys(right)) expected += (a == b) ? 1 : 0;
  }
  EXPECT_EQ(nested.result.scalar, static_cast<double>(expected));
}

TEST(JoinParityTest, LockModesBitIdenticalAboveScanThreshold) {
  // Big enough to cross the parallel-extraction and parallel-probe
  // thresholds (8192 rows): the FP sums and grouped maps must still be
  // bit-equal between the locked and the lock-free path, because both
  // join the same spans over the same chunk decomposition and merge
  // partials in chunk order.
  const auto left = ProbeRows(9000);
  const auto right = BuildRows(200);
  for (const char* sql : {kSumSql, kGroupSql}) {
    JoinRun locked = RunTripJoin(sql, left, right, true, 0);
    JoinRun snapshot = RunTripJoin(sql, left, right, false, 0);
    ExpectSameRun(locked, snapshot, sql);
  }
}

TEST(JoinModeTest, AnswersIndependentOfExecutionMode) {
  // A pool task's nested ParallelFor collapses to one inline call, so a
  // join that let ParallelFor pick its chunks would fold every probe row
  // into one partial under Submit/ExecuteMany — a different FP merge tree
  // than the synchronous Execute. The join computes its chunk bounds
  // itself, so every mode must return the same bits for sums over
  // doubles.
  // > 8192 probe rows, so the probe fans out; fares that are not dyadic
  // fractions, so a different merge tree changes low-order bits.
  std::vector<Record> left;
  for (int64_t i = 0; i < 9000; ++i) {
    workload::TripRecord t;
    t.pick_time = i % 37;
    t.pickup_id = 1 + i % 11;
    t.dropoff_id = 1 + i % 7;
    t.trip_distance = 0.5 + 0.25 * static_cast<double>(i % 20);
    t.fare = 2.5 + 0.1 * static_cast<double>(i % 23) +
             0.01 * static_cast<double>(i % 7);
    left.push_back(t.ToRecord());
  }
  const auto right = BuildRows(300);
  const char* kAvgSql =
      "SELECT AVG(YellowCab.fare) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime";
  const char* kGroupSumSql =
      "SELECT GreenTaxi.pickupID, SUM(YellowCab.fare) FROM YellowCab INNER "
      "JOIN GreenTaxi ON YellowCab.pickTime = GreenTaxi.pickTime GROUP BY "
      "GreenTaxi.pickupID";
  ObliDbConfig cfg;
  cfg.oblivious_join_limit = 0;
  cfg.admission.max_in_flight = 4;
  cfg.admission.max_queue = 64;
  ObliDbServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup(left));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup(right));
  auto session = server.CreateSession();
  for (const char* sql : {kSumSql, kAvgSql, kGroupSumSql}) {
    auto q = session->Prepare(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto sync = session->Execute(q.value());
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    const JoinRun reference = ToRun(sync.value());

    std::vector<QueryTicket> tickets;
    for (int i = 0; i < 3; ++i) {
      auto ticket = session->Submit(q.value());
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(ticket.value());
    }
    for (const auto& ticket : tickets) {
      auto r = session->Wait(ticket);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameRun(reference, ToRun(r.value()), sql);
    }

    auto many = session->ExecuteMany({q.value(), q.value(), q.value()});
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    for (const auto& r : many.value()) {
      ExpectSameRun(reference, ToRun(r), sql);
    }
  }
}

TEST(JoinParityTest, SelfJoinPinsOneSnapshot) {
  // A self-join captures ONE snapshot under a single lock (scoped_lock
  // would deadlock on the same mutex twice) and joins it with itself.
  const auto rows = ProbeRows(80);
  const char* sql =
      "SELECT COUNT(*) FROM YellowCab INNER JOIN YellowCab ON "
      "YellowCab.pickTime = YellowCab.pickTime";
  ObliDbConfig cfg;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_OK(t.value()->Setup(rows));
  auto session = server.CreateSession();
  auto q = session->Prepare(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::map<int64_t, int64_t> per_key;
  for (const auto& rec : rows) {
    auto trip = workload::TripRecord::FromRecord(rec);
    ASSERT_TRUE(trip.ok());
    if (!trip->is_dummy) ++per_key[trip->pick_time];
  }
  int64_t expected = 0;
  for (const auto& [_, c] : per_key) expected += c * c;
  EXPECT_EQ(r->result.scalar, static_cast<double>(expected));
  EXPECT_EQ(server.stats().snapshot_joins, 1);
}

// ------------------------------------------------------------- join keys

TEST(JoinKeyTest, NullKeysNeverMatch) {
  // SQL semantics: NULL = NULL is not a match. Both the nested loop and
  // the hash extraction drop NULL keys before pairing.
  std::vector<Record> left = {
      RowRecord(TripRowWithKey(Value(int64_t{1}), 1)),
      RowRecord(TripRowWithKey(Value(), 2)),
      RowRecord(TripRowWithKey(Value(int64_t{2}), 3)),
  };
  std::vector<Record> right = {
      RowRecord(TripRowWithKey(Value(), 4)),
      RowRecord(TripRowWithKey(Value(int64_t{1}), 5)),
  };
  JoinRun nested = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  JoinRun hash = RunTripJoin(kCountSql, left, right, false, 0);
  EXPECT_EQ(nested.result.scalar, 1.0);  // only the 1–1 pair
  ExpectSameRun(nested, hash, "NULL keys");
}

TEST(JoinKeyTest, CrossTypeNumericKeysMatch) {
  // An int key column joined against a double key column: the typed fast
  // path cannot apply (declared types differ), and the scalar fallback
  // must honor Value's numeric trichotomy — 2 == 2.0.
  query::Schema lschema({{"k", query::ValueType::kInt},
                         {query::Schema::kDummyColumn,
                          query::ValueType::kInt}});
  query::Schema rschema({{"k", query::ValueType::kDouble},
                         {query::Schema::kDummyColumn,
                          query::ValueType::kInt}});
  auto lrow = [](int64_t k) {
    return RowRecord(query::Row{Value(k), Value(int64_t{0})});
  };
  auto rrow = [](double k) {
    return RowRecord(query::Row{Value(k), Value(int64_t{0})});
  };
  ObliDbConfig cfg;
  cfg.oblivious_join_limit = 0;  // exercise the hash fallback, not the loop
  ObliDbServer server(cfg);
  auto lt = server.CreateTable("L", lschema);
  ASSERT_TRUE(lt.ok());
  ASSERT_OK(lt.value()->Setup({lrow(1), lrow(2), lrow(3)}));
  auto rt = server.CreateTable("R", rschema);
  ASSERT_TRUE(rt.ok());
  ASSERT_OK(rt.value()->Setup({rrow(2.0), rrow(2.5), rrow(3.0)}));

  auto session = server.CreateSession();
  auto q = session->Prepare(
      "SELECT COUNT(*) FROM L INNER JOIN R ON L.k = R.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.scalar, 2.0);  // 2==2.0 and 3==3.0; 2.5 unmatched
}

TEST(JoinKeyTest, PoisonedKeyColumnFallsBackBitIdentical) {
  // One probe row carries a double pickTime in the int-declared column:
  // the columnar mirror poisons that column, the typed int fast path is
  // ineligible, and the scalar fallback must still match 2.0 against the
  // build side's int 2 — with the same answer on the locked indexed path
  // as on the lock-free linear one.
  std::vector<Record> left = ProbeRows(60);
  left.push_back(RowRecord(TripRowWithKey(Value(2.0), 9)));
  const auto right = BuildRows(50);

  JoinRun linear = RunTripJoin(kCountSql, left, right, false, 0);
  JoinRun indexed = RunTripJoin(kCountSql, left, right, true, 0);
  ExpectSameRun(linear, indexed, "poisoned key column");

  // The nested loop (Value-based by construction) is the reference.
  JoinRun nested = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  ExpectSameRun(nested, linear, "poisoned vs nested reference");

  // And the poisoned row really joins: key 2.0 matches int key 2.
  int64_t build_twos = 0;
  for (const auto& rec : right) {
    auto trip = workload::TripRecord::FromRecord(rec);
    ASSERT_TRUE(trip.ok());
    if (!trip->is_dummy && trip->pick_time == 2) ++build_twos;
  }
  ASSERT_GT(build_twos, 0);
  std::vector<Record> without = ProbeRows(60);
  JoinRun baseline = RunTripJoin(kCountSql, without, right, false, 0);
  EXPECT_EQ(linear.result.scalar,
            baseline.result.scalar + static_cast<double>(build_twos));
}

// ------------------------------------------------------------ visibility

TEST(JoinVisibilityTest, UncommittedTailInvisibleToSnapshotJoins) {
  // Manual commit points: Setup appends without flushing, so nothing is
  // committed. The snapshot join pins the committed prefix — here, empty
  // — and its metrics price exactly what it saw.
  ObliDbConfig cfg;
  cfg.storage.flush_every_update = false;
  ObliDbServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup({Trip(1, 1), Trip(2, 2)}));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup({Trip(1, 3), Trip(1, 4)}));
  auto session = server.CreateSession();
  auto q = session->Prepare(kCountSql);
  ASSERT_TRUE(q.ok());
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.scalar, 0.0);
  EXPECT_EQ(r->stats.records_scanned, 0);
  EXPECT_EQ(server.stats().snapshot_joins, 1);
}

TEST(JoinVisibilityTest, RacingAppendsYieldCommittedPrefixJoins) {
  // Owner appends matched batches of 3 to the build side (auto-flush =
  // one commit per batch) while analysts run the join: every answer must
  // be a committed prefix — count ≡ 1 (mod 3) given the 1-row start —
  // and monotone within one analyst (epochs only advance).
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 4;
  cfg.admission.max_queue = 4096;
  ObliDbServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup({Trip(0, 1)}));  // one probe row, key 0
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup({Trip(0, 1)}));  // one committed match

  constexpr int kBatches = 40;
  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 0; b < kBatches; ++b) {
      if (!gt.value()->Update({Trip(0, 1), Trip(0, 2), Trip(0, 3)}).ok()) {
        ++failures;
      }
    }
  });
  std::vector<std::thread> analysts;
  for (int a = 0; a < 3; ++a) {
    analysts.emplace_back([&] {
      auto session = server.CreateSession();
      auto q = session->Prepare(kCountSql);
      if (!q.ok()) {
        ++failures;
        return;
      }
      double last = 0;
      for (int i = 0; i < 15; ++i) {
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
  EXPECT_GT(server.stats().snapshot_joins, 0);

  auto session = server.CreateSession();
  auto q = session->Prepare(kCountSql);
  ASSERT_TRUE(q.ok());
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.scalar, 1.0 + 3.0 * kBatches);
}

TEST(JoinVisibilityTest, EpochAdvancesDuringExecuteMany) {
  // A whole batch of joins fans out while the owner races commits
  // forward: every response lands on some committed prefix, and the
  // fan-out runs through the lock-free join path (counter == batch size).
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 8;
  cfg.admission.max_queue = 4096;
  ObliDbServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup({Trip(0, 1)}));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup({Trip(0, 1)}));

  auto session = server.CreateSession();
  auto q = session->Prepare(kCountSql);
  ASSERT_TRUE(q.ok());
  std::vector<PreparedQuery> batch(16, q.value());

  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 0; b < 30; ++b) {
      if (!gt.value()->Update({Trip(0, 1), Trip(0, 2), Trip(0, 3)}).ok()) {
        ++failures;
      }
    }
  });
  auto responses = session->ExecuteMany(batch);
  owner.join();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), batch.size());
  for (const auto& resp : *responses) {
    EXPECT_EQ(static_cast<int64_t>(resp.result.scalar - 1) % 3, 0)
        << "count " << resp.result.scalar << " is not a committed prefix";
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().snapshot_joins,
            static_cast<int64_t>(batch.size()));
}

// ----------------------------------------------------- deadlock freedom

TEST(JoinConcurrencyTest, OppositeOrderJoinsDontDeadlock) {
  // A⋈B and B⋈A hammered from two threads while the owner appends to
  // both tables. Both the snapshot capture (linear) and the exclusive
  // path (indexed) acquire the two table mutexes via scoped_lock, so
  // neither mode can hang; the suite TIMEOUT is the deadlock detector.
  for (bool indexed : {false, true}) {
    ObliDbConfig cfg;
    cfg.use_oram_index = indexed;
    cfg.admission.max_in_flight = 4;
    cfg.admission.max_queue = 4096;
    ObliDbServer server(cfg);
    auto at = server.CreateTable("A", TripSchema());
    ASSERT_TRUE(at.ok());
    ASSERT_OK(at.value()->Setup({Trip(0, 1), Trip(1, 2)}));
    auto bt = server.CreateTable("B", TripSchema());
    ASSERT_TRUE(bt.ok());
    ASSERT_OK(bt.value()->Setup({Trip(0, 3), Trip(1, 4)}));

    std::atomic<int> failures{0};
    std::thread owner([&] {
      for (int i = 0; i < 25; ++i) {
        if (!at.value()->Update({Trip(i % 3, 1)}).ok()) ++failures;
        if (!bt.value()->Update({Trip(i % 3, 2)}).ok()) ++failures;
      }
    });
    std::vector<std::thread> analysts;
    for (const char* sql :
         {"SELECT COUNT(*) FROM A INNER JOIN B ON A.pickTime = B.pickTime",
          "SELECT COUNT(*) FROM B INNER JOIN A ON B.pickTime = "
          "A.pickTime"}) {
      analysts.emplace_back([&, sql] {
        auto session = server.CreateSession();
        auto q = session->Prepare(sql);
        if (!q.ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < 30; ++i) {
          if (!session->Execute(q.value()).ok()) ++failures;
        }
      });
    }
    owner.join();
    for (auto& th : analysts) th.join();
    EXPECT_EQ(failures.load(), 0) << "indexed=" << indexed;
  }
}

// --------------------------------------------------------- grouped joins

TEST(GroupedJoinTest, SingleKeyGroupedJoinMatchesBruteForce) {
  const auto left = ProbeRows(150);
  const auto right = BuildRows(110);
  JoinRun run = RunTripJoin(kGroupSql, left, right, false, 0);
  ASSERT_TRUE(run.result.grouped);

  // Brute force over the logical rows: group matched pairs by the build
  // side's pickupID (dummies excluded by the Appendix-B rewrite).
  std::vector<std::pair<int64_t, int64_t>> l, r;  // (key, pickupID)
  for (const auto& rec : left) {
    auto t = workload::TripRecord::FromRecord(rec);
    ASSERT_TRUE(t.ok());
    if (!t->is_dummy) l.emplace_back(t->pick_time, t->pickup_id);
  }
  for (const auto& rec : right) {
    auto t = workload::TripRecord::FromRecord(rec);
    ASSERT_TRUE(t.ok());
    if (!t->is_dummy) r.emplace_back(t->pick_time, t->pickup_id);
  }
  std::map<Value, double> expected;
  for (const auto& [lk, _] : l) {
    for (const auto& [rk, rg] : r) {
      if (lk == rk) expected[Value(rg)] += 1.0;
    }
  }
  EXPECT_EQ(run.result.groups, expected);

  // Group key on the probe side binds and answers too.
  const auto probe_grouped = RunTripJoin(
      "SELECT YellowCab.pickupID, COUNT(*) AS c FROM YellowCab INNER JOIN "
      "GreenTaxi ON YellowCab.pickTime = GreenTaxi.pickTime GROUP BY "
      "YellowCab.pickupID",
      left, right, false, 0);
  ASSERT_TRUE(probe_grouped.result.grouped);
  std::map<Value, double> expected_probe;
  for (const auto& [lk, lg] : l) {
    for (const auto& [rk, _] : r) {
      if (lk == rk) expected_probe[Value(lg)] += 1.0;
    }
  }
  EXPECT_EQ(probe_grouped.result.groups, expected_probe);
}

TEST(GroupedJoinTest, GroupKeyBindingErrors) {
  ObliDbServer server{ObliDbConfig{}};
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup({Trip(0, 1)}));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup({Trip(0, 1)}));
  auto session = server.CreateSession();

  // A join's group key evaluates against the joined (table-qualified)
  // schema: bare names do not bind there.
  auto bare = session->Prepare(
      "SELECT pickupID, COUNT(*) AS c FROM YellowCab INNER JOIN GreenTaxi "
      "ON YellowCab.pickTime = GreenTaxi.pickTime GROUP BY pickupID");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().ToString().find("unknown GROUP BY column"),
            std::string::npos)
      << bare.status().ToString();

  // Multi-key grouping stays out of scope, with the same message scans
  // report.
  auto multi = session->Prepare(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime GROUP BY "
      "YellowCab.pickupID, GreenTaxi.pickupID");
  ASSERT_FALSE(multi.ok());
  EXPECT_NE(
      multi.status().ToString().find("GROUP BY supports a single column"),
      std::string::npos)
      << multi.status().ToString();
}

// ------------------------------------------------------------ crypt-eps

TEST(JoinRejectionTest, CryptEpsStillRejectsJoins) {
  // The paper's Crypt-eps has no join operator (§8, footnote 2); the
  // planner must keep rejecting joins with the legacy message, not route
  // them to the new hash path.
  CryptEpsConfig cfg;
  CryptEpsServer server(cfg);
  auto yt = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(yt.ok());
  ASSERT_OK(yt.value()->Setup({Trip(0, 1)}));
  auto gt = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(gt.ok());
  ASSERT_OK(gt.value()->Setup({Trip(0, 1)}));
  auto session = server.CreateSession();
  auto q = session->Prepare(kCountSql);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("does not support join operators"),
            std::string::npos)
      << q.status().ToString();
}

}  // namespace
}  // namespace dpsync::edb
