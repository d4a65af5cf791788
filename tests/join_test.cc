// Join execution across the storage methods (docs/CONCURRENCY.md,
// docs/ARCHITECTURE.md): parity of answers and deterministic metrics
// between linear and ORAM-indexed tables, which both join two pinned
// snapshots;
// answers independent of the execution mode (Execute, Submit/Wait,
// ExecuteMany); oblivious sort-merge vs partitioned-hash identity, and
// the oblivious join's data-independent access trace; NULL, string,
// cross-type and extreme int join keys; the poisoned-column scalar
// fallback; the one real-row test both kernels read from typed and
// poisoned isDummy columns (each checked against the plaintext
// executor); two-snapshot
// visibility (uncommitted tails, racing appends, epoch advance
// mid-batch); and A⋈B vs B⋈A deadlock-freedom. The racing cases are the
// ones the CI TSan job leans on: snapshot joins read two pinned prefixes
// lock-free while the owner keeps appending, and pool tasks run joins
// while the caller runs the same join.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edb/crypte_engine.h"
#include "edb/oblidb_engine.h"
#include "oram/oblivious_join.h"
#include "query/columnar.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/rewriter.h"
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

/// One server, two trip tables, one join execution per query in `sqls`,
/// in order. `indexed` selects the ORAM-indexed storage method (both
/// methods join two snapshots lock-free; indexed captures also pay the
/// ORAM touches). `limit` overrides oblivious_join_limit (0 forces the
/// hash path for any size). `snapshot_joins` counts the server's joins so
/// far.
std::vector<JoinRun> RunTripJoins(const std::vector<std::string>& sqls,
                                  const std::vector<Record>& left,
                                  const std::vector<Record>& right,
                                  bool indexed, int64_t limit) {
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
  std::vector<JoinRun> runs;
  for (const auto& sql : sqls) {
    auto q = session->Prepare(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto r = session->Execute(q.value());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    runs.push_back(ToRun(r.value()));
    runs.back().snapshot_joins = server.stats().snapshot_joins;
  }
  return runs;
}

JoinRun RunTripJoin(const std::string& sql, const std::vector<Record>& left,
                    const std::vector<Record>& right, bool indexed,
                    int64_t limit) {
  return RunTripJoins({sql}, left, right, indexed, limit)[0];
}

/// Exact result equality — every storage method and execution mode joins the
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

/// The same join over the same rows in the same order as plaintext,
/// through query::Executor and the Appendix-B rewrite the engine applies.
query::QueryResult PlaintextJoin(const std::string& sql,
                                 const std::vector<Record>& left,
                                 const std::vector<Record>& right) {
  auto plain = [](const char* name, const std::vector<Record>& records) {
    query::Table table;
    table.name = name;
    table.schema = TripSchema();
    for (const auto& rec : records) {
      auto row = query::DeserializeRow(rec.payload);
      EXPECT_OK(row);
      table.rows.push_back(std::move(row.value()));
    }
    return table;
  };
  const query::Table lt = plain("YellowCab", left);
  const query::Table rt = plain("GreenTaxi", right);
  query::Catalog catalog;
  catalog.AddTable(&lt);
  catalog.AddTable(&rt);
  auto parsed = query::ParseSelect(sql);
  EXPECT_OK(parsed);
  auto r = query::Executor(&catalog).Execute(
      query::RewriteForDummies(parsed.value()));
  EXPECT_OK(r);
  return r.value();
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
    JoinRun indexed = RunTripJoin(sql, left, right, true, 0);
    JoinRun linear = RunTripJoin(sql, left, right, false, 0);
    ExpectSameRun(indexed, linear, sql);
    // Both storage methods join two pinned snapshots: one per execution.
    EXPECT_EQ(indexed.snapshot_joins, 1);
    EXPECT_EQ(linear.snapshot_joins, 1);
  }
}

TEST(JoinParityTest, ObliviousAndHashAgree) {
  // Ungrouped COUNT under the pair limit runs the oblivious sort-merge
  // join; with the limit forced to 0 the same query takes the partitioned
  // hash path. Both must produce the same answer AND the same metrics (the
  // QET model is shape-dependent, never strategy-dependent) — for
  // COUNT(*), COUNT(col), a predicate on one side, and self-joins, where
  // both dummy conjuncts name the left copy.
  const auto left = ProbeRows(120);
  const auto right = BuildRows(90);
  const char* kCountColSql =
      "SELECT COUNT(GreenTaxi.fare) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime";
  const char* kCountWhereSql =
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime WHERE YellowCab.tripDistance "
      ">= 3";
  const char* kSelfSql =
      "SELECT COUNT(*) FROM YellowCab INNER JOIN YellowCab ON "
      "YellowCab.pickTime = YellowCab.pickTime";
  const char* kSelfWhereSql =
      "SELECT COUNT(*) FROM YellowCab INNER JOIN YellowCab ON "
      "YellowCab.pickTime = YellowCab.pickTime WHERE YellowCab.fare < 5";
  for (const char* sql :
       {kCountSql, kCountColSql, kCountWhereSql, kSelfSql, kSelfWhereSql}) {
    for (bool indexed : {false, true}) {
      JoinRun oblivious = RunTripJoin(sql, left, right, indexed, 4'000'000);
      JoinRun hash = RunTripJoin(sql, left, right, indexed, 0);
      ExpectSameRun(oblivious, hash, sql);
      EXPECT_GT(oblivious.result.scalar, 0.0) << sql;
    }
  }

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
  JoinRun oblivious = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  EXPECT_EQ(oblivious.result.scalar, static_cast<double>(expected));
}

TEST(JoinParityTest, LockModesBitIdenticalAboveScanThreshold) {
  // Big enough to cross the parallel-extraction and parallel-probe
  // thresholds (8192 rows): the FP sums and grouped maps must still be
  // bit-equal between the indexed and the linear storage method, because
  // both join the same spans over the same chunk decomposition and merge
  // partials in chunk order.
  const auto left = ProbeRows(9000);
  const auto right = BuildRows(200);
  for (const char* sql : {kCountSql, kSumSql, kGroupSql}) {
    JoinRun indexed = RunTripJoin(sql, left, right, true, 0);
    JoinRun linear = RunTripJoin(sql, left, right, false, 0);
    ExpectSameRun(indexed, linear, sql);
    // The plaintext oracle and the pricing: the engine's answer equals
    // query::Executor's over the same rows bit for bit, and the cost is
    // charged on every stored row and pair. These replace the retired
    // join sweep's in-binary checks.
    const query::QueryResult expected = PlaintextJoin(sql, left, right);
    EXPECT_EQ(linear.result.grouped, expected.grouped) << sql;
    EXPECT_EQ(linear.result.scalar, expected.scalar) << sql;
    EXPECT_EQ(linear.result.groups, expected.groups) << sql;
    EXPECT_EQ(linear.records_scanned,
              static_cast<int64_t>(left.size() + right.size()));
    EXPECT_EQ(linear.join_pairs,
              static_cast<int64_t>(left.size() * right.size()));
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
  // SQL semantics: NULL = NULL is not a match. The oblivious join clears
  // a NULL-keyed row's filter bit; the hash extraction drops the row.
  std::vector<Record> left = {
      RowRecord(TripRowWithKey(Value(int64_t{1}), 1)),
      RowRecord(TripRowWithKey(Value(), 2)),
      RowRecord(TripRowWithKey(Value(int64_t{2}), 3)),
  };
  std::vector<Record> right = {
      RowRecord(TripRowWithKey(Value(), 4)),
      RowRecord(TripRowWithKey(Value(int64_t{1}), 5)),
  };
  JoinRun oblivious = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  JoinRun hash = RunTripJoin(kCountSql, left, right, false, 0);
  EXPECT_EQ(oblivious.result.scalar, 1.0);  // only the 1–1 pair
  ExpectSameRun(oblivious, hash, "NULL keys");
}

/// COUNT(*) of `L JOIN R ON L.k = R.k` over two-column (k, isDummy)
/// tables, under pair limit `limit`.
JoinRun RunKeyJoin(query::ValueType ltype, const std::vector<Value>& lkeys,
                   query::ValueType rtype, const std::vector<Value>& rkeys,
                   int64_t limit) {
  auto records = [](const std::vector<Value>& keys) {
    std::vector<Record> out;
    for (const auto& k : keys) {
      out.push_back(RowRecord(query::Row{k, Value(int64_t{0})}));
    }
    return out;
  };
  auto schema = [](query::ValueType type) {
    return query::Schema(
        {{"k", type}, {query::Schema::kDummyColumn, query::ValueType::kInt}});
  };
  ObliDbConfig cfg;
  cfg.oblivious_join_limit = limit;
  ObliDbServer server(cfg);
  auto lt = server.CreateTable("L", schema(ltype));
  EXPECT_TRUE(lt.ok());
  EXPECT_OK(lt.value()->Setup(records(lkeys)));
  auto rt = server.CreateTable("R", schema(rtype));
  EXPECT_TRUE(rt.ok());
  EXPECT_OK(rt.value()->Setup(records(rkeys)));
  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM L INNER JOIN R ON L.k = R.k");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto r = session->Execute(q.value());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return ToRun(r.value());
}

TEST(JoinKeyTest, CrossTypeNumericKeysMatch) {
  // An int key column joined against a double key column: the typed int
  // keys cannot apply (declared types differ), and both the oblivious
  // join's Value keys and the hash join's scalar fallback must honor
  // Value's numeric trichotomy — 2 == 2.0.
  const std::vector<Value> lkeys = {Value(int64_t{1}), Value(int64_t{2}),
                                    Value(int64_t{3})};
  const std::vector<Value> rkeys = {Value(2.0), Value(2.5), Value(3.0)};
  JoinRun hash = RunKeyJoin(query::ValueType::kInt, lkeys,
                            query::ValueType::kDouble, rkeys, 0);
  EXPECT_EQ(hash.result.scalar, 2.0);  // 2==2.0 and 3==3.0; 2.5 unmatched
  ExpectSameRun(RunKeyJoin(query::ValueType::kInt, lkeys,
                           query::ValueType::kDouble, rkeys, 4'000'000),
                hash, "cross-type keys");
}

TEST(JoinKeyTest, StringKeysMatchOnBothPaths) {
  // String keys (duplicates, a prefix of another key, the empty string, a
  // NULL) sort and match by Value::Compare on the oblivious path and by
  // the typed string keys on the hash path.
  const std::vector<Value> lkeys = {Value(std::string("bob")),
                                    Value(std::string("al")),
                                    Value(std::string("alice")),
                                    Value(std::string("")),
                                    Value(),
                                    Value(std::string("bob"))};
  const std::vector<Value> rkeys = {Value(std::string("alice")),
                                    Value(std::string("bob")),
                                    Value(std::string("")),
                                    Value(std::string("bob")),
                                    Value(std::string("carol")),
                                    Value()};
  JoinRun hash = RunKeyJoin(query::ValueType::kString, lkeys,
                            query::ValueType::kString, rkeys, 0);
  EXPECT_EQ(hash.result.scalar, 6.0);  // bob 2x2, alice 1, "" 1
  ExpectSameRun(RunKeyJoin(query::ValueType::kString, lkeys,
                           query::ValueType::kString, rkeys, 4'000'000),
                hash, "string keys");
}

TEST(JoinKeyTest, PoisonedKeyColumnFallsBackBitIdentical) {
  // One probe row carries a double pickTime in the int-declared column:
  // the columnar mirror poisons that column, the typed int fast path is
  // ineligible, and the scalar fallback must still match 2.0 against the
  // build side's int 2 — with the same answer on the indexed storage
  // method as on the linear one.
  std::vector<Record> left = ProbeRows(60);
  left.push_back(RowRecord(TripRowWithKey(Value(2.0), 9)));
  const auto right = BuildRows(50);

  JoinRun linear = RunTripJoin(kCountSql, left, right, false, 0);
  JoinRun indexed = RunTripJoin(kCountSql, left, right, true, 0);
  ExpectSameRun(linear, indexed, "poisoned key column");

  // The oblivious path sorts the poisoned side's keys as Values, and the
  // plaintext executor (owned rows carry no columnar projection, so its
  // keys are Values too) is the reference.
  JoinRun oblivious = RunTripJoin(kCountSql, left, right, false, 4'000'000);
  ExpectSameRun(oblivious, linear, "poisoned, oblivious vs hash");
  EXPECT_EQ(oblivious.result.scalar,
            PlaintextJoin(kCountSql, left, right).scalar);

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

TEST(JoinKeyTest, ExtremeIntKeysMatchOnTheirHash) {
  // Typed int keys match on their Mix64 hash alone, which is exact only
  // because Mix64 is a bijection. The extremes and their neighbours, with
  // duplicates on both sides: INT64_MIN 1x1, INT64_MAX 2x1, -1 1x2, 0 2x1,
  // while INT64_MIN + 1 and INT64_MAX - 1 meet nothing. INT64_MAX - 1 and
  // INT64_MAX coerce to the same double, so the plaintext executor's
  // Value keys hash them alike and must still tell them apart.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto rows = [](std::initializer_list<int64_t> keys) {
    std::vector<Record> out;
    int64_t zone = 1;
    for (int64_t k : keys) {
      out.push_back(RowRecord(TripRowWithKey(Value(k), zone++)));
    }
    return out;
  };
  const auto left = rows({kMin, kMax, -1, 0, kMax, 0, kMin + 1});
  const auto right = rows({0, kMin, kMax, -1, -1, kMax - 1, 1});
  const query::QueryResult expected = PlaintextJoin(kCountSql, left, right);
  EXPECT_EQ(expected.scalar, 7.0);
  for (int64_t limit : {int64_t{0}, int64_t{4'000'000}}) {
    EXPECT_EQ(RunTripJoin(kCountSql, left, right, false, limit).result.scalar,
              expected.scalar)
        << "limit " << limit;
  }
  const query::QueryResult grouped = PlaintextJoin(kGroupSql, left, right);
  EXPECT_EQ(RunTripJoin(kGroupSql, left, right, false, 0).result.groups,
            grouped.groups);
}

// --------------------------------------------------------- real-row test

/// Oblivious-path pair limit that admits every test join.
constexpr int64_t kAnyPairs = std::numeric_limits<int64_t>::max();

/// Trip-schema row whose isDummy cell is `dummy`, any Value: NULL, an int
/// other than 0 or 1, a double or a string. Distance 4 passes kSumSql's
/// predicate, so the row also reaches SUM.
query::Row TripRowWithDummy(int64_t key, Value dummy, int64_t zone) {
  return query::Row{Value(key),  Value(zone),
                    Value(zone), Value(4.0),
                    Value(7.5 + static_cast<double>(zone)), std::move(dummy)};
}

/// Runs kCountSql, kSumSql and kGroupSql on the engine's tables under the
/// hash kernel (pair limit 0) and under the default path choice with every
/// pair admitted (the COUNT join then runs the oblivious kernel), and
/// checks each answer against the plaintext executor over the same rows,
/// which evaluates each side's `isDummy = 0` conjunct as Value::Compare
/// does.
void ExpectKernelsMatchPlaintext(const std::vector<Record>& left,
                                 const std::vector<Record>& right) {
  const std::vector<std::string> sqls = {kCountSql, kSumSql, kGroupSql};
  std::vector<query::QueryResult> expected;
  for (const auto& sql : sqls) {
    expected.push_back(PlaintextJoin(sql, left, right));
  }
  for (int64_t limit : {int64_t{0}, kAnyPairs}) {
    const auto runs = RunTripJoins(sqls, left, right, false, limit);
    for (size_t i = 0; i < sqls.size(); ++i) {
      const std::string what = sqls[i] + " @" + std::to_string(limit);
      EXPECT_EQ(runs[i].result.grouped, expected[i].grouped) << what;
      EXPECT_EQ(runs[i].result.scalar, expected[i].scalar) << what;
      EXPECT_EQ(runs[i].result.groups, expected[i].groups) << what;
    }
  }
}

TEST(JoinRealRowTest, RowWithoutDummyCellIsNotReal) {
  // A payload with no isDummy cell: the columnar projection stores the
  // missing cell as NULL, so the row is not real on either kernel. On a
  // self-join both `isDummy = 0` conjuncts resolve to the left copy, and
  // only the right row's own test keeps the short row out: 2 x 2 = 4.
  const query::Schema schema({{"k", query::ValueType::kInt},
                              {query::Schema::kDummyColumn,
                               query::ValueType::kInt}});
  const std::vector<Record> records = {
      RowRecord(query::Row{Value(int64_t{1}), Value(int64_t{0})}),
      RowRecord(query::Row{Value(int64_t{1})}),
      RowRecord(query::Row{Value(int64_t{1}), Value(int64_t{0})}),
  };
  for (int64_t limit : {int64_t{4'000'000}, int64_t{0}}) {
    ObliDbConfig cfg;
    cfg.oblivious_join_limit = limit;
    ObliDbServer server(cfg);
    auto t = server.CreateTable("T", schema);
    ASSERT_TRUE(t.ok());
    ASSERT_OK(t.value()->Setup(records));
    auto session = server.CreateSession();
    auto q =
        session->Prepare("SELECT COUNT(*) FROM T INNER JOIN T ON T.k = T.k");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto r = session->Execute(q.value());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->result.scalar, 4.0) << "limit " << limit;
  }
}

TEST(JoinRealRowTest, TypedDummyCellsMatchPlaintext) {
  // isDummy cells NULL, 2 and -1 keep the int column typed, so both
  // kernels read them from the projection: none of those rows is real.
  // The key-2 rows meet real key-2 rows on the other side.
  std::vector<Record> left = ProbeRows(60);
  std::vector<Record> right = BuildRows(50);
  int64_t zone = 1;
  for (Value cell : {Value(), Value(int64_t{2}), Value(int64_t{-1}),
                     Value(int64_t{0})}) {
    left.push_back(RowRecord(TripRowWithDummy(2, cell, zone++)));
    right.push_back(RowRecord(TripRowWithDummy(2, cell, zone++)));
  }
  ExpectKernelsMatchPlaintext(left, right);
  // Only the isDummy-0 rows joined: dropping the other three changes
  // nothing.
  std::vector<Record> real_left = ProbeRows(60);
  std::vector<Record> real_right = BuildRows(50);
  real_left.push_back(left.back());
  real_right.push_back(right.back());
  EXPECT_EQ(RunTripJoin(kCountSql, left, right, false, 0).result.scalar,
            PlaintextJoin(kCountSql, real_left, real_right).scalar);
}

TEST(JoinRealRowTest, PoisonedDummyColumnReadsRowCells) {
  // A double 0.0 or a string isDummy cell poisons the chunk's int column,
  // so both kernels read that chunk's cells from its rows. As
  // Value::Compare says, 0.0 equals 0 and the row is real; "0" is a
  // string and never equals a number; NULL, 2 and -1 stay not real.
  std::vector<Record> left = ProbeRows(60);
  std::vector<Record> right = BuildRows(50);
  int64_t zone = 1;
  for (Value cell : {Value(0.0), Value(std::string("0")), Value(),
                     Value(int64_t{2}), Value(int64_t{-1})}) {
    left.push_back(RowRecord(TripRowWithDummy(2, cell, zone++)));
    right.push_back(RowRecord(TripRowWithDummy(3, cell, zone++)));
  }
  ExpectKernelsMatchPlaintext(left, right);
  // The 0.0 rows are real: each meets every real row of its key on the
  // other side.
  auto real_with_key = [](const std::vector<Record>& recs, int64_t key) {
    int64_t n = 0;
    for (const auto& rec : recs) {
      auto trip = workload::TripRecord::FromRecord(rec);
      EXPECT_TRUE(trip.ok());
      n += !trip->is_dummy && trip->pick_time == key;
    }
    return n;
  };
  const auto base_left = ProbeRows(60);
  const auto base_right = BuildRows(50);
  const int64_t extra =
      real_with_key(base_right, 2) + real_with_key(base_left, 3);
  ASSERT_GT(extra, 0);
  EXPECT_EQ(RunTripJoin(kCountSql, left, right, false, 0).result.scalar,
            RunTripJoin(kCountSql, base_left, base_right, false, 0)
                    .result.scalar +
                static_cast<double>(extra));
}

TEST(JoinRealRowTest, TypedAndPoisonedChunksMixInOneJoin) {
  // More than two 4096-row chunks per side, past the hash join's 8,192-row
  // parallel thresholds; a double 0.0 isDummy cell in the left side's
  // second chunk poisons that chunk alone. The join then reads typed
  // isDummy columns from the other chunks and row cells from that one,
  // and every chunk holds dummies.
  auto rows = [](int64_t n, int64_t salt) {
    std::vector<Record> out;
    for (int64_t i = 0; i < n; ++i) {
      workload::TripRecord t;
      t.pick_time = (i * 7 + salt) % 4000;
      t.pickup_id = 1 + (i + salt) % 9;
      t.dropoff_id = 1 + i % 5;
      t.trip_distance = 0.5 + 0.25 * static_cast<double>(i % 17);
      t.fare = 2.5 + t.trip_distance * 2.5;
      t.is_dummy = (i + salt) % 5 == 0;
      out.push_back(t.ToRecord());
    }
    return out;
  };
  std::vector<Record> left = rows(9000, 0);
  const std::vector<Record> right = rows(8500, 3);
  left[5000] = RowRecord(TripRowWithDummy(14, Value(0.0), 4));
  ExpectKernelsMatchPlaintext(left, right);
}

// ---------------------------------------------- oblivious join obliviousness

/// A plaintext table over `rows`. With `columnar`, its one span also
/// carries typed column projections, as the engine's borrowed views do, so
/// int join keys take the oblivious join's typed path.
struct PlainTable {
  std::vector<query::Row> rows;
  std::unique_ptr<query::ColumnarBlock> block;
  query::Table table;

  PlainTable(const char* name, std::vector<query::Row> r, bool columnar)
      : rows(std::move(r)) {
    table.name = name;
    table.schema = TripSchema();
    query::RowSpan span{rows.data(), rows.size(), {}};
    if (columnar) {
      block = std::make_unique<query::ColumnarBlock>(table.schema,
                                                     rows.size());
      for (const auto& row : rows) block->Append(row);
      span.columns = block->CaptureSpans(rows.size());
    }
    table.borrowed_spans = {span};
  }
};

/// Random trip rows: keys in [0, key_range) with some NULL, random dummy
/// flags and distances on both sides of the test predicate's 3.0 bound.
std::vector<query::Row> RandomTripRows(size_t n, int64_t key_range,
                                       uint64_t seed) {
  auto rng = testutil::MakeRng(seed);
  std::vector<query::Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Value key = rng.UniformInt(0, 9) == 0
                    ? Value()
                    : Value(rng.UniformInt(0, key_range - 1));
    rows.push_back(query::Row{key, Value(int64_t{1}), Value(int64_t{1}),
                              Value(rng.UniformDouble() * 6.0), Value(5.0),
                              Value::Bool(rng.UniformInt(0, 3) == 0)});
  }
  return rows;
}

TEST(ObliviousJoinTest, AccessTraceIndependentOfData) {
  // Same (n1, n2), different keys, dummy flags, NULL keys and predicate
  // outcomes: the kernel must leave identical access traces — every
  // compare-exchange pair, then every pass step — and count exactly what
  // a brute-force loop over the pairs counts. Both key paths: Values
  // (plain rows) and typed int keys (columnar projections).
  auto parsed = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime WHERE "
      "YellowCab.tripDistance >= 3");
  ASSERT_OK(parsed);
  const query::SelectQuery q = query::RewriteForDummies(parsed.value());
  auto brute_force = [](const std::vector<query::Row>& l,
                        const std::vector<query::Row>& r) {
    int64_t count = 0;
    for (const auto& a : l) {
      for (const auto& b : r) {
        count += !a[0].is_null() && !b[0].is_null() && a[0] == b[0] &&
                 a[3].AsDouble() >= 3 && a[5].AsInt() == 0 &&
                 b[5].AsInt() == 0;
      }
    }
    return count;
  };
  constexpr size_t kLeft = 23, kRight = 17;
  for (bool columnar : {false, true}) {
    std::vector<oram::AccessTrace> traces;
    for (uint64_t seed : {1u, 2u, 3u}) {
      // Seed 3 draws from a single key, so every valid pair matches.
      const int64_t key_range = seed == 3 ? 1 : 6;
      PlainTable l("YellowCab", RandomTripRows(kLeft, key_range, seed),
                   columnar);
      PlainTable r("GreenTaxi", RandomTripRows(kRight, key_range, seed + 10),
                   columnar);
      oram::AccessTrace trace;
      auto count = ObliviousCountJoin(q, l.table, r.table, &trace);
      ASSERT_TRUE(count.has_value());
      EXPECT_EQ(*count, brute_force(l.rows, r.rows))
          << "seed " << seed << " columnar " << columnar;
      EXPECT_EQ(static_cast<int64_t>(trace.size()),
                2 * oram::BitonicCompareCount(kLeft + kRight) + kLeft +
                    kRight);
      traces.push_back(std::move(trace));
    }
    EXPECT_EQ(traces[1], traces[0]) << "columnar " << columnar;
    EXPECT_EQ(traces[2], traces[0]) << "columnar " << columnar;
  }
}

TEST(ObliviousJoinTest, CrossSidePredicateTakesTheHashPath) {
  // A conjunct that reads both sides can only be evaluated on a formed
  // pair: the oblivious join declines it, and under the default pair limit
  // the engine answers through the hash path, as the plaintext executor
  // does.
  const char* sql =
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime WHERE YellowCab.fare > "
      "GreenTaxi.fare";
  auto parsed = query::ParseSelect(sql);
  ASSERT_OK(parsed);
  PlainTable l("YellowCab", RandomTripRows(5, 3, 1), false);
  PlainTable r("GreenTaxi", RandomTripRows(5, 3, 2), false);
  EXPECT_FALSE(ObliviousCountJoin(query::RewriteForDummies(parsed.value()),
                                  l.table, r.table)
                   .has_value());

  const auto left = ProbeRows(120);
  const auto right = BuildRows(90);
  JoinRun run = RunTripJoin(sql, left, right, false, 4'000'000);
  EXPECT_EQ(run.result.scalar, PlaintextJoin(sql, left, right).scalar);
  EXPECT_GT(run.result.scalar, 0.0);
  EXPECT_LT(run.result.scalar,
            RunTripJoin(kCountSql, left, right, false, 4'000'000)
                .result.scalar);
  ExpectSameRun(run, RunTripJoin(sql, left, right, false, 0), sql);
}

TEST(ObliviousJoinTest, KernelCountsMatchesAndSkipsEmptySides) {
  // Random tags against a brute-force count, and the public-size shortcut:
  // a side with no rows answers 0 without sorting (empty trace).
  auto compare = [](int64_t a, int64_t b) { return (a > b) - (a < b); };
  auto rng = testutil::MakeRng(77);
  for (size_t n1 : {1u, 2u, 9u, 40u}) {
    for (size_t n2 : {1u, 7u, 33u}) {
      std::vector<oram::JoinTag<int64_t>> tags(n1 + n2);
      for (auto& t : tags) {
        t.key = rng.UniformInt(0, 4);
        t.valid = rng.UniformInt(0, 2) != 0;
      }
      int64_t expected = 0;
      for (size_t i = 0; i < n1; ++i) {
        for (size_t j = n1; j < n1 + n2; ++j) {
          expected += tags[i].valid && tags[j].valid &&
                      tags[i].key == tags[j].key;
        }
      }
      EXPECT_EQ(oram::ObliviousJoinCount(tags, n1, compare), expected)
          << n1 << " x " << n2;
    }
  }
  std::vector<oram::JoinTag<int64_t>> one_side(5);
  for (auto& t : one_side) t.valid = 1;
  oram::AccessTrace trace;
  EXPECT_EQ(oram::ObliviousJoinCount(one_side, 0, compare, &trace), 0);
  EXPECT_EQ(oram::ObliviousJoinCount(one_side, 5, compare, &trace), 0);
  EXPECT_TRUE(trace.empty());
}

TEST(ObliviousJoinTest, EmptySpanWithoutProjectionsJoinsAsNone) {
  // Typed paths need projections on non-empty spans only, so an empty span
  // between two typed ones may carry none. Neither kernel may index its
  // columns, and both answer as if it were absent.
  auto parsed = query::ParseSelect(kCountSql);
  ASSERT_OK(parsed);
  const query::SelectQuery q = query::RewriteForDummies(parsed.value());
  PlainTable l("YellowCab", RandomTripRows(40, 6, 4), true);
  PlainTable r("GreenTaxi", RandomTripRows(30, 6, 5), true);
  // The one columnar span twice, with or without an empty span between.
  auto doubled = [](const PlainTable& t, bool with_empty) {
    query::Table out = t.table;
    const query::RowSpan span = t.table.borrowed_spans[0];
    out.borrowed_spans = {span};
    if (with_empty) out.borrowed_spans.push_back(query::RowSpan{});
    out.borrowed_spans.push_back(span);
    return out;
  };
  auto hash_count = [&](const query::Table& lt, const query::Table& rt) {
    query::Catalog catalog;
    catalog.AddTable(&lt);
    catalog.AddTable(&rt);
    query::ExecutorOptions opts;
    opts.join_skip_dummy_rows = true;
    auto result = query::Executor(&catalog, opts).Execute(q);
    EXPECT_OK(result);
    return result->scalar;
  };
  const query::Table l0 = doubled(l, false), r0 = doubled(r, false);
  const query::Table l1 = doubled(l, true), r1 = doubled(r, true);
  EXPECT_EQ(hash_count(l1, r1), hash_count(l0, r0));
  EXPECT_EQ(ObliviousCountJoin(q, l1, r1), ObliviousCountJoin(q, l0, r0));
  EXPECT_GT(hash_count(l0, r0), 0.0);
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
  // both tables. Both storage methods capture under one scoped_lock over
  // the two table mutexes, so neither can hang; the suite TIMEOUT is the
  // deadlock detector.
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
