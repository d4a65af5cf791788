/// \file micro_query.cpp
/// Micro-benchmarks for the query layer: parsing, row (de)serialization,
/// predicate evaluation, scans, group-by, and the two join paths (the
/// counting pass and the chain path) over trip tables shaped like the
/// engine's snapshots.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "query/columnar.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/rewriter.h"
#include "workload/trip_record.h"

namespace dpsync::query {
namespace {

Table MakeTripTable(const std::string& name, size_t n, uint64_t seed) {
  Table t;
  t.name = name;
  t.schema = workload::TripSchema();
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    workload::TripRecord trip;
    trip.pick_time = static_cast<int64_t>(i * 2);
    trip.pickup_id = rng.UniformInt(1, 265);
    trip.dropoff_id = rng.UniformInt(1, 265);
    trip.trip_distance = rng.UniformDouble() * 10;
    trip.fare = 2.5 + trip.trip_distance * 2.5;
    t.rows.push_back(trip.ToRow());
  }
  return t;
}

void BM_ParseQ1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSelect(
        "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100"));
  }
}
BENCHMARK(BM_ParseQ1);

void BM_RowSerialize(benchmark::State& state) {
  workload::TripRecord trip;
  trip.pickup_id = 42;
  Row row = trip.ToRow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeRow(row));
  }
}
BENCHMARK(BM_RowSerialize);

void BM_RowDeserialize(benchmark::State& state) {
  workload::TripRecord trip;
  trip.pickup_id = 42;
  Bytes bytes = SerializeRow(trip.ToRow());
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeserializeRow(bytes));
  }
}
BENCHMARK(BM_RowDeserialize);

void BM_PredicateEval(benchmark::State& state) {
  auto expr = ParseExpression("pickupID BETWEEN 50 AND 100 AND fare >= 10");
  Table t = MakeTripTable("T", 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*expr)->Eval(t.schema, t.rows[0]));
  }
}
BENCHMARK(BM_PredicateEval);

void BM_ScanCount(benchmark::State& state) {
  Table t = MakeTripTable("T", static_cast<size_t>(state.range(0)), 2);
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM T WHERE pickupID BETWEEN 50 AND 100");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.Execute(q.value()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanCount)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_GroupBy(benchmark::State& state) {
  Table t = MakeTripTable("T", static_cast<size_t>(state.range(0)), 3);
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect("SELECT pickupID, COUNT(*) FROM T GROUP BY pickupID");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.Execute(q.value()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupBy)->Arg(1000)->Arg(10000);

/// A trip table as an ObliDB snapshot serves it to a join: rows in spans
/// of the enclave mirror's 4096-row chunks, each span carrying its typed
/// columnar projection, and about a quarter of the rows dummies.
struct SnapshotTripTable {
  static constexpr size_t kChunkRows = 4096;
  std::vector<Row> rows;
  std::vector<std::unique_ptr<ColumnarBlock>> blocks;
  Table table;

  SnapshotTripTable(const std::string& name, size_t n, uint64_t seed) {
    table.name = name;
    table.schema = workload::TripSchema();
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      workload::TripRecord trip;
      trip.pick_time = static_cast<int64_t>(i * 2);
      trip.pickup_id = rng.UniformInt(1, 265);
      trip.dropoff_id = rng.UniformInt(1, 265);
      trip.trip_distance = rng.UniformDouble() * 10;
      trip.fare = 2.5 + trip.trip_distance * 2.5;
      trip.is_dummy = rng.UniformInt(0, 3) == 0;
      rows.push_back(trip.ToRow());
    }
    for (size_t begin = 0; begin < n; begin += kChunkRows) {
      const size_t take = std::min(kChunkRows, n - begin);
      blocks.push_back(std::make_unique<ColumnarBlock>(table.schema, take));
      for (size_t i = 0; i < take; ++i) blocks.back()->Append(rows[begin + i]);
      table.borrowed_spans.push_back(
          {rows.data() + begin, take, blocks.back()->CaptureSpans(take)});
    }
  }
};

/// The answer a join bench must see before it times anything: `ex`'s
/// result for `q`, checked against `expected`. A failed or wrong join would
/// otherwise read as a fast one.
bool JoinAnswerChecks(benchmark::State& state, const Executor& ex,
                      const SelectQuery& q, const QueryResult& expected) {
  auto r = ex.Execute(q);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return false;
  }
  if (r->grouped != expected.grouped || r->scalar != expected.scalar ||
      r->groups != expected.groups) {
    state.SkipWithError("wrong join answer");
    return false;
  }
  return true;
}

/// Real rows per pickTime, the join key both benches match on.
std::map<int64_t, std::vector<const Row*>> RealRowsByKey(
    const SnapshotTripTable& t) {
  std::map<int64_t, std::vector<const Row*>> out;
  for (const auto& row : t.rows) {
    const auto trip = workload::TripRecord::FromRow(row);
    if (!trip.is_dummy) out[trip.pick_time].push_back(&row);
  }
  return out;
}

/// Times `sql`'s Appendix-B rewrite over two snapshot tables of
/// state.range(0) and state.range(1) rows, after checking its answer
/// against `expected(a, b)`.
template <typename Expected>
void RunJoinBench(benchmark::State& state, const char* sql,
                  Expected&& expected) {
  SnapshotTripTable a("A", static_cast<size_t>(state.range(0)), 4);
  SnapshotTripTable b("B", static_cast<size_t>(state.range(1)), 5);
  Catalog c;
  c.AddTable(&a.table);
  c.AddTable(&b.table);
  Executor ex(&c);
  const SelectQuery rewritten = RewriteForDummies(ParseSelect(sql).value());
  if (!JoinAnswerChecks(state, ex, rewritten, expected(a, b))) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.Execute(rewritten));
  }
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}

// The join ObliDB runs for Q3 above its oblivious limit: the Appendix-B
// rewrite over columnar spans, with the per-side isDummy = 0 conjuncts
// hoisted into the real-row tests, so the executor's counting pass
// answers (serial, on the calling thread). Rows per side; the shapes
// match BM_ObliviousJoinCount's in micro_oram.cpp (2^10 to 2^16 rows in
// all, and a skewed 4M-pair join).
void BM_HashJoin(benchmark::State& state) {
  RunJoinBench(
      state, "SELECT COUNT(*) FROM A INNER JOIN B ON A.pickTime = B.pickTime",
      [](const SnapshotTripTable& a, const SnapshotTripTable& b) {
        const auto bkeys = RealRowsByKey(b);
        double pairs = 0;
        for (const auto& [key, rows] : RealRowsByKey(a)) {
          auto it = bkeys.find(key);
          if (it != bkeys.end()) {
            pairs += static_cast<double>(rows.size() * it->second.size());
          }
        }
        return QueryResult::Scalar(pairs);
      });
}
BENCHMARK(BM_HashJoin)
    ->Args({512, 512})
    ->Args({2048, 2048})
    ->Args({8192, 8192})
    ->Args({32768, 32768})
    ->Args({64, 62500})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The same join grouped by a build-side column, which enumerates its
// pairs on the executor's chain path (partitioned build, chain walk per
// match, pool-fanned probe chunks merged in chunk order). The CPU column
// counts the pool's threads too.
void BM_HashJoinGrouped(benchmark::State& state) {
  RunJoinBench(
      state,
      "SELECT B.pickupID, COUNT(*) FROM A INNER JOIN B ON "
      "A.pickTime = B.pickTime GROUP BY B.pickupID",
      [](const SnapshotTripTable& a, const SnapshotTripTable& b) {
        const auto akeys = RealRowsByKey(a);
        QueryResult expected;
        expected.grouped = true;
        for (const auto& [key, rows] : RealRowsByKey(b)) {
          auto it = akeys.find(key);
          if (it == akeys.end()) continue;
          for (const Row* row : rows) {
            const auto trip = workload::TripRecord::FromRow(*row);
            expected.groups[Value(trip.pickup_id)] +=
                static_cast<double>(it->second.size());
          }
        }
        return expected;
      });
}
BENCHMARK(BM_HashJoinGrouped)
    ->Args({512, 512})
    ->Args({2048, 2048})
    ->Args({8192, 8192})
    ->Args({32768, 32768})
    ->Args({64, 62500})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_RewriteForDummies(benchmark::State& state) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM A INNER JOIN B ON A.pickTime = B.pickTime");
  for (auto _ : state) {
    benchmark::DoNotOptimize(RewriteForDummies(q.value()));
  }
}
BENCHMARK(BM_RewriteForDummies);

}  // namespace
}  // namespace dpsync::query
