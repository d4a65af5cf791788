/// \file micro_query.cpp
/// Micro-benchmarks for the query layer: parsing, row (de)serialization,
/// predicate evaluation, scans, group-by, and hash join over realistic
/// trip tables.
#include <benchmark/benchmark.h>

#include "common/rng.h"
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

// Rows per side; the shapes match BM_ObliviousJoinCount's in
// micro_oram.cpp (2^10 to 2^16 rows in all, and a skewed 4M-pair join).
void BM_HashJoin(benchmark::State& state) {
  Table a = MakeTripTable("A", static_cast<size_t>(state.range(0)), 4);
  Table b = MakeTripTable("B", static_cast<size_t>(state.range(1)), 5);
  Catalog c;
  c.AddTable(&a);
  c.AddTable(&b);
  Executor ex(&c);
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM A INNER JOIN B ON A.pickTime = B.pickTime");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.Execute(q.value()));
  }
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_HashJoin)
    ->Args({512, 512})
    ->Args({2048, 2048})
    ->Args({8192, 8192})
    ->Args({32768, 32768})
    ->Args({64, 62500});

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
