// Scan-kernel loop parity and edge cases: the kernel's columnar loop
// (query/columnar.h, query/vectorized.h, ExecuteScanPartial) must be
// indistinguishable from its row loop in every per-span cell and answer —
// including float aggregates, whose fixed reduction order is the whole
// bit-identity contract — while the selection bitmap, chunk straddling,
// poisoned columns and snapshot visibility behave per docs/STORAGE.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edb/encrypted_table.h"
#include "edb/snapshot.h"
#include "query/columnar.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/vectorized.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::query {
namespace {

using testutil::MakeRng;
using testutil::Trip;
using workload::TripSchema;

// ------------------------------------------------------------- fixtures

/// A span-backed table whose chunks carry columnar projections — the same
/// shape EncryptedTableStore::CaptureView serves, built without crypto so
/// executor cases stay fast and self-contained.
struct SpanTable {
  Table table;
  std::vector<std::vector<Row>> chunks;  ///< owns the row storage
  std::vector<std::unique_ptr<ColumnarBlock>> blocks;
};

/// Splits `rows` into consecutive spans of the given sizes (which must sum
/// to rows.size(); zero-size spans are allowed).
SpanTable MakeSpanTableWithSizes(const Schema& schema,
                                 const std::vector<Row>& rows,
                                 const std::vector<size_t>& sizes) {
  SpanTable t;
  t.table.name = "T";
  t.table.schema = schema;
  t.chunks.reserve(sizes.size());  // spans point into these vectors
  size_t i = 0;
  for (size_t n : sizes) {
    t.chunks.emplace_back(rows.begin() + static_cast<ptrdiff_t>(i),
                          rows.begin() + static_cast<ptrdiff_t>(i + n));
    auto block = std::make_unique<ColumnarBlock>(schema, n);
    for (const auto& row : t.chunks.back()) block->Append(row);
    RowSpan span;
    span.data = t.chunks.back().data();
    span.size = n;
    span.columns = block->CaptureSpans(n);
    t.table.borrowed_spans.push_back(std::move(span));
    t.blocks.push_back(std::move(block));
    i += n;
  }
  return t;
}

SpanTable MakeSpanTable(const Schema& schema, const std::vector<Row>& rows,
                        size_t chunk_rows) {
  std::vector<size_t> sizes;
  for (size_t i = 0; i < rows.size(); i += chunk_rows) {
    sizes.push_back(std::min(chunk_rows, rows.size() - i));
  }
  return MakeSpanTableWithSizes(schema, rows, sizes);
}

StatusOr<QueryResult> RunSql(Table* table, const std::string& sql,
                          bool vectorized) {
  Catalog catalog;
  catalog.AddTable(table);
  Executor executor(&catalog, ExecutorOptions{vectorized});
  auto q = ParseSelect(sql);
  if (!q.ok()) return q.status();
  return executor.Execute(q.value());
}

/// Exact (==) equality: the columnar loop reuses the row loop's reduction
/// order, so even the last ulp of a double SUM must agree.
void ExpectSameResult(const QueryResult& scalar, const QueryResult& vec,
                      const std::string& sql) {
  EXPECT_EQ(scalar.grouped, vec.grouped) << sql;
  EXPECT_EQ(scalar.scalar, vec.scalar) << sql;
  ASSERT_EQ(scalar.groups.size(), vec.groups.size()) << sql;
  auto it = vec.groups.begin();
  for (const auto& [key, value] : scalar.groups) {
    EXPECT_EQ(key.Compare(it->first), 0) << sql;
    EXPECT_EQ(value, it->second) << sql << " group " << key.ToString();
    ++it;
  }
}

/// The two loops agree on the answer AND on the kernel's per-span cells
/// and records_scanned — the cells are what shard servers ship.
void ExpectParity(Table* table, const std::string& sql) {
  auto scalar = RunSql(table, sql, false);
  auto vec = RunSql(table, sql, true);
  ASSERT_OK(scalar);
  ASSERT_OK(vec);
  ExpectSameResult(scalar.value(), vec.value(), sql);

  auto q = ParseSelect(sql);
  ASSERT_OK(q);
  auto row_cells = ExecuteScanPartial(q.value(), *table, false);
  auto columnar_cells = ExecuteScanPartial(q.value(), *table, true);
  ASSERT_OK(row_cells);
  ASSERT_OK(columnar_cells);
  testutil::ExpectSameCells(row_cells.value(), columnar_cells.value(), sql);
}

Schema TestSchema() {
  return Schema({{"k", ValueType::kInt},
                 {"v", ValueType::kDouble},
                 {"s", ValueType::kString},
                 {"i", ValueType::kInt}});
}

/// Random rows over TestSchema with NULLs sprinkled into every column.
std::vector<Row> RandomRows(size_t n, uint64_t salt) {
  auto rng = MakeRng(salt);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    Row row;
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value()
                      : Value(rng.UniformInt(-50, 50)));
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value()
                      : Value(rng.UniformDouble() * 100 - 50));
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value()
                      : Value(std::string(1, static_cast<char>(
                                                 'a' + rng.UniformInt(0, 3)))));
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value()
                      : Value(rng.UniformInt(0, 5000)));
    rows.push_back(std::move(row));
  }
  return rows;
}

// ------------------------------------------------- selection bitmap edges

TEST(VectorizedScanTest, EmptySelection) {
  auto t = MakeSpanTable(TestSchema(), RandomRows(500, 1), 128);
  // No row has k beyond the generator's range: the bitmap is all zeros in
  // every tile and the accumulator must fold nothing.
  for (const char* sql :
       {"SELECT COUNT(*) FROM T WHERE k > 1000",
        "SELECT SUM(v) FROM T WHERE k > 1000",
        "SELECT AVG(v) FROM T WHERE k > 1000",
        "SELECT MIN(v) FROM T WHERE k > 1000",
        "SELECT k, COUNT(*) FROM T WHERE k > 1000 GROUP BY k"}) {
    ExpectParity(&t.table, sql);
  }
}

TEST(VectorizedScanTest, AllSelected) {
  auto t = MakeSpanTable(TestSchema(), RandomRows(500, 2), 128);
  for (const char* sql :
       {"SELECT COUNT(*) FROM T", "SELECT COUNT(v) FROM T",
        "SELECT SUM(v) FROM T", "SELECT AVG(v) FROM T",
        "SELECT MIN(v) FROM T", "SELECT MAX(v) FROM T",
        "SELECT SUM(k) FROM T",
        "SELECT SUM(v) FROM T WHERE k >= -1000"}) {
    ExpectParity(&t.table, sql);
  }
}

TEST(VectorizedScanTest, ChunkBoundaryStraddle) {
  // Chunks much smaller than the 2048-row evaluation tile AND a predicate
  // whose matches straddle every chunk edge: per-span bitmap offsets must
  // line up with the row-major storage exactly.
  auto t = MakeSpanTable(TestSchema(), RandomRows(1000, 3), 96);
  ASSERT_GT(t.table.borrowed_spans.size(), 8u);
  for (const char* sql :
       {"SELECT SUM(v) FROM T WHERE k BETWEEN -25 AND 25",
        "SELECT COUNT(*) FROM T WHERE k <= 0 OR v > 10.5",
        "SELECT i, SUM(v) FROM T WHERE NOT k < 0 GROUP BY i"}) {
    ExpectParity(&t.table, sql);
  }
}

TEST(VectorizedScanTest, MultiSpanWithEmptyAndLargeSpans) {
  // Shard-like span lists: empty spans (which contribute no cell) around
  // a span past the 8192-row parallel threshold (which splits into
  // pool-width chunks) and small ones. Per-span cells must line up one to
  // one between the loops.
  const std::vector<size_t> sizes = {0, 9000, 0, 37, 2048, 0};
  size_t total = 0;
  for (size_t n : sizes) total += n;
  auto t = MakeSpanTableWithSizes(TestSchema(), RandomRows(total, 8), sizes);
  for (const char* sql :
       {"SELECT COUNT(*) FROM T", "SELECT SUM(v) FROM T",
        "SELECT AVG(v) FROM T WHERE k BETWEEN -10 AND 30",
        "SELECT MIN(v) FROM T WHERE s = 'c'",
        "SELECT i, SUM(v) FROM T WHERE v < 20.0 GROUP BY i",
        "SELECT k, COUNT(*) FROM T GROUP BY k"}) {
    ExpectParity(&t.table, sql);
  }
  auto q = ParseSelect("SELECT k, COUNT(*) FROM T GROUP BY k");
  ASSERT_OK(q);
  auto partial = ExecuteScanPartial(q.value(), t.table);
  ASSERT_OK(partial);
  EXPECT_EQ(partial->spans.size(), 3u);  // one cell per non-empty span
  EXPECT_EQ(partial->records_scanned, static_cast<int64_t>(total));
}

TEST(VectorizedScanTest, ParallelThresholdCrossed) {
  // >8192 rows engages the multi-chunk ParallelFor split in both loops;
  // the partial-merge order (pool-chunk index order) must keep double
  // sums bit-identical.
  auto t = MakeSpanTable(TestSchema(), RandomRows(10000, 4), 4096);
  for (const char* sql :
       {"SELECT SUM(v) FROM T", "SELECT AVG(v) FROM T",
        "SELECT SUM(v) FROM T WHERE v >= 0.0",
        "SELECT i, COUNT(*) FROM T GROUP BY i",
        "SELECT i, SUM(v) FROM T WHERE k <> 7 GROUP BY i"}) {
    ExpectParity(&t.table, sql);
  }
}

// --------------------------------------------------- predicate semantics

TEST(VectorizedScanTest, PredicateOperatorCoverage) {
  auto t = MakeSpanTable(TestSchema(), RandomRows(700, 5), 256);
  for (const char* sql : {
           "SELECT COUNT(*) FROM T WHERE k = 3",
           "SELECT COUNT(*) FROM T WHERE k != 3",
           "SELECT COUNT(*) FROM T WHERE k < 3",
           "SELECT COUNT(*) FROM T WHERE k <= 3",
           "SELECT COUNT(*) FROM T WHERE k > 3",
           "SELECT COUNT(*) FROM T WHERE k >= 3",
           "SELECT COUNT(*) FROM T WHERE 3 < k",
           "SELECT COUNT(*) FROM T WHERE v = 0.5",
           "SELECT COUNT(*) FROM T WHERE v >= 12.25",
           "SELECT COUNT(*) FROM T WHERE s = 'b'",
           "SELECT COUNT(*) FROM T WHERE s >= 'c'",
           "SELECT COUNT(*) FROM T WHERE k BETWEEN 0 AND 10",
           "SELECT COUNT(*) FROM T WHERE k >= 0 AND v < 25.0",
           "SELECT COUNT(*) FROM T WHERE k < -40 OR k > 40",
           "SELECT COUNT(*) FROM T WHERE NOT (k >= 0 AND k <= 10)",
           // int column vs double literal: the kCmpDouble lowering
           "SELECT COUNT(*) FROM T WHERE k < 3.5",
           // string column vs number literal: row-independent kCmpFixed
           "SELECT COUNT(*) FROM T WHERE s > 5",
           // unknown column: NULL in scalar eval, kConstFalse vectorized
           "SELECT COUNT(*) FROM T WHERE nope = 1",
       }) {
    ExpectParity(&t.table, sql);
  }
}

// ------------------------------------------------------------- group-by

TEST(VectorizedScanTest, HashGroupByMatchesScalarWithNullKeys) {
  // ~5000 distinct keys force several FlatGroupMap rehashes; NULL keys
  // land in the dedicated slot and must come back as the row loop's NULL
  // group.
  auto t = MakeSpanTable(TestSchema(), RandomRows(8000, 6), 1024);
  for (const char* sql :
       {"SELECT i, COUNT(*) FROM T GROUP BY i",
        "SELECT i, COUNT(v) FROM T GROUP BY i",
        "SELECT i, SUM(v) FROM T GROUP BY i",
        "SELECT i, AVG(v) FROM T GROUP BY i",
        "SELECT i, MAX(v) FROM T WHERE k >= 0 GROUP BY i",
        "SELECT k, SUM(i) FROM T GROUP BY k"}) {
    ExpectParity(&t.table, sql);
  }
}

TEST(FlatGroupMapTest, GrowthMatchesReferenceMap) {
  FlatGroupMap<int64_t> map(int64_t{0});
  std::map<int64_t, int64_t> reference;
  auto rng = MakeRng(7);
  for (int i = 0; i < 20000; ++i) {
    int64_t key = rng.UniformInt(-4000, 4000);
    map.Upsert(key) += 1;
    reference[key] += 1;
  }
  EXPECT_EQ(map.size(), reference.size());
  EXPECT_FALSE(map.has_null());
  std::map<int64_t, int64_t> collected;
  map.ForEach([&](int64_t key, const int64_t& count) {
    collected[key] = count;
  });
  EXPECT_EQ(collected, reference);
  map.NullSlot() += 5;
  EXPECT_TRUE(map.has_null());
  EXPECT_EQ(map.null_slot(), 5);
}

/// Mix64 undone one step at a time: each step of the splitmix64 finalizer
/// is invertible mod 2^64, which is what lets the hash join match int
/// keys on their hash alone.
uint64_t UnMix64(uint64_t h) {
  auto unxorshift = [](uint64_t y, int s) {
    uint64_t x = y;
    for (int i = 0; i < 64 / s + 1; ++i) x = y ^ (x >> s);
    return x;
  };
  auto inverse = [](uint64_t odd) {  // Newton: each step doubles the bits
    uint64_t inv = odd;
    for (int i = 0; i < 6; ++i) inv *= 2 - odd * inv;
    return inv;
  };
  h = unxorshift(h, 31);
  h = unxorshift(h * inverse(0x94d049bb133111ebULL), 27);
  h = unxorshift(h * inverse(0xbf58476d1ce4e5b9ULL), 30);
  return h - 0x9e3779b97f4a7c15ULL;
}

TEST(Mix64Test, InvertsOnExtremeAndRandomWords) {
  // The first output of a splitmix64 generator seeded with 0, which the
  // finalizer must keep bit for bit (FlatGroupMap's slots depend on it).
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  std::vector<uint64_t> words = {
      0, 1, 2, ~uint64_t{0}, uint64_t{1} << 63, (uint64_t{1} << 63) - 1,
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min() + 1),
      static_cast<uint64_t>(int64_t{-1}), 0xffffffffULL, 0x100000000ULL};
  auto rng = MakeRng(11);
  for (int i = 0; i < 10000; ++i) words.push_back(rng.Next());
  for (uint64_t w : words) {
    EXPECT_EQ(UnMix64(Mix64(w)), w) << w;
  }
}

// ------------------------------------------------ poisoning / fallback

TEST(ColumnarBlockTest, PoisonFreezesTypedPrefix) {
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kDouble}});
  ColumnarBlock block(schema, 8);
  block.Append({Value(int64_t{1}), Value(1.5)});
  block.Append({Value(int64_t{2}), Value()});  // NULL keeps the type
  block.Append({Value(std::string("x")), Value(2.5)});  // poisons "a"
  block.Append({Value(int64_t{4}), Value(3.5)});

  // Captures inside the typed prefix stay typed; reaching the poisoned
  // row reports the column untyped. "b" is typed throughout.
  auto pre = block.CaptureSpans(2);
  ASSERT_EQ(pre.size(), 2u);
  EXPECT_EQ(pre[0].type, ValueType::kInt);
  EXPECT_EQ(pre[0].ints[1], 2);
  EXPECT_EQ(pre[0].nulls[1], 0);
  EXPECT_EQ(pre[1].type, ValueType::kDouble);
  EXPECT_EQ(pre[1].nulls[1], 1);  // row 1's "b" cell was the NULL

  auto post = block.CaptureSpans(4);
  EXPECT_EQ(post[0].type, ValueType::kNull);
  EXPECT_EQ(post[1].type, ValueType::kDouble);
  EXPECT_EQ(post[1].doubles[3], 3.5);
}

TEST(VectorizedScanTest, PoisonedColumnFallsBackToScalar) {
  // One chunk stores a string where the schema says int: its "k"
  // projection is untyped, the columnar loop declines (eligibility is
  // all-or-nothing across spans), and the row loop answers — still
  // identically to a run pinned to the row loop.
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kDouble}});
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value(int64_t{i % 7}), Value(i * 0.25)});
  }
  rows[150][0] = Value(std::string("oops"));
  auto t = MakeSpanTable(schema, rows, 100);
  EXPECT_EQ(t.table.borrowed_spans[1].columns[0].type, ValueType::kNull);
  EXPECT_EQ(t.table.borrowed_spans[0].columns[0].type, ValueType::kInt);
  for (const char* sql :
       {"SELECT SUM(v) FROM T WHERE k >= 2",
        "SELECT COUNT(*) FROM T WHERE k = 3",
        "SELECT k, SUM(v) FROM T GROUP BY k"}) {
    ExpectParity(&t.table, sql);
  }
}

// ------------------------------------------------ predicate lowering

TEST(VectorPredicateTest, CompileShapeGate) {
  Schema schema = TestSchema();
  auto vectorizable = [&](const std::string& sql) {
    auto q = ParseSelect(sql);
    EXPECT_OK(q);
    return VectorPredicate::Compile(q->where.get(), schema).has_value();
  };
  EXPECT_TRUE(vectorizable("SELECT COUNT(*) FROM T"));
  EXPECT_TRUE(vectorizable("SELECT COUNT(*) FROM T WHERE k BETWEEN 1 AND 2"));
  EXPECT_TRUE(vectorizable(
      "SELECT COUNT(*) FROM T WHERE NOT (k = 1 OR v > 2.0) AND s = 'x'"));
  // Column-vs-column comparisons have no literal side to lower.
  EXPECT_FALSE(vectorizable("SELECT COUNT(*) FROM T WHERE k = i"));

  auto pred = VectorPredicate::Compile(nullptr, schema);
  ASSERT_TRUE(pred.has_value());
  EXPECT_TRUE(pred->columns().empty());
}

// --------------------------------------- snapshot visibility (edb layer)

TEST(VectorizedScanTest, UncommittedTailInvisibleUnderSnapshots) {
  // The columnar mirror shares the row mirror's commit discipline: spans
  // captured from a Snapshot() bound both representations to the
  // committed prefix, so the columnar loop cannot see unflushed appends
  // the row loop would also skip.
  edb::StorageConfig cfg;
  cfg.flush_every_update = false;
  edb::EncryptedTableStore store("YellowCab", TripSchema(), Bytes(32, 1),
                                 cfg);
  std::vector<Record> committed;
  for (int i = 0; i < 600; ++i) committed.push_back(Trip(i, i % 11));
  ASSERT_OK(store.Setup(committed));
  ASSERT_OK(store.Flush());
  // Unflushed tail: invisible to snapshots until the next Flush.
  ASSERT_OK(store.Update({Trip(1000, 3), Trip(1001, 3), Trip(1002, 3)}));

  auto run = [&](const edb::SnapshotView& view, const std::string& sql,
                 bool vectorized) {
    Table plain;
    plain.name = store.table_name();
    plain.schema = store.schema();
    plain.borrowed_spans = view.spans;
    return RunSql(&plain, sql, vectorized);
  };

  auto capture = [&] {
    std::lock_guard<std::mutex> lk(store.table_mutex());
    return store.Snapshot();
  };
  auto snap = capture();
  ASSERT_OK(snap);
  // A second capture after the commit point sees the tail.
  ASSERT_OK(store.Flush());
  auto full = capture();
  ASSERT_OK(full);
  EXPECT_EQ(snap->total_rows, 600);
  EXPECT_EQ(full->total_rows, 603);

  const std::string count = "SELECT COUNT(*) FROM YellowCab";
  const std::string sum =
      "SELECT SUM(fare) FROM YellowCab WHERE pickupID = 3";
  for (const auto& sql : {count, sum}) {
    auto snap_scalar = run(*snap, sql, false);
    auto snap_vec = run(*snap, sql, true);
    auto full_scalar = run(*full, sql, false);
    auto full_vec = run(*full, sql, true);
    ASSERT_OK(snap_scalar);
    ASSERT_OK(snap_vec);
    ASSERT_OK(full_scalar);
    ASSERT_OK(full_vec);
    ExpectSameResult(snap_scalar.value(), snap_vec.value(), sql);
    ExpectSameResult(full_scalar.value(), full_vec.value(), sql);
  }
  EXPECT_EQ(run(*snap, count, true).value().scalar, 600);
  EXPECT_EQ(run(*full, count, true).value().scalar, 603);
  // The tail rows land in zone 3, so the filtered sum moves too — in
  // both loops equally.
  EXPECT_LT(run(*snap, sum, true).value().scalar,
            run(*full, sum, true).value().scalar);
}

}  // namespace
}  // namespace dpsync::query
