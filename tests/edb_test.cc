// Tests for the encrypted-database layer: leakage compatibility (Table 3 /
// P4), the encrypted table store, the ObliDB-style L-0 engine (including
// real oblivious joins and the ORAM-indexed mode), and the Crypt-eps-style
// L-DP engine.
#include <gtest/gtest.h>

#include <limits>

#include "edb/crypte_engine.h"
#include "edb/encrypted_table.h"
#include "edb/leakage.h"
#include "edb/oblidb_engine.h"
#include "edb/plan_cache.h"
#include "query/executor.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

using workload::TripRecord;
using workload::TripSchema;
using testutil::PrepareAndExecute;
using testutil::Trip;

// --------------------------------------------------------------- Leakage

TEST(LeakageTest, L0AndLdpCompatible) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  EXPECT_TRUE(CheckCompatibility(p).compatible);
  p.query_class = LeakageClass::kLDP;
  EXPECT_TRUE(CheckCompatibility(p).compatible);
}

TEST(LeakageTest, L1NeedsPadding) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL1;
  auto r = CheckCompatibility(p);
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.needs_volume_padding);
}

TEST(LeakageTest, L2Incompatible) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL2;
  EXPECT_FALSE(CheckCompatibility(p).compatible);
}

TEST(LeakageTest, BatchingIncompatible) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  p.encrypts_records_atomically = false;
  EXPECT_FALSE(CheckCompatibility(p).compatible);
}

TEST(LeakageTest, StaticSchemesIncompatible) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  p.supports_insertion = false;
  EXPECT_FALSE(CheckCompatibility(p).compatible);
}

TEST(LeakageTest, ExtraUpdateLeakageIncompatible) {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  p.update_leaks_only_pattern = false;
  EXPECT_FALSE(CheckCompatibility(p).compatible);
}

TEST(LeakageTest, CatalogMatchesTable3Examples) {
  auto find = [](const std::string& name) {
    for (const auto& e : SchemeCatalog()) {
      if (e.name == name) return e.query_class;
    }
    return LeakageClass::kL2;
  };
  EXPECT_EQ(find("ObliDB"), LeakageClass::kL0);
  EXPECT_EQ(find("CryptEpsilon"), LeakageClass::kLDP);
  EXPECT_EQ(find("Shrinkwrap"), LeakageClass::kLDP);
  EXPECT_EQ(find("StealthDB"), LeakageClass::kL1);
  EXPECT_EQ(find("CryptDB"), LeakageClass::kL2);
}

TEST(LeakageTest, BothBuiltInEnginesPassP4) {
  ObliDbServer oblidb;
  CryptEpsServer crypte;
  EXPECT_TRUE(CheckCompatibility(oblidb.leakage()).compatible);
  EXPECT_TRUE(CheckCompatibility(crypte.leakage()).compatible);
  // The Laplace release sets its own class over its exact engine's.
  struct Case {
    const EdbServer* server;
    LeakageClass query_class;
    bool needs_volume_padding;
    bool supports_join;
  };
  for (const Case& c : {Case{&oblidb, LeakageClass::kL0, false, true},
                        Case{&crypte, LeakageClass::kLDP, false, false}}) {
    SCOPED_TRACE(c.server->name());
    const LeakageProfile profile = c.server->leakage();
    EXPECT_EQ(profile.query_class, c.query_class);
    EXPECT_EQ(profile.scheme_name, c.server->name());
    const CompatibilityResult verdict = CheckCompatibility(profile);
    EXPECT_TRUE(verdict.compatible);
    EXPECT_EQ(verdict.needs_volume_padding, c.needs_volume_padding);
    EXPECT_EQ(c.server->planner_options().supports_join, c.supports_join);
  }
}

// -------------------------------------------------------- Encrypted table

TEST(EncryptedTableTest, SetupThenUpdateRoundTrip) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  ASSERT_TRUE(store.Setup({Trip(1, 10), Trip(2, 20)}).ok());
  ASSERT_TRUE(store.Update({Trip(3, 30)}).ok());
  EXPECT_EQ(store.outsourced_count(), 3);
  auto rows = store.DecryptAll();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ(TripRecord::FromRow((*rows)[2]).pickup_id, 30);
}

TEST(EncryptedTableTest, UpdateBeforeSetupFails) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  EXPECT_FALSE(store.Update({Trip(1, 10)}).ok());
}

TEST(EncryptedTableTest, DoubleSetupFails) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  ASSERT_TRUE(store.Setup({}).ok());
  EXPECT_FALSE(store.Setup({}).ok());
}

TEST(EncryptedTableTest, CiphertextsFixedSizeAndDistinct) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  ASSERT_TRUE(store.Setup({Trip(1, 10), Trip(1, 10), Trip(2, 20, true)}).ok());
  auto cts_or = store.ciphertexts();
  ASSERT_TRUE(cts_or.ok());
  const auto& cts = cts_or.value();
  ASSERT_EQ(cts.size(), 3u);
  for (const auto& ct : cts) {
    EXPECT_EQ(ct.size(), crypto::RecordCipher::kCiphertextSize);
  }
  // Identical plaintexts and dummies are all pairwise distinct ciphertexts.
  EXPECT_NE(cts[0], cts[1]);
  EXPECT_NE(cts[0], cts[2]);
}

TEST(EncryptedTableTest, BytesAccounting) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1));
  ASSERT_TRUE(store.Setup({Trip(1, 10)}).ok());
  EXPECT_EQ(store.outsourced_bytes(),
            static_cast<int64_t>(crypto::RecordCipher::kCiphertextSize));
}

// ----------------------------------------------------------- Cost model

TEST(CostModelTest, ScanScalesLinearly) {
  auto m = ObliDbCostModel();
  double c1 = ScanCost(m, 1000, false);
  double c2 = ScanCost(m, 2000, false);
  EXPECT_GT(c2, c1);
  EXPECT_NEAR((c2 - m.query_fixed) / (c1 - m.query_fixed), 2.0, 1e-9);
}

TEST(CostModelTest, JoinScalesQuadratically) {
  auto m = ObliDbCostModel();
  double c1 = JoinCost(m, 1000, 1000);
  double c2 = JoinCost(m, 2000, 2000);
  EXPECT_NEAR((c2 - m.query_fixed) / (c1 - m.query_fixed), 4.0, 1e-9);
}

TEST(CostModelTest, CryptEpsSlowerThanObliDb) {
  // Matches Table 5: the HE pipeline is an order of magnitude slower.
  EXPECT_GT(ScanCost(CryptEpsCostModel(), 10000, true),
            ScanCost(ObliDbCostModel(), 10000, true) * 5);
}

// ---------------------------------------------------------------- ObliDB

class ObliDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ObliDbServer>();
    auto yellow = server_->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(yellow.ok());
    yellow_ = yellow.value();
    auto green = server_->CreateTable("GreenTaxi", TripSchema());
    ASSERT_TRUE(green.ok());
    green_ = green.value();
  }

  std::unique_ptr<ObliDbServer> server_;
  EdbTable* yellow_ = nullptr;
  EdbTable* green_ = nullptr;
};

TEST_F(ObliDbTest, DuplicateTableRejected) {
  EXPECT_FALSE(server_->CreateTable("YellowCab", TripSchema()).ok());
}

TEST_F(ObliDbTest, SchemaWithoutDummyFlagRejected) {
  query::Schema bare({{"x", query::ValueType::kInt}});
  EXPECT_FALSE(server_->CreateTable("Bare", bare).ok());
}

TEST_F(ObliDbTest, NonIdentifierTableNamesRejected) {
  // Table names must be parser-shaped identifiers: anything else could
  // never be referenced from SQL, and a name embedding query syntax could
  // alias two distinct queries onto one plan-cache entry.
  for (const char* name : {"", "2fast", "T WHERE a = 'b'", "a.b", "x-y"}) {
    EXPECT_EQ(server_->CreateTable(name, TripSchema()).status().code(),
              StatusCode::kInvalidArgument)
        << "name: " << name;
  }
  EXPECT_TRUE(server_->CreateTable("Taxi_2024", TripSchema()).ok());
}

TEST_F(ObliDbTest, CountQueryExactOverRealRecords) {
  ASSERT_TRUE(yellow_->Setup({Trip(1, 60), Trip(2, 70), Trip(3, 200)}).ok());
  ASSERT_TRUE(yellow_->Update({Trip(4, 55), Trip(5, 10, /*dummy=*/true)}).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100");
  auto r = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 3.0);  // dummy in range is excluded
  EXPECT_EQ(r->stats.records_scanned, 5);
  EXPECT_GT(r->stats.virtual_seconds, 0.0);
}

TEST_F(ObliDbTest, GroupByIgnoresDummies) {
  ASSERT_TRUE(yellow_
                  ->Setup({Trip(1, 10), Trip(2, 10), Trip(3, 20),
                           Trip(4, 10, true), Trip(5, 30, true)})
                  .ok());
  auto q = query::ParseSelect(
      "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID");
  auto r = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result.grouped);
  EXPECT_DOUBLE_EQ(r->result.groups.at(query::Value(int64_t{10})), 2.0);
  EXPECT_EQ(r->result.groups.count(query::Value(int64_t{30})), 0u);
}

TEST_F(ObliDbTest, ObliviousJoinMatchesTruthAndExcludesDummies) {
  ASSERT_TRUE(yellow_->Setup({Trip(1, 10), Trip(2, 20), Trip(3, 30)}).ok());
  // Green shares pickTime 2 and 3; dummy collides at pickTime 1 but must
  // not join. (Dummies carry pick_time=0 in production; force collision to
  // prove the rewrite, not the data, does the work.)
  workload::TripRecord dummy;
  dummy.pick_time = 1;
  dummy.is_dummy = true;
  ASSERT_TRUE(green_->Setup({Trip(2, 99), Trip(3, 98), dummy.ToRecord()}).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");
  auto r = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 2.0);
  EXPECT_EQ(r->stats.join_pairs, 9);
}

TEST_F(ObliDbTest, ObliviousJoinMatchesHashJoin) {
  // Under the default pair limit the COUNT join runs the oblivious
  // sort-merge join; a limit of 1 sends the same data to the executor's
  // counting pass.
  // Answers and virtual cost must agree.
  std::vector<Record> ys, gs;
  for (int64_t t = 0; t < 60; ++t) ys.push_back(Trip(t, 10));
  for (int64_t t = 30; t < 90; ++t) gs.push_back(Trip(t, 20));
  ASSERT_TRUE(yellow_->Setup(ys).ok());
  ASSERT_TRUE(green_->Setup(gs).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");

  auto oblivious = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(oblivious.ok());

  ObliDbConfig tiny_limit;
  tiny_limit.oblivious_join_limit = 1;  // force the counting pass
  ObliDbServer hash_server(tiny_limit);
  auto y2 = hash_server.CreateTable("YellowCab", TripSchema());
  auto g2 = hash_server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(y2.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_TRUE(y2.value()->Setup(ys).ok());
  ASSERT_TRUE(g2.value()->Setup(gs).ok());
  auto hash = PrepareAndExecute(hash_server, q.value());
  ASSERT_TRUE(hash.ok());

  EXPECT_DOUBLE_EQ(oblivious->result.scalar, 30.0);
  EXPECT_DOUBLE_EQ(hash->result.scalar, oblivious->result.scalar);
  // The virtual cost is charged identically on both paths.
  EXPECT_DOUBLE_EQ(hash->stats.virtual_seconds,
                   oblivious->stats.virtual_seconds);
}

TEST_F(ObliDbTest, UnknownTableQueryFails) {
  auto q = query::ParseSelect("SELECT COUNT(*) FROM Nope");
  EXPECT_FALSE(PrepareAndExecute(*server_, q.value()).ok());
}

TEST_F(ObliDbTest, VirtualCostGrowsWithData) {
  ASSERT_TRUE(yellow_->Setup({Trip(1, 10)}).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  auto before = PrepareAndExecute(*server_, q.value());
  std::vector<Record> batch;
  for (int64_t i = 0; i < 500; ++i) batch.push_back(Trip(10 + i, 20));
  ASSERT_TRUE(yellow_->Update(batch).ok());
  auto after = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->stats.virtual_seconds, before->stats.virtual_seconds);
}

TEST(ObliDbOramTest, IndexedModeMatchesLinearMode) {
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 512;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_TRUE(t.value()->Setup(records).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 10 AND 19");
  auto r = PrepareAndExecute(server, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 40.0);
  // The ORAM really was exercised: one path access per record per scan
  // (plus one mirror write per record).
  auto* table = dynamic_cast<EncryptedTableStore*>(t.value());
  ASSERT_NE(table, nullptr);
  ASSERT_NE(table->mirror(), nullptr);
  EXPECT_GE(table->mirror()->StashStats().access_count, 400);
}

// -------------------------------------------------------- Sharded engines

std::vector<Record> ShardTestRecords() {
  std::vector<Record> records;
  for (int64_t i = 0; i < 300; ++i) records.push_back(Trip(i, i % 40));
  records.push_back(Trip(300, 10, /*dummy=*/true));
  return records;
}

TEST(ShardedEngineTest, ObliDbAnswersIdenticalOnFourShards) {
  ObliDbServer flat;
  ObliDbConfig sharded_cfg;
  sharded_cfg.storage.num_shards = 4;
  ObliDbServer sharded(sharded_cfg);
  for (ObliDbServer* server : {&flat, &sharded}) {
    auto t = server->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t.value()->Setup(ShardTestRecords()).ok());
  }
  for (const char* sql :
       {"SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 5 AND 25",
        "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID",
        "SELECT SUM(fare) FROM YellowCab",
        "SELECT AVG(tripDistance) FROM YellowCab"}) {
    auto q = query::ParseSelect(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto a = PrepareAndExecute(flat, q.value());
    auto b = PrepareAndExecute(sharded, q.value());
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    EXPECT_EQ(a->result.scalar, b->result.scalar) << sql;
    EXPECT_EQ(a->result.groups, b->result.groups) << sql;
    // Per-shard scan work aggregates to the flat count: QET unchanged.
    EXPECT_EQ(a->stats.records_scanned, b->stats.records_scanned) << sql;
    EXPECT_DOUBLE_EQ(a->stats.virtual_seconds, b->stats.virtual_seconds)
        << sql;
  }
}

TEST(ShardedEngineTest, ObliDbJoinIdenticalOnFourShards) {
  ObliDbConfig cfg;
  cfg.storage.num_shards = 4;
  ObliDbServer sharded(cfg);
  ObliDbServer flat;
  for (ObliDbServer* server : {&flat, &sharded}) {
    auto y = server->CreateTable("YellowCab", TripSchema());
    auto g = server->CreateTable("GreenTaxi", TripSchema());
    ASSERT_TRUE(y.ok());
    ASSERT_TRUE(g.ok());
    std::vector<Record> ys, gs;
    for (int64_t t = 0; t < 50; ++t) ys.push_back(Trip(t, 10));
    for (int64_t t = 25; t < 75; ++t) gs.push_back(Trip(t, 20));
    ASSERT_TRUE(y.value()->Setup(ys).ok());
    ASSERT_TRUE(g.value()->Setup(gs).ok());
  }
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");
  auto a = PrepareAndExecute(flat, q.value());
  auto b = PrepareAndExecute(sharded, q.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->result.scalar, 25.0);
  EXPECT_DOUBLE_EQ(b->result.scalar, a->result.scalar);
  EXPECT_EQ(b->stats.join_pairs, a->stats.join_pairs);
}

TEST(ShardedEngineTest, CryptEpsNoiseStreamUnchangedBySharding) {
  // The DP release must depend only on the seed and the query stream —
  // never on physical record placement.
  CryptEpsConfig flat_cfg;
  CryptEpsConfig sharded_cfg;
  sharded_cfg.storage.num_shards = 4;
  CryptEpsServer flat(flat_cfg);
  CryptEpsServer sharded(sharded_cfg);
  for (CryptEpsServer* server : {&flat, &sharded}) {
    auto t = server->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t.value()->Setup(ShardTestRecords()).ok());
  }
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  for (int i = 0; i < 5; ++i) {
    auto a = PrepareAndExecute(flat, q.value());
    auto b = PrepareAndExecute(sharded, q.value());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result.scalar, b->result.scalar) << "query " << i;
  }
}

TEST(ShardedEngineTest, OramIndexedModeWorksOverShards) {
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 512;
  cfg.storage.num_shards = 4;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_TRUE(t.value()->Setup(records).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 10 AND 19");
  auto r = PrepareAndExecute(server, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 40.0);

  auto* table = dynamic_cast<EncryptedTableStore*>(t.value());
  ASSERT_NE(table, nullptr);
  const auto* mirror = table->mirror();
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->num_shards(), 4);
  // The mirror is one Path ORAM per storage shard, and each record's block
  // joins the tree of the shard its ciphertext was stored on: every tree
  // holds exactly as many blocks as its shard holds records.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(static_cast<int64_t>(mirror->tree(s).size()),
              table->shard_count(s))
        << "shard " << s;
  }
  // The scan paid one oblivious path per record, charged at the per-shard
  // tree height: 512 blocks over 4 shards -> 128-capacity trees -> 8
  // buckets per path.
  EXPECT_EQ(r->stats.oram_paths, 200);
  EXPECT_EQ(r->stats.oram_buckets, 1600);
  EXPECT_GT(r->stats.oram_virtual_seconds, 0.0);
}

TEST(ShardedEngineTest, MirrorCapacityFailureIsStickyAndLoud) {
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 16;  // far below the record count
  cfg.storage.num_shards = 4;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 100; ++i) records.push_back(Trip(i, i % 50));
  auto setup = t.value()->Setup(records);
  ASSERT_EQ(setup.code(), StatusCode::kOutOfRange);
  // The index diverged from the store; later operations must surface the
  // original capacity cause, not a secondary out-of-sync symptom.
  auto update = t.value()->Update({Trip(200, 3)});
  EXPECT_EQ(update.code(), StatusCode::kOutOfRange);
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  auto r = PrepareAndExecute(server, q.value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ShardedEngineTest, EngineExposesPerShardTranscripts) {
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 512;
  cfg.record_oram_trace = true;
  cfg.storage.num_shards = 4;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_TRUE(t.value()->Setup(records).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(PrepareAndExecute(server, q.value()).ok());

  auto* table = dynamic_cast<EncryptedTableStore*>(t.value());
  ASSERT_NE(table, nullptr);
  auto transcripts = testutil::AggregateOramTranscripts(*table->mirror());
  ASSERT_EQ(transcripts.size(), 4u);
  int64_t total = 0;
  for (const auto& tr : transcripts) {
    EXPECT_GT(tr.accesses, 0) << "shard " << tr.shard;
    total += tr.accesses;
  }
  // One mirror write + one scan touch per record, split across shards.
  EXPECT_EQ(total, 400);

  auto health = server.oram_health();
  EXPECT_TRUE(health.enabled);
  EXPECT_EQ(health.access_count, 400);
  ASSERT_EQ(health.shard_access_counts.size(), 4u);
}

TEST(ShardedEngineTest, IndexedAnswersInvariantInShardCount) {
  // Same data, same queries, shard counts {1, 4}: indexed-mode answers and
  // headline costs must be identical; only the ORAM bucket accounting may
  // (and must) reflect the shorter per-shard trees.
  auto run = [](int shards) {
    ObliDbConfig cfg;
    cfg.use_oram_index = true;
    cfg.oram_capacity = 512;
    cfg.storage.num_shards = shards;
    auto server = std::make_unique<ObliDbServer>(cfg);
    auto t = server->CreateTable("YellowCab", TripSchema());
    EXPECT_TRUE(t.ok());
    std::vector<Record> records;
    for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 50));
    EXPECT_TRUE(t.value()->Setup(records).ok());
    auto q = query::ParseSelect(
        "SELECT pickupID, COUNT(*) AS C FROM YellowCab GROUP BY pickupID");
    auto r = PrepareAndExecute(*server, q.value());
    EXPECT_TRUE(r.ok());
    return std::move(r.value());
  };
  auto flat = run(1);
  auto sharded = run(4);
  EXPECT_EQ(flat.result.L1DistanceTo(sharded.result), 0.0);
  EXPECT_EQ(flat.stats.records_scanned, sharded.stats.records_scanned);
  EXPECT_EQ(flat.stats.virtual_seconds, sharded.stats.virtual_seconds);
  EXPECT_EQ(flat.stats.oram_paths, sharded.stats.oram_paths);
  // 512-capacity tree: 10 buckets/path; four 128-capacity trees: 8.
  EXPECT_EQ(flat.stats.oram_buckets, 200 * 10);
  EXPECT_EQ(sharded.stats.oram_buckets, 200 * 8);
  EXPECT_LT(sharded.stats.oram_virtual_seconds,
            flat.stats.oram_virtual_seconds);
}

// -------------------------------------------------------------- Crypt-eps

class CryptEpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CryptEpsConfig cfg;
    cfg.query_epsilon = 3.0;
    server_ = std::make_unique<CryptEpsServer>(cfg);
    auto t = server_->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    table_ = t.value();
  }

  std::unique_ptr<CryptEpsServer> server_;
  EdbTable* table_ = nullptr;
};

TEST_F(CryptEpsTest, NoisyCountNearTruth) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 1000; ++i) records.push_back(Trip(i, 60));
  ASSERT_TRUE(table_->Setup(records).ok());
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100");
  auto r = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->result.scalar, 1000.0, 10.0);  // Lap(1/3) noise is tiny
}

TEST_F(CryptEpsTest, AnswersAreActuallyNoisy) {
  ASSERT_TRUE(table_->Setup({Trip(1, 60)}).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  bool saw_nonint = false;
  for (int i = 0; i < 50 && !saw_nonint; ++i) {
    auto r = PrepareAndExecute(*server_, q.value());
    ASSERT_TRUE(r.ok());
    saw_nonint = (r->result.scalar != 1.0);
  }
  EXPECT_TRUE(saw_nonint);
}

TEST_F(CryptEpsTest, DummiesExcludedBeforeNoise) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 500; ++i) records.push_back(Trip(i, 60));
  for (int64_t i = 0; i < 500; ++i) {
    records.push_back(Trip(i, 60, /*dummy=*/true));
  }
  ASSERT_TRUE(table_->Setup(records).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  auto r = PrepareAndExecute(*server_, q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->result.scalar, 500.0, 10.0);
}

TEST_F(CryptEpsTest, GroupedAnswersNonNegative) {
  ASSERT_TRUE(table_->Setup({Trip(1, 10), Trip(2, 20)}).ok());
  auto q = query::ParseSelect(
      "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID");
  for (int i = 0; i < 20; ++i) {
    auto r = PrepareAndExecute(*server_, q.value());
    ASSERT_TRUE(r.ok());
    for (const auto& [k, v] : r->result.groups) EXPECT_GE(v, 0.0);
  }
}

TEST_F(CryptEpsTest, JoinUnsupported) {
  auto q = query::ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");
  EXPECT_EQ(PrepareAndExecute(*server_, q.value()).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(CryptEpsTest, BudgetAccumulates) {
  ASSERT_TRUE(table_->Setup({Trip(1, 10)}).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  EXPECT_DOUBLE_EQ(server_->consumed_query_budget(), 0.0);
  ASSERT_TRUE(PrepareAndExecute(*server_, q.value()).ok());
  ASSERT_TRUE(PrepareAndExecute(*server_, q.value()).ok());
  EXPECT_DOUBLE_EQ(server_->consumed_query_budget(), 6.0);
}

TEST_F(CryptEpsTest, VirtualCostHigherThanObliDb) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 300; ++i) records.push_back(Trip(i, 60));
  ASSERT_TRUE(table_->Setup(records).ok());
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  auto crypt_cost =
      PrepareAndExecute(*server_, q.value())->stats.virtual_seconds;

  ObliDbServer oblidb;
  auto t2 = oblidb.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t2.value()->Setup(records).ok());
  auto oblidb_cost =
      PrepareAndExecute(oblidb, q.value())->stats.virtual_seconds;
  EXPECT_GT(crypt_cost, oblidb_cost);
}

// ------------------------------------------------ Query API v2 (sessions)

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ObliDbServer>();
    auto t = server_->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    yellow_ = t.value();
    ASSERT_OK(yellow_->Setup({Trip(1, 60), Trip(2, 70), Trip(3, 200),
                              Trip(4, 55), Trip(5, 10, /*dummy=*/true)}));
  }

  std::unique_ptr<ObliDbServer> server_;
  EdbTable* yellow_ = nullptr;
};

TEST_F(QuerySessionTest, PrepareValidatesUpFront) {
  auto session = server_->CreateSession();
  EXPECT_EQ(session->Prepare("SELECT COUNT(*) FROM Nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session->Prepare("SELECT pickupID FROM YellowCab")
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(session
                ->Prepare("SELECT typo, COUNT(*) FROM YellowCab "
                          "GROUP BY typo")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(session->Prepare("SELECT COUNT( FROM YellowCab").ok());
}

TEST_F(QuerySessionTest, PlanCacheCountsHitsAcrossSpellingsAndSessions) {
  auto s1 = server_->CreateSession();
  auto s2 = server_->CreateSession();
  auto q1 = s1->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(q1->from_plan_cache());
  // Different spelling, same canonical text, different session: a hit on
  // the shared server cache.
  auto q2 = s2->Prepare("select   count(*)   from YellowCab");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->from_plan_cache());
  EXPECT_EQ(q1->fingerprint(), q2->fingerprint());

  auto stats = server_->stats();
  EXPECT_EQ(stats.prepares, 2);
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.plan_cache_misses, 1);
}

namespace {

/// Synthetic cached plan: the cache only inspects fingerprint,
/// canonical_text and catalog_epoch.
std::shared_ptr<const query::QueryPlan> FakePlan(uint64_t fingerprint,
                                                 uint64_t epoch = 0) {
  auto plan = std::make_shared<query::QueryPlan>();
  plan->fingerprint = fingerprint;
  plan->catalog_epoch = epoch;
  plan->canonical_text = "Q" + std::to_string(fingerprint);
  return plan;
}

}  // namespace

TEST(PlanCacheTest, LruEvictionHammeredPastTheCap) {
  // Hammer insertion far past the cap: the cache must stay bounded, keep
  // exactly the most-recently-used tail of the stream, and evict in true
  // LRU order — each eviction in O(1) off the intrusive recency list (a
  // linear victim scan here would be quadratic across the hammer loop).
  constexpr size_t kCap = 64;
  constexpr uint64_t kInserted = 10 * kCap;
  PlanCache cache(kCap);
  for (uint64_t f = 1; f <= kInserted; ++f) {
    cache.Insert(FakePlan(f));
    ASSERT_LE(cache.size(), kCap);
  }
  EXPECT_EQ(cache.size(), kCap);
  // Survivors are exactly the last kCap distinct fingerprints.
  for (uint64_t f = kInserted - kCap + 1; f <= kInserted; ++f) {
    EXPECT_TRUE(cache.Contains(f)) << f;
  }
  EXPECT_FALSE(cache.Contains(kInserted - kCap));

  // A catalog-epoch bump sweeps the whole surviving tail in one call
  // (EdbServer::CreateTable does this on every catalog change) instead of
  // leaving dead-epoch plans pinned until their fingerprints recur.
  cache.EvictStaleEpoch(/*catalog_epoch=*/1);
  EXPECT_EQ(cache.size(), 0u);
  // The recency list was swept along with the map: the cache keeps
  // working at full capacity afterwards.
  for (uint64_t f = 1; f <= 2 * kCap; ++f) {
    cache.Insert(FakePlan(f, /*epoch=*/1));
    ASSERT_LE(cache.size(), kCap);
  }
  EXPECT_EQ(cache.size(), kCap);
}

TEST(PlanCacheTest, EvictStaleEpochSweepsOnlyStaleEntries) {
  PlanCache cache(8);
  cache.Insert(FakePlan(1, /*epoch=*/0));
  cache.Insert(FakePlan(2, /*epoch=*/1));
  cache.Insert(FakePlan(3, /*epoch=*/0));
  cache.EvictStaleEpoch(/*catalog_epoch=*/1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(3));
  // The sweep counts no hits or misses — it is bookkeeping, not lookups.
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  // The survivor is still served.
  EXPECT_NE(cache.Lookup(2, "Q2", 1), nullptr);
}

TEST(PlanCacheTest, LookupRefreshesRecency) {
  PlanCache cache(3);
  for (uint64_t f : {1u, 2u, 3u}) cache.Insert(FakePlan(f));
  // Touch 1: it becomes most-recent, so inserting 4 must evict 2.
  EXPECT_NE(cache.Lookup(1, "Q1", 0), nullptr);
  cache.Insert(FakePlan(4));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  // Re-inserting an existing fingerprint refreshes, never grows.
  cache.Insert(FakePlan(3));
  EXPECT_EQ(cache.size(), 3u);
  cache.Insert(FakePlan(5));
  EXPECT_FALSE(cache.Contains(1));  // 1 was now the LRU
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PlanCacheTest, StaleEpochEvictsOnLookupAndKeepsListConsistent) {
  PlanCache cache(2);
  cache.Insert(FakePlan(1, /*epoch=*/0));
  cache.Insert(FakePlan(2, /*epoch=*/0));
  // Lookup at a newer catalog epoch: the stale entry is dropped from both
  // the map and the recency list (a dangling list node would corrupt the
  // next eviction).
  EXPECT_EQ(cache.Lookup(1, "Q1", /*catalog_epoch=*/1), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(FakePlan(3, 1));
  cache.Insert(FakePlan(4, 1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Contains(2));  // evicted as LRU, not crashed over
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST_F(QuerySessionTest, StalePlansRebindAfterSchemaChange) {
  auto session = server_->CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  auto first = session->Execute(q.value());
  ASSERT_TRUE(first.ok());
  // Planning happened at Prepare.
  EXPECT_TRUE(first->stats.plan_cache_hit);
  const uint64_t epoch_before = server_->catalog_epoch();

  // A catalog change invalidates the binding; execution transparently
  // re-plans and still answers. The re-plan misses the cache, which
  // CreateTable swept of stale plans.
  ASSERT_TRUE(server_->CreateTable("GreenTaxi", TripSchema()).ok());
  EXPECT_GT(server_->catalog_epoch(), epoch_before);
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 4.0);
  EXPECT_FALSE(r->stats.plan_cache_hit);
  EXPECT_EQ(server_->stats().plan_rebinds, 1);

  // The re-bound plan is cached: the next stale handle execution hits it
  // without another full plan.
  auto again = session->Execute(q.value());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.plan_cache_hit);
  EXPECT_EQ(server_->stats().plan_rebinds, 2);
  EXPECT_GE(server_->stats().plan_cache_hits, 1);
}

TEST_F(QuerySessionTest, AppendsDoNotInvalidatePlans) {
  auto session = server_->CreateSession();
  auto q = session->Prepare(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100");
  ASSERT_TRUE(q.ok());
  auto before = session->Execute(q.value());
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ(before->result.scalar, 3.0);
  // Sync epoch advances (owner appends); the same plan keeps serving.
  ASSERT_OK(yellow_->Update({Trip(6, 80), Trip(7, 90)}));
  auto after = session->Execute(q.value());
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->result.scalar, 5.0);
  EXPECT_EQ(server_->stats().plan_rebinds, 0);
}

TEST_F(QuerySessionTest, CryptEpsNoiseStreamIdenticalAcrossApis) {
  // Same seed, same query sequence: Submit/Wait must consume the noise
  // RNG exactly like Execute.
  auto make = [] {
    CryptEpsConfig cfg;
    cfg.master_seed = 77;
    auto server = std::make_unique<CryptEpsServer>(cfg);
    auto t = server->CreateTable("YellowCab", TripSchema());
    EXPECT_TRUE(t.ok());
    EXPECT_TRUE(
        t.value()->Setup({Trip(1, 60), Trip(2, 70), Trip(3, 80)}).ok());
    return server;
  };
  auto sync = make();
  auto async = make();
  auto sync_session = sync->CreateSession();
  auto async_session = async->CreateSession();
  const std::string sql = "SELECT COUNT(*) FROM YellowCab";
  auto sync_q = sync_session->Prepare(sql);
  auto async_q = async_session->Prepare(sql);
  ASSERT_TRUE(sync_q.ok());
  ASSERT_TRUE(async_q.ok());
  for (int i = 0; i < 5; ++i) {
    auto a = sync_session->Execute(sync_q.value());
    auto ticket = async_session->Submit(async_q.value());
    ASSERT_TRUE(ticket.ok());
    auto b = async_session->Wait(ticket.value());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(testutil::DoubleBits(b->result.scalar),
              testutil::DoubleBits(a->result.scalar))
        << i;
  }
}

TEST_F(QuerySessionTest, AdmissionDeadlineSurfacesAsDeadlineExceeded) {
  // Saturate a single-slot server with an async burst, then ask for an
  // impossible admission deadline.
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 1;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 5000; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_OK(t.value()->Setup(records));
  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  // Keep the slot busy long enough via a burst of async queries...
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = session->Submit(q.value());
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  // ...and race it with tight-deadline queries until one gets queued
  // behind the burst. (If the burst drains first, every call just
  // succeeds — the loop tolerates that, but with 8 scans of 5000 records
  // ahead, a sub-microsecond deadline reliably trips at least once.)
  bool saw_deadline = false;
  for (int i = 0; i < 8 && !saw_deadline; ++i) {
    QueryOptions opts;
    opts.admission_timeout_seconds = 1e-7;
    auto r = session->Execute(q.value(), opts);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
      saw_deadline = true;
    }
  }
  for (const auto& ticket : tickets) ASSERT_TRUE(session->Wait(ticket).ok());
  EXPECT_EQ(saw_deadline, server.stats().deadlines_exceeded > 0);
}

TEST_F(QuerySessionTest, TimeoutBeyondTheClockWaitsIndefinitely) {
  // The burst of AdmissionDeadlineSurfacesAsDeadlineExceeded, raced by
  // queries that ask to wait forever: a timeout past the steady clock's
  // range is no deadline at all, so every one of them is admitted.
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 1;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Record> records;
  for (int64_t i = 0; i < 5000; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_OK(t.value()->Setup(records));
  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  QueryOptions forever;
  forever.admission_timeout_seconds = std::numeric_limits<double>::infinity();
  int failed = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<QueryTicket> tickets;
    for (int i = 0; i < 8; ++i) {
      auto ticket = session->Submit(q.value());
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(ticket.value());
    }
    for (int i = 0; i < 8; ++i) {
      if (!session->Execute(q.value(), forever).ok()) ++failed;
    }
    for (const auto& ticket : tickets) {
      ASSERT_TRUE(session->Wait(ticket).ok());
    }
  }
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(server.stats().deadlines_exceeded, 0);
  EXPECT_EQ(server.stats().queries_executed, 5 * 16);
}

TEST_F(QuerySessionTest, NanTimeoutIsRefused) {
  auto session = server_->CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  QueryOptions nan;
  nan.admission_timeout_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(session->Execute(q.value(), nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Submit(q.value(), nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server_->stats().queries_executed, 0);
}

}  // namespace
}  // namespace dpsync::edb
