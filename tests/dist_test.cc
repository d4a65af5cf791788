// Tests for the distributed plan-shipping layer (src/dist/): the
// scatter-gather coordinator must be bit-identical to the single-process
// engine — answers (including grouped maps), records_scanned, the
// virtual QET and the ORAM counters — across backends x server counts,
// because server k owns the contiguous global shard range
// [S*k/K, S*(k+1)/K) and the rank-order merge replays the exact
// single-process Add()/Merge() sequence. Also covered: typed
// Unavailable within the RPC deadline when a server dies, an owner batch
// over the frame bound refused at the coordinator without a failover,
// Setup/Update state machine, topology validation, racing owner appends
// through the coordinator (the CI TSan job leans on this), the
// multi-table TickAll, and plan shipping: a shard plans a text at its
// first Execute and keeps a bounded plan cache.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/shard_router.h"
#include "core/engine.h"
#include "core/naive_strategies.h"
#include "crypto/record_cipher.h"
#include "dist/coordinator.h"
#include "edb/oblidb_engine.h"
#include "edb/plan_cache.h"
#include "net/wire.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::dist {
namespace {

using testutil::PrepareAndExecute;
using testutil::Trip;
using workload::TripSchema;

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Bit-level equality of two responses: result (scalar or grouped, doubles
/// compared by bit pattern so -0.0 vs 0.0 or any rounding drift fails) and
/// the deterministic stats fields.
void ExpectBitIdentical(const edb::QueryResponse& dist,
                        const edb::QueryResponse& local) {
  EXPECT_EQ(dist.result.grouped, local.result.grouped);
  EXPECT_EQ(BitsOf(dist.result.scalar), BitsOf(local.result.scalar));
  ASSERT_EQ(dist.result.groups.size(), local.result.groups.size());
  auto it = local.result.groups.begin();
  for (const auto& [key, value] : dist.result.groups) {
    EXPECT_TRUE(key == it->first) << key.ToString() << " vs "
                                  << it->first.ToString();
    EXPECT_EQ(BitsOf(value), BitsOf(it->second));
    ++it;
  }
  EXPECT_EQ(dist.stats.records_scanned, local.stats.records_scanned);
  EXPECT_EQ(BitsOf(dist.stats.virtual_seconds),
            BitsOf(local.stats.virtual_seconds));
  EXPECT_EQ(dist.stats.oram_paths, local.stats.oram_paths);
  EXPECT_EQ(dist.stats.oram_buckets, local.stats.oram_buckets);
  EXPECT_EQ(BitsOf(dist.stats.oram_virtual_seconds),
            BitsOf(local.stats.oram_virtual_seconds));
}

Record FareTrip(int64_t t, int64_t zone, double fare, bool dummy = false) {
  workload::TripRecord trip;
  trip.pick_time = t;
  trip.pickup_id = zone;
  trip.dropoff_id = zone;
  trip.trip_distance = 0.25 * static_cast<double>(t % 7);
  trip.fare = fare;
  trip.is_dummy = dummy;
  return trip.ToRecord();
}

std::vector<Record> MakeBatch(int64_t lo, int64_t hi) {
  std::vector<Record> batch;
  for (int64_t t = lo; t < hi; ++t) {
    // 0.1 is NOT exactly representable in binary, so these fares make
    // SUM/AVG genuinely order-sensitive: any deviation from the local
    // engine's span-aligned merge tree (a pre-merged per-server fold, a
    // rank swap) changes low-order bits and fails the identity checks.
    // Dyadic fares would mask exactly that class of bug.
    batch.push_back(FareTrip(t, 10 + (t % 5) * 10, 2.5 + 0.1 * (t % 11),
                             /*dummy=*/t % 9 == 0));
  }
  return batch;
}

const std::vector<std::string>& QuerySuite() {
  static const std::vector<std::string> kQueries = {
      "SELECT COUNT(*) FROM YellowCab",
      "SELECT SUM(fare) FROM YellowCab WHERE pickupID BETWEEN 20 AND 40",
      "SELECT AVG(fare) FROM YellowCab WHERE pickTime >= 12",
      "SELECT pickupID, COUNT(*) FROM YellowCab GROUP BY pickupID",
      "SELECT pickupID, SUM(fare) FROM YellowCab GROUP BY pickupID",
  };
  return kQueries;
}

/// The backend variants the bit-identity sweep covers, with a factory for
/// the single-process twin the coordinator must match.
struct Variant {
  const char* label;
  bool use_oram_index;
};

constexpr Variant kVariants[] = {
    {"oblidb-linear", false},
    {"oblidb-indexed", true},
};

constexpr int kGlobalShards = 6;

DistributedConfig MakeDistConfig(const Variant& v, int servers) {
  DistributedConfig cfg;
  cfg.num_servers = servers;
  cfg.oblidb.storage.num_shards = kGlobalShards;
  cfg.oblidb.use_oram_index = v.use_oram_index;
  cfg.oblidb.oram_capacity = 1 << 10;
  return cfg;
}

/// The coordinator `v` names over `servers` shard servers.
std::unique_ptr<DistributedEdbServer> MakeDist(const Variant& v,
                                               int servers) {
  return std::make_unique<DistributedEdbServer>(MakeDistConfig(v, servers));
}

/// Single-process twin with the identical global topology. The twin
/// answers eligible aggregates from materialized views while the
/// coordinator always merges raw partials, so the two move different
/// counters (answers must still match bit for bit).
std::unique_ptr<edb::EdbServer> MakeLocalTwin(const Variant& v) {
  edb::ObliDbConfig cfg;
  cfg.storage.num_shards = kGlobalShards;
  cfg.use_oram_index = v.use_oram_index;
  cfg.oram_capacity = 1 << 10;
  return std::make_unique<edb::ObliDbServer>(cfg);
}

/// `rows` records reach both sides: one setup batch, then three 8-record
/// updates.
void RunIdentitySweep(const Variant& v, int servers, int64_t rows = 64) {
  SCOPED_TRACE(std::string(v.label) + " x " + std::to_string(servers) +
               " servers, " + std::to_string(rows) + " rows");
  auto dist_server = MakeDist(v, servers);
  DistributedEdbServer& dist = *dist_server;
  ASSERT_OK(dist.init_status());
  auto local = MakeLocalTwin(v);

  auto dist_table = dist.CreateTable("YellowCab", TripSchema());
  auto local_table = local->CreateTable("YellowCab", TripSchema());
  ASSERT_OK(dist_table);
  ASSERT_OK(local_table);

  // Identical owner traffic: one setup batch, then incremental updates —
  // the same Pi_Setup / Pi_Update sequence on both sides.
  ASSERT_OK(dist_table.value()->Setup(MakeBatch(0, rows - 24)));
  ASSERT_OK(local_table.value()->Setup(MakeBatch(0, rows - 24)));
  for (int64_t t = rows - 24; t < rows; t += 8) {
    ASSERT_OK(dist_table.value()->Update(MakeBatch(t, t + 8)));
    ASSERT_OK(local_table.value()->Update(MakeBatch(t, t + 8)));
  }
  EXPECT_EQ(dist.total_outsourced_records(), local->total_outsourced_records());
  EXPECT_EQ(dist.total_outsourced_bytes(), local->total_outsourced_bytes());

  // Identical query sequence, in the same order on both sides.
  for (const auto& sql : QuerySuite()) {
    SCOPED_TRACE(sql);
    auto q = query::ParseSelect(sql);
    ASSERT_OK(q);
    auto dist_resp = PrepareAndExecute(dist, q.value());
    auto local_resp = PrepareAndExecute(*local, q.value());
    ASSERT_OK(dist_resp);
    ASSERT_OK(local_resp);
    ExpectBitIdentical(dist_resp.value(), local_resp.value());
  }

  // The distributed counters: one scatter per execution, one partial per
  // server per scatter.
  auto stats = dist.stats();
  EXPECT_EQ(stats.remote_scatters,
            static_cast<int64_t>(QuerySuite().size()));
  EXPECT_EQ(stats.remote_partials,
            static_cast<int64_t>(QuerySuite().size()) * servers);
  EXPECT_EQ(local->stats().remote_scatters, 0);
  // Every distributed scan is a snapshot scan; locally, a view hit stands
  // in for one.
  EXPECT_EQ(stats.snapshot_scans,
            local->stats().snapshot_scans + local->stats().view_hits);
}

TEST(DistBitIdentityTest, MatchesLocalEngineAcrossBackendsAndServerCounts) {
  for (const auto& v : kVariants) {
    for (int servers : {1, 4}) {
      RunIdentitySweep(v, servers);
    }
  }
  // A table whose every shard holds more than one 4,096-row enclave
  // mirror chunk, so each shard server folds and ships cells from several
  // chunks. This input replaces the retired distributed sweep's in-binary
  // check of its multi-chunk cells against the local engine.
  constexpr int64_t kMultiChunkRows = 30000;
  ShardRouter router(kGlobalShards);
  std::vector<int64_t> per_shard(kGlobalShards, 0);
  for (const auto& r : MakeBatch(0, kMultiChunkRows)) {
    ++per_shard[static_cast<size_t>(router.Route(r.payload))];
  }
  for (int64_t n : per_shard) ASSERT_GT(n, 4096);
  RunIdentitySweep(kVariants[0], 4, kMultiChunkRows);
}

TEST(DistTransportTest, RpcAndByteCountersAreDeterministic) {
  Variant v{"oblidb-linear", false};
  auto run = [&](DistributedEdbServer& server) {
    auto table = server.CreateTable("YellowCab", TripSchema());
    ASSERT_OK(table);
    ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));
    ASSERT_OK(table.value()->Update(MakeBatch(16, 24)));
    auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
    ASSERT_OK(q);
    ASSERT_OK(PrepareAndExecute(server, q.value()));
    ASSERT_OK(PrepareAndExecute(server, q.value()));
  };
  DistributedEdbServer a(MakeDistConfig(v, 3));
  DistributedEdbServer b(MakeDistConfig(v, 3));
  ASSERT_OK(a.init_status());
  ASSERT_OK(b.init_status());
  run(a);
  run(b);
  EXPECT_GT(a.rpc_calls(), 0);
  EXPECT_GT(a.bytes_shipped(), 0);
  EXPECT_EQ(a.rpc_calls(), b.rpc_calls());
  EXPECT_EQ(a.bytes_shipped(), b.bytes_shipped());
}

// ------------------------------------------------------ failure semantics

TEST(DistFailureTest, KilledServerYieldsUnavailableWithinDeadline) {
  DistributedConfig cfg = MakeDistConfig({"oblidb-linear", false}, 4);
  cfg.rpc_timeout_seconds = 2.0;
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 24)));

  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_OK(PrepareAndExecute(dist, q.value()));

  ASSERT_OK(dist.KillServer(2));
  EXPECT_EQ(dist.KillServer(7).code(), StatusCode::kOutOfRange);

  auto start = std::chrono::steady_clock::now();
  auto resp = PrepareAndExecute(dist, q.value());
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  // The error names the failing rank, and arrives well inside the
  // 2-second RPC deadline plus sanitizer headroom — never a hang.
  EXPECT_NE(resp.status().message().find("shard server 2"), std::string::npos)
      << resp.status().ToString();
  EXPECT_LT(elapsed, 30.0);

  // Owner traffic reaching the dead server fails the same way. Updates
  // ship only to the ranks the batch's records route to (FNV-1a over the
  // payload bytes — content-dependent, and the fare arithmetic's low bits
  // vary with FP contraction across build modes), so no single small
  // batch is guaranteed to touch rank 2: keep shipping until one does.
  // Each 8-record batch misses one of 4 ranks with probability ~(3/4)^8,
  // so 40 batches never landing on rank 2 would be a routing bug.
  Status up = Status::Ok();
  for (int64_t lo = 24; up.ok() && lo < 24 + 40 * 8; lo += 8) {
    up = table.value()->Update(MakeBatch(lo, lo + 8));
  }
  ASSERT_FALSE(up.ok());
  EXPECT_EQ(up.code(), StatusCode::kUnavailable);
  EXPECT_NE(up.message().find("shard server 2"), std::string::npos)
      << up.ToString();
}

TEST(DistFailureTest, OversizedOwnerBatchIsRefusedBeforeAnySend) {
  // One Update whose ingest message exceeds kMaxFrameBytes. The encoder
  // refuses it with ResourceExhausted before anything is sent, so the
  // replicated rank is neither failed over nor lost, and the owner's
  // next batch and queries proceed normally.
  DistributedConfig cfg = MakeDistConfig({"oblidb-linear", false}, 1);
  cfg.replication_factor = 1;
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));

  // Each record travels as a one-byte shard index, a one-byte length and
  // its ciphertext.
  const size_t wire_bytes_per_record =
      crypto::RecordCipher::kCiphertextSize + 2;
  const std::vector<Record> oversized(
      net::kMaxFrameBytes / wire_bytes_per_record + 1, FareTrip(99, 10, 2.5));
  Status refused = table.value()->Update(oversized);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted)
      << refused.ToString();
  EXPECT_EQ(dist.stats().failovers, 0);

  ASSERT_OK(table.value()->Update(MakeBatch(16, 24)));
  EXPECT_EQ(dist.total_outsourced_records(), 24);
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  auto resp = PrepareAndExecute(dist, q.value());
  ASSERT_OK(resp);
  EXPECT_EQ(resp.value().result.scalar, 21.0);  // t % 9 == 0 are dummies
  EXPECT_EQ(dist.stats().failovers, 0);
}

// --------------------------------------------------- state machine + init

TEST(DistStateMachineTest, SetupAndUpdateOrderingEnforced) {
  DistributedEdbServer dist(MakeDistConfig({"oblidb-linear", false}, 2));
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  auto early = table.value()->Update(MakeBatch(0, 4));
  EXPECT_EQ(early.code(), StatusCode::kFailedPrecondition);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 8)));
  auto again = table.value()->Setup(MakeBatch(8, 12));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dist.CreateTable("YellowCab", TripSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DistInitTest, BadTopologyReportsInvalidArgument) {
  {
    DistributedConfig cfg = MakeDistConfig({"oblidb-linear", false}, 0);
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(dist.CreateTable("T", TripSchema()).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // More servers than global shards: some server would own nothing.
    DistributedConfig cfg =
        MakeDistConfig({"oblidb-linear", false}, kGlobalShards + 1);
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
  }
  {
    DistributedConfig cfg = MakeDistConfig({"oblidb-linear", false}, 2);
    cfg.oblidb.storage.flush_every_update = false;
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
  }
  // An RPC deadline that is not finite and positive would let a hung
  // server hang the coordinator.
  for (double timeout : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(timeout);
    DistributedConfig cfg = MakeDistConfig({"oblidb-linear", false}, 2);
    cfg.rpc_timeout_seconds = timeout;
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DistPlanShippingTest, PlansShipOnlyInExecute) {
  // Prepare stays at the coordinator: no RPC, and no shard has planned
  // the text. Each leader plans it at its first Execute and reuses it.
  DistributedEdbServer dist(MakeDistConfig({"oblidb-linear", false}, 2));
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 8)));
  auto session = dist.CreateSession();
  const int64_t rpcs = dist.rpc_calls();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  EXPECT_EQ(dist.rpc_calls(), rpcs);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(dist.ShardServerForTest(rank, 0)->cached_plans(), 0u);
  }
  for (int run = 0; run < 2; ++run) {
    ASSERT_OK(session->Execute(q.value()));
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_EQ(dist.ShardServerForTest(rank, 0)->cached_plans(), 1u);
    }
  }
  // One kExecute per rank per Execute.
  EXPECT_EQ(dist.rpc_calls(), rpcs + 4);
}

TEST(DistPlanShippingTest, ShardPlanCacheIsBounded) {
  // Every distinct query text a coordinator ships is cached shard-side;
  // the cache must evict past its capacity like the coordinator's own.
  DistributedConfig cfg;
  cfg.num_servers = 1;
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 8)));
  auto session = dist.CreateSession();
  for (int i = 0; i < 600; ++i) {
    auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab WHERE fare > " +
                              std::to_string(i));
    ASSERT_OK(q);
    ASSERT_OK(session->Execute(q.value()));
  }
  EXPECT_EQ(dist.ShardServerForTest(0, 0)->cached_plans(),
            edb::PlanCache::kMaxPlans);
}

TEST(DistPlannerTest, JoinsRejectedAtPrepare) {
  // The coordinator does not join; it names its engine in the refusal
  // and reports ObliDB's leakage class.
  auto dist = MakeDist({"oblidb-linear", false}, 2);
  ASSERT_OK(dist->init_status());
  ASSERT_OK(dist->CreateTable("YellowCab", TripSchema()));
  ASSERT_OK(dist->CreateTable("GreenTaxi", TripSchema()));
  auto session = dist->CreateSession();
  auto refused = session->Prepare(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(refused.status().message(),
            "Distributed+ObliDB does not support join operators");
  EXPECT_EQ(dist->leakage().query_class, edb::LeakageClass::kL0);
}

// ----------------------------------------------------- racing owner writes

TEST(DistConcurrencyTest, QueriesRaceOwnerAppendsThroughTheCoordinator) {
  DistributedEdbServer dist(MakeDistConfig({"oblidb-linear", false}, 4));
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));

  auto q = query::ParseSelect("SELECT SUM(fare) FROM YellowCab");
  ASSERT_OK(q);
  constexpr int kAppendBatches = 12;
  std::thread owner([&] {
    for (int i = 0; i < kAppendBatches; ++i) {
      int64_t lo = 16 + i * 4;
      ASSERT_OK(table.value()->Update(MakeBatch(lo, lo + 4)));
    }
  });
  auto session = dist.CreateSession();
  auto prepared = session->Prepare("SELECT SUM(fare) FROM YellowCab");
  ASSERT_OK(prepared);
  for (int i = 0; i < 20; ++i) {
    auto resp = session->Execute(prepared.value());
    ASSERT_OK(resp);
    // Every answer reflects some committed prefix: scanned row counts are
    // monotone between the pre-race floor and the final total.
    EXPECT_GE(resp->stats.records_scanned, 16);
    EXPECT_LE(resp->stats.records_scanned, 16 + kAppendBatches * 4);
  }
  owner.join();

  auto final_count = PrepareAndExecute(
      dist, query::ParseSelect("SELECT COUNT(*) FROM YellowCab").value());
  ASSERT_OK(final_count);
  EXPECT_EQ(final_count->stats.records_scanned, 16 + kAppendBatches * 4);
}

// ------------------------------------------------ shard server config

TEST(DistOramTest, EveryShardServerRecordsItsPathAccesses) {
  // The coordinator hands each shard server its whole ObliDB config, so
  // the trace flag reaches every shard tree: each tree's transcript holds
  // every path access it made (one mirror write and one scan touch per
  // record).
  DistributedConfig cfg;
  cfg.num_servers = 2;
  cfg.oblidb.storage.num_shards = 4;
  cfg.oblidb.use_oram_index = true;
  cfg.oblidb.oram_capacity = 512;
  cfg.oblidb.record_oram_trace = true;
  DistributedEdbServer server(cfg);
  ASSERT_OK(server.init_status());
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(t);
  std::vector<Record> records;
  for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 50));
  ASSERT_OK(t.value()->Setup(records));
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_OK(PrepareAndExecute(server, q.value()));

  int64_t accesses = 0;
  for (int rank = 0; rank < cfg.num_servers; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    const edb::EncryptedTableStore* table =
        server.ShardServerForTest(rank, 0)->TableForTest("YellowCab");
    ASSERT_NE(table, nullptr);
    const oram::OramMirror* mirror = table->mirror();
    ASSERT_NE(mirror, nullptr);
    for (int s = 0; s < mirror->num_shards(); ++s) {
      const oram::PathOram& tree = mirror->tree(s);
      EXPECT_GT(tree.access_count(), 0) << "shard " << s;
      EXPECT_EQ(static_cast<int64_t>(tree.trace().size()),
                tree.access_count())
          << "shard " << s;
      accesses += tree.access_count();
    }
  }
  EXPECT_EQ(accesses, 400);
}

// ------------------------------------------------- multi-table TickAll

TEST(DistMultiTableTest, TickAllMatchesSequentialTicks) {
  // Two coordinators with identical seeds/topology: one driven by
  // TickAll, the twin by one TickBatch call per engine. All owner-side
  // ground truth and the outsourced state must agree exactly.
  auto make = [] {
    return std::make_unique<DistributedEdbServer>(
        MakeDistConfig({"oblidb-linear", false}, 2));
  };
  auto tick_all_server = make();
  auto twin_server = make();
  ASSERT_OK(tick_all_server->init_status());
  ASSERT_OK(twin_server->init_status());

  const std::vector<std::string> kTables = {"YellowCab", "GreenTaxi",
                                            "FhvTrips"};
  struct Owned {
    std::unique_ptr<DpSyncEngine> engine;
  };
  auto build_engines = [&](DistributedEdbServer* server) {
    std::vector<Owned> engines;
    for (size_t i = 0; i < kTables.size(); ++i) {
      auto table = server->CreateTable(kTables[i], TripSchema());
      EXPECT_OK(table);
      engines.push_back({std::make_unique<DpSyncEngine>(
          std::make_unique<SurStrategy>(), table.value(),
          workload::MakeTripDummyFactory(1000 + i), /*seed=*/77 + i)});
      EXPECT_OK(engines.back().engine->Setup(MakeBatch(0, 8)));
    }
    return engines;
  };
  auto all = build_engines(tick_all_server.get());
  auto twin = build_engines(twin_server.get());

  for (int64_t t = 0; t < 10; ++t) {
    std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work;
    for (size_t i = 0; i < kTables.size(); ++i) {
      work.emplace_back(all[i].engine.get(),
                        MakeBatch(8 + t * 3 + i, 8 + t * 3 + i + 2));
    }
    ASSERT_OK(DpSyncEngine::TickAll(std::move(work)));
    for (size_t i = 0; i < kTables.size(); ++i) {
      ASSERT_OK(twin[i].engine->TickBatch(
          MakeBatch(8 + t * 3 + i, 8 + t * 3 + i + 2)));
    }
  }

  for (size_t i = 0; i < kTables.size(); ++i) {
    const auto& a = all[i].engine->counters();
    const auto& b = twin[i].engine->counters();
    EXPECT_EQ(a.received_total, b.received_total);
    EXPECT_EQ(a.real_synced, b.real_synced);
    EXPECT_EQ(a.dummy_synced, b.dummy_synced);
    EXPECT_EQ(a.updates_posted, b.updates_posted);
    EXPECT_EQ(all[i].engine->logical_gap(), twin[i].engine->logical_gap());
    EXPECT_EQ(all[i].engine->backend_commit_epoch(),
              twin[i].engine->backend_commit_epoch());
  }
  EXPECT_EQ(tick_all_server->total_outsourced_records(),
            twin_server->total_outsourced_records());

  for (const auto& name : kTables) {
    auto q = query::ParseSelect("SELECT COUNT(*) FROM " + name);
    ASSERT_OK(q);
    auto a = PrepareAndExecute(*tick_all_server, q.value());
    auto b = PrepareAndExecute(*twin_server, q.value());
    ASSERT_OK(a);
    ASSERT_OK(b);
    ExpectBitIdentical(a.value(), b.value());
  }
}

}  // namespace
}  // namespace dpsync::dist
