// Tests for the distributed plan-shipping layer (src/dist/): the
// scatter-gather coordinator must be bit-identical to the single-process
// engines — answers (including grouped maps and the Crypt-eps Laplace
// noise stream), records_scanned, the virtual QET and the ORAM counters —
// across backends x server counts, because server k owns the contiguous
// global shard range [S*k/K, S*(k+1)/K) and the rank-order merge replays
// the exact single-process Add()/Merge() sequence. Also covered: typed
// Unavailable within the RPC deadline when a server dies, Setup/Update
// state machine, topology validation, racing owner appends through the
// coordinator (the CI TSan job leans on this), the multi-table TickAll
// fan-out, and the TCP transport.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/naive_strategies.h"
#include "dist/coordinator.h"
#include "edb/crypte_engine.h"
#include "edb/oblidb_engine.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::dist {
namespace {

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
  EXPECT_EQ(dist.stats.revealed_volume, local.stats.revealed_volume);
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
  DistEngineKind engine;
  bool use_oram_index;
};

constexpr Variant kVariants[] = {
    {"oblidb-linear", DistEngineKind::kObliDb, false},
    {"oblidb-indexed", DistEngineKind::kObliDb, true},
    {"crypteps", DistEngineKind::kCryptEps, false},
};

constexpr int kGlobalShards = 6;

DistributedConfig MakeDistConfig(const Variant& v, int servers) {
  DistributedConfig cfg;
  cfg.engine = v.engine;
  cfg.num_servers = servers;
  cfg.oblidb.storage.num_shards = kGlobalShards;
  cfg.oblidb.use_oram_index = v.use_oram_index;
  cfg.oblidb.oram_capacity = 1 << 10;
  cfg.crypteps.storage.num_shards = kGlobalShards;
  return cfg;
}

/// Single-process twin with the identical global topology. The twin
/// answers eligible aggregates from materialized views while the
/// coordinator always merges raw partials, so the two move different
/// counters (answers must still match bit for bit).
std::unique_ptr<edb::EdbServer> MakeLocalTwin(const Variant& v) {
  if (v.engine == DistEngineKind::kCryptEps) {
    edb::CryptEpsConfig cfg;
    cfg.storage.num_shards = kGlobalShards;
    return std::make_unique<edb::CryptEpsServer>(cfg);
  }
  edb::ObliDbConfig cfg;
  cfg.storage.num_shards = kGlobalShards;
  cfg.use_oram_index = v.use_oram_index;
  cfg.oram_capacity = 1 << 10;
  return std::make_unique<edb::ObliDbServer>(cfg);
}

void RunIdentitySweep(const Variant& v, int servers) {
  SCOPED_TRACE(std::string(v.label) + " x " + std::to_string(servers) +
               " servers");
  DistributedEdbServer dist(MakeDistConfig(v, servers));
  ASSERT_OK(dist.init_status());
  auto local = MakeLocalTwin(v);

  auto dist_table = dist.CreateTable("YellowCab", TripSchema());
  auto local_table = local->CreateTable("YellowCab", TripSchema());
  ASSERT_OK(dist_table);
  ASSERT_OK(local_table);

  // Identical owner traffic: one setup batch, then incremental updates —
  // the same Pi_Setup / Pi_Update sequence on both sides.
  ASSERT_OK(dist_table.value()->Setup(MakeBatch(0, 40)));
  ASSERT_OK(local_table.value()->Setup(MakeBatch(0, 40)));
  for (int64_t t = 40; t < 64; t += 8) {
    ASSERT_OK(dist_table.value()->Update(MakeBatch(t, t + 8)));
    ASSERT_OK(local_table.value()->Update(MakeBatch(t, t + 8)));
  }
  EXPECT_EQ(dist.total_outsourced_records(), local->total_outsourced_records());
  EXPECT_EQ(dist.total_outsourced_bytes(), local->total_outsourced_bytes());

  // Identical query sequence, in the same order on both sides — for
  // Crypt-eps this is what makes the two Laplace noise streams line up,
  // so even the NOISY answers must agree bit for bit.
  for (const auto& sql : QuerySuite()) {
    SCOPED_TRACE(sql);
    auto q = query::ParseSelect(sql);
    ASSERT_OK(q);
    auto dist_resp = dist.Query(q.value());
    auto local_resp = local->Query(q.value());
    ASSERT_OK(dist_resp);
    ASSERT_OK(local_resp);
    ExpectBitIdentical(dist_resp.value(), local_resp.value());
  }

  if (v.engine == DistEngineKind::kCryptEps) {
    auto crypteps = static_cast<edb::CryptEpsServer*>(local.get());
    EXPECT_EQ(dist.consumed_query_budget(), crypteps->consumed_query_budget());
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
}

TEST(DistTransportTest, TcpLoopbackMatchesSocketpair) {
  Variant v{"oblidb-linear", DistEngineKind::kObliDb, false};
  DistributedConfig tcp_cfg = MakeDistConfig(v, 2);
  tcp_cfg.use_tcp = true;
  DistributedEdbServer tcp(tcp_cfg);
  ASSERT_OK(tcp.init_status());
  DistributedEdbServer sp(MakeDistConfig(v, 2));
  ASSERT_OK(sp.init_status());

  for (auto* server : {&tcp, &sp}) {
    auto table = server->CreateTable("YellowCab", TripSchema());
    ASSERT_OK(table);
    ASSERT_OK(table.value()->Setup(MakeBatch(0, 32)));
  }
  auto q = query::ParseSelect(
      "SELECT SUM(fare) FROM YellowCab WHERE pickupID = 30");
  ASSERT_OK(q);
  auto a = tcp.Query(q.value());
  auto b = sp.Query(q.value());
  ASSERT_OK(a);
  ASSERT_OK(b);
  ExpectBitIdentical(a.value(), b.value());
}

TEST(DistTransportTest, RpcAndByteCountersAreDeterministic) {
  Variant v{"oblidb-linear", DistEngineKind::kObliDb, false};
  auto run = [&](DistributedEdbServer& server) {
    auto table = server.CreateTable("YellowCab", TripSchema());
    ASSERT_OK(table);
    ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));
    ASSERT_OK(table.value()->Update(MakeBatch(16, 24)));
    auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
    ASSERT_OK(q);
    ASSERT_OK(server.Query(q.value()));
    ASSERT_OK(server.Query(q.value()));
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
  DistributedConfig cfg =
      MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 4);
  cfg.rpc_timeout_seconds = 2.0;
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 24)));

  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_OK(dist.Query(q.value()));

  ASSERT_OK(dist.KillServer(2));
  EXPECT_EQ(dist.KillServer(7).code(), StatusCode::kOutOfRange);

  auto start = std::chrono::steady_clock::now();
  auto resp = dist.Query(q.value());
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

// --------------------------------------------------- state machine + init

TEST(DistStateMachineTest, SetupAndUpdateOrderingEnforced) {
  DistributedEdbServer dist(
      MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 2));
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
    DistributedConfig cfg =
        MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 0);
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(dist.CreateTable("T", TripSchema()).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // More servers than global shards: some server would own nothing.
    DistributedConfig cfg = MakeDistConfig(
        {"oblidb-linear", DistEngineKind::kObliDb, false}, kGlobalShards + 1);
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
  }
  {
    DistributedConfig cfg =
        MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 2);
    cfg.oblidb.storage.flush_every_update = false;
    DistributedEdbServer dist(cfg);
    EXPECT_EQ(dist.init_status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DistPlannerTest, JoinsRejectedAtPrepare) {
  DistributedEdbServer dist(
      MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 2));
  ASSERT_OK(dist.init_status());
  ASSERT_OK(dist.CreateTable("YellowCab", TripSchema()));
  ASSERT_OK(dist.CreateTable("GreenTaxi", TripSchema()));
  auto session = dist.CreateSession();
  EXPECT_NOT_OK(session->Prepare(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime"));
}

TEST(DistBudgetTest, CryptEpsBudgetEnforcedAcrossTheWire) {
  DistributedConfig cfg =
      MakeDistConfig({"crypteps", DistEngineKind::kCryptEps, false}, 2);
  cfg.crypteps.query_epsilon = 3.0;
  cfg.crypteps.total_budget_limit = 6.0;  // two queries' worth
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  ASSERT_OK(dist.Query(q.value()));
  ASSERT_OK(dist.Query(q.value()));
  auto third = dist.Query(q.value());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(dist.consumed_query_budget(), 6.0);
}

// ----------------------------------------------------- racing owner writes

TEST(DistConcurrencyTest, QueriesRaceOwnerAppendsThroughTheCoordinator) {
  DistributedEdbServer dist(
      MakeDistConfig({"oblidb-linear", DistEngineKind::kObliDb, false}, 4));
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

  auto final_count = dist.Query(query::ParseSelect(
                                    "SELECT COUNT(*) FROM YellowCab")
                                    .value());
  ASSERT_OK(final_count);
  EXPECT_EQ(final_count->stats.records_scanned, 16 + kAppendBatches * 4);
}

// ------------------------------------------------- multi-table TickAll

TEST(DistMultiTableTest, TickAllMatchesSequentialTicks) {
  // Two coordinators with identical seeds/topology: one driven by the
  // parallel TickAll fan-out, the twin by sequential TickBatch calls. All
  // owner-side ground truth and the outsourced state must agree exactly.
  auto make = [] {
    return std::make_unique<DistributedEdbServer>(MakeDistConfig(
        {"oblidb-linear", DistEngineKind::kObliDb, false}, 2));
  };
  auto parallel_server = make();
  auto sequential_server = make();
  ASSERT_OK(parallel_server->init_status());
  ASSERT_OK(sequential_server->init_status());

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
  auto par = build_engines(parallel_server.get());
  auto seq = build_engines(sequential_server.get());

  for (int64_t t = 0; t < 10; ++t) {
    std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work;
    for (size_t i = 0; i < kTables.size(); ++i) {
      work.emplace_back(par[i].engine.get(),
                        MakeBatch(8 + t * 3 + i, 8 + t * 3 + i + 2));
    }
    ASSERT_OK(DpSyncEngine::TickAll(std::move(work)));
    for (size_t i = 0; i < kTables.size(); ++i) {
      ASSERT_OK(seq[i].engine->TickBatch(
          MakeBatch(8 + t * 3 + i, 8 + t * 3 + i + 2)));
    }
  }

  for (size_t i = 0; i < kTables.size(); ++i) {
    const auto& a = par[i].engine->counters();
    const auto& b = seq[i].engine->counters();
    EXPECT_EQ(a.received_total, b.received_total);
    EXPECT_EQ(a.real_synced, b.real_synced);
    EXPECT_EQ(a.dummy_synced, b.dummy_synced);
    EXPECT_EQ(a.updates_posted, b.updates_posted);
    EXPECT_EQ(par[i].engine->logical_gap(), seq[i].engine->logical_gap());
    EXPECT_EQ(par[i].engine->backend_commit_epoch(),
              seq[i].engine->backend_commit_epoch());
  }
  EXPECT_EQ(parallel_server->total_outsourced_records(),
            sequential_server->total_outsourced_records());

  for (const auto& name : kTables) {
    auto q = query::ParseSelect("SELECT COUNT(*) FROM " + name);
    ASSERT_OK(q);
    auto a = parallel_server->Query(q.value());
    auto b = sequential_server->Query(q.value());
    ASSERT_OK(a);
    ASSERT_OK(b);
    ExpectBitIdentical(a.value(), b.value());
  }
}

}  // namespace
}  // namespace dpsync::dist
