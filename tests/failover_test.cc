// Tests for shard replication and failover (src/dist/ + src/net/ fault
// injection): a killed leader must promote a current follower at a
// tagged commit-epoch boundary and keep every answer — including grouped
// maps, records_scanned and the virtual QET — bit-identical to the
// single-process engine; commit-relative death points (kill-before-handle
// vs kill-after-commit) must neither lose nor duplicate ingest batches; a
// follower that missed a relay must stay behind and be refused promotion;
// and a double failure must yield a typed Unavailable naming the rank.
// Every fault placement derives from DPSYNC_FAULT_SEED (the CI matrix
// runs 1 to 5) through seeded FaultPlans — no sleeps, no wall-clock
// synchronization.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/shard_server.h"
#include "edb/oblidb_engine.h"
#include "net/messages.h"
#include "net/socket.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::dist {
namespace {

using testutil::PrepareAndExecute;
using workload::TripSchema;

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Bit-level equality of two responses (same contract as dist_test.cc:
/// doubles by bit pattern, so any merge-order drift after a cutover
/// fails loudly).
void ExpectBitIdentical(const edb::QueryResponse& dist,
                        const edb::QueryResponse& local) {
  EXPECT_EQ(dist.result.grouped, local.result.grouped);
  EXPECT_EQ(BitsOf(dist.result.scalar), BitsOf(local.result.scalar));
  ASSERT_EQ(dist.result.groups.size(), local.result.groups.size());
  auto it = local.result.groups.begin();
  for (const auto& [key, value] : dist.result.groups) {
    EXPECT_TRUE(key == it->first)
        << key.ToString() << " vs " << it->first.ToString();
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
    // Non-dyadic fares keep SUM/AVG order-sensitive (see dist_test.cc):
    // a cutover that perturbed the span-aligned merge tree would flip
    // low-order bits and fail the identity checks.
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

struct Variant {
  const char* label;
  bool use_oram_index;
};

constexpr Variant kVariants[] = {
    {"oblidb-linear", false},
    {"oblidb-indexed", true},
};

constexpr int kGlobalShards = 6;

/// The CI fault-placement seed: which matching frame each injected fault
/// strikes. Tests pin every other degree of freedom, so one seed value is
/// one fully deterministic execution.
int64_t FaultSeed() {
  const char* env = std::getenv("DPSYNC_FAULT_SEED");
  if (env == nullptr) return 1;
  const long v = std::atol(env);
  return v >= 1 ? v : 1;
}

DistributedConfig MakeReplicatedConfig(const Variant& v, int servers,
                                       int replicas) {
  DistributedConfig cfg;
  cfg.num_servers = servers;
  cfg.replication_factor = replicas;
  cfg.rpc_timeout_seconds = 10.0;
  cfg.oblidb.storage.num_shards = kGlobalShards;
  cfg.oblidb.use_oram_index = v.use_oram_index;
  cfg.oblidb.oram_capacity = 1 << 10;
  return cfg;
}

/// The replicated coordinator `v` names.
std::unique_ptr<DistributedEdbServer> MakeReplicated(const Variant& v,
                                                     int servers,
                                                     int replicas) {
  return std::make_unique<DistributedEdbServer>(
      MakeReplicatedConfig(v, servers, replicas));
}

std::unique_ptr<edb::EdbServer> MakeLocalTwin(const Variant& v) {
  edb::ObliDbConfig cfg;
  cfg.storage.num_shards = kGlobalShards;
  cfg.use_oram_index = v.use_oram_index;
  cfg.oram_capacity = 1 << 10;
  return std::make_unique<edb::ObliDbServer>(cfg);
}

// --------------------------------------------- kill-leader bit identity

/// One leader dies mid-query-suite (at the seed-th Execute frame it
/// receives); the coordinator must promote its follower and finish the
/// whole suite bit-identical to the single-process twin.
void RunFailoverIdentitySweep(const Variant& v) {
  SCOPED_TRACE(std::string(v.label) + " seed " + std::to_string(FaultSeed()));
  auto dist_server = MakeReplicated(v, 2, 1);
  DistributedEdbServer& dist = *dist_server;
  ASSERT_OK(dist.init_status());
  auto local = MakeLocalTwin(v);

  auto dist_table = dist.CreateTable("YellowCab", TripSchema());
  auto local_table = local->CreateTable("YellowCab", TripSchema());
  ASSERT_OK(dist_table);
  ASSERT_OK(local_table);
  ASSERT_OK(dist_table.value()->Setup(MakeBatch(0, 40)));
  ASSERT_OK(local_table.value()->Setup(MakeBatch(0, 40)));
  for (int64_t t = 40; t < 64; t += 8) {
    ASSERT_OK(dist_table.value()->Update(MakeBatch(t, t + 8)));
    ASSERT_OK(local_table.value()->Update(MakeBatch(t, t + 8)));
  }

  // The followers were fed purely by relays; before any fault they must
  // already sit at the leader's position (warm standby, not cold).
  for (int rank : {0, 1}) {
    EXPECT_TRUE(dist.ShardServerForTest(rank, 1)->is_follower());
    EXPECT_EQ(dist.ShardServerForTest(rank, 1)->applied_seq("YellowCab"),
              dist.ShardServerForTest(rank, 0)->applied_seq("YellowCab"));
  }

  // Rank 1's leader dies before handling the seed-th Execute frame. The
  // suite has 5 queries, so seeds 1..5 move the death point across it.
  net::FaultPlan plan;
  plan.rules.push_back({(FaultSeed() - 1) % 5 + 1,
                        net::FaultAction::kKillBeforeHandle,
                        static_cast<uint8_t>(net::MsgKind::kExecute)});
  dist.ShardServerForTest(1, 0)->InjectServeFaults(plan);

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

  // Exactly one cutover happened, and the promoted follower now leads.
  EXPECT_EQ(dist.stats().failovers, 1);
  EXPECT_FALSE(dist.ShardServerForTest(1, 1)->is_follower());
  EXPECT_GT(dist.bytes_replicated(), 0);
  EXPECT_EQ(dist.replica_lag_batches(), 0);

  // Post-cutover owner traffic keeps working through the new leader...
  ASSERT_OK(dist_table.value()->Update(MakeBatch(64, 72)));
  ASSERT_OK(local_table.value()->Update(MakeBatch(64, 72)));
  // ...and answers stay identical.
  auto q = query::ParseSelect("SELECT SUM(fare) FROM YellowCab");
  ASSERT_OK(q);
  auto a = PrepareAndExecute(dist, q.value());
  auto b = PrepareAndExecute(*local, q.value());
  ASSERT_OK(a);
  ASSERT_OK(b);
  ExpectBitIdentical(a.value(), b.value());
}

TEST(FailoverIdentityTest, KilledLeaderPromotesFollowerBitIdentically) {
  for (const auto& v : kVariants) RunFailoverIdentitySweep(v);
}

// ------------------------------------- commit-relative ingest death points

/// The exactly-once argument, probed at both death points: the leader
/// dies either BEFORE committing the seed-th ingest batch or AFTER
/// committing it but before the ack. Either way the coordinator's retry
/// against the promoted follower must land the batch exactly once — no
/// lost rows, no duplicates — because relays are sent only after the
/// leader's ack (the follower is never ahead) and the batch sequence
/// number dedups the replay.
void RunIngestDeathPoint(net::FaultAction action) {
  const Variant v{"oblidb-linear", false};
  DistributedEdbServer dist(MakeReplicatedConfig(v, 1, 1));
  ASSERT_OK(dist.init_status());
  auto local = MakeLocalTwin(v);
  auto dist_table = dist.CreateTable("YellowCab", TripSchema());
  auto local_table = local->CreateTable("YellowCab", TripSchema());
  ASSERT_OK(dist_table);
  ASSERT_OK(local_table);

  // Single rank: every batch ships to rank 0, so ingest frame counts are
  // exact. Setup is ingest #1; the fault strikes update #seed (2..4).
  const int64_t nth = 1 + (FaultSeed() - 1) % 3 + 1;
  net::FaultPlan plan;
  plan.rules.push_back(
      {nth, action, static_cast<uint8_t>(net::MsgKind::kIngest)});
  dist.ShardServerForTest(0, 0)->InjectServeFaults(plan);

  ASSERT_OK(dist_table.value()->Setup(MakeBatch(0, 24)));
  ASSERT_OK(local_table.value()->Setup(MakeBatch(0, 24)));
  for (int64_t t = 24; t < 56; t += 8) {
    ASSERT_OK(dist_table.value()->Update(MakeBatch(t, t + 8)));
    ASSERT_OK(local_table.value()->Update(MakeBatch(t, t + 8)));
  }

  // The killed leader stopped at the death point: one batch short of the
  // total with the request unread, at the faulted batch with the ack lost.
  const uint64_t total_batches = 5;  // setup + 4 updates
  EXPECT_EQ(dist.stats().failovers, 1);
  EXPECT_EQ(dist.ShardServerForTest(0, 0)->applied_seq("YellowCab"),
            action == net::FaultAction::kKillAfterHandle
                ? static_cast<uint64_t>(nth)
                : static_cast<uint64_t>(nth - 1));
  // The promoted follower holds every batch exactly once.
  EXPECT_FALSE(dist.ShardServerForTest(0, 1)->is_follower());
  EXPECT_EQ(dist.ShardServerForTest(0, 1)->applied_seq("YellowCab"),
            total_batches);
  EXPECT_EQ(dist.total_outsourced_records(), local->total_outsourced_records());

  for (const auto& sql : QuerySuite()) {
    SCOPED_TRACE(sql);
    auto q = query::ParseSelect(sql);
    ASSERT_OK(q);
    auto a = PrepareAndExecute(dist, q.value());
    auto b = PrepareAndExecute(*local, q.value());
    ASSERT_OK(a);
    ASSERT_OK(b);
    ExpectBitIdentical(a.value(), b.value());
  }
}

TEST(FailoverIngestTest, KillBeforeAckLosesNothing) {
  RunIngestDeathPoint(net::FaultAction::kKillBeforeHandle);
}

TEST(FailoverIngestTest, KillAfterCommitDuplicatesNothing) {
  RunIngestDeathPoint(net::FaultAction::kKillAfterHandle);
}

// ---------------------------------------------------------- follower lag

TEST(FailoverLagTest, StaleFollowerIsRefusedPromotion) {
  const Variant v{"oblidb-linear", false};
  DistributedEdbServer dist(MakeReplicatedConfig(v, 1, 1));
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);

  // Lose the first relay: the follower misses a committed batch, so
  // promoting it would silently drop rows — the cutover must refuse and
  // surface a typed Unavailable instead.
  net::FaultPlan plan;
  plan.rules.push_back({1, net::FaultAction::kDropRequest,
                        static_cast<uint8_t>(net::MsgKind::kReplicate)});
  ASSERT_OK(dist.InjectChannelFaults(0, 1, plan));
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 16)));
  const int64_t calls_before_update = dist.rpc_calls();
  ASSERT_OK(table.value()->Update(MakeBatch(16, 24)));

  // The lost Setup relay flagged the follower behind, so the Update costs
  // its ingest alone: no relay is shipped only to be refused over the
  // gap. Both missed relays count, and nothing resends either.
  EXPECT_EQ(dist.rpc_calls(), calls_before_update + 1);
  EdbShardServer* follower = dist.ShardServerForTest(0, 1);
  EXPECT_EQ(follower->applied_seq("YellowCab"), 0u);
  EXPECT_EQ(dist.replica_lag_batches(), 2);
  EXPECT_EQ(dist.bytes_replicated(), 0);

  ASSERT_OK(dist.KillServer(0));
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  auto resp = PrepareAndExecute(dist, q.value());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(resp.status().message().find("shard server 0"), std::string::npos)
      << resp.status().ToString();
  EXPECT_NE(resp.status().message().find("no follower could be promoted"),
            std::string::npos)
      << resp.status().ToString();
  EXPECT_EQ(dist.stats().failovers, 0);
  EXPECT_EQ(follower->applied_seq("YellowCab"), 0u);
  EXPECT_EQ(dist.replica_lag_batches(), 2);
}

// ------------------------------------------------------- double failure

TEST(FailoverDoubleFailureTest, LeaderAndFollowerDeadYieldsUnavailable) {
  const Variant v{"oblidb-linear", false};
  DistributedConfig cfg = MakeReplicatedConfig(v, 2, 1);
  cfg.rpc_timeout_seconds = 2.0;
  DistributedEdbServer dist(cfg);
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 24)));

  EXPECT_EQ(dist.KillFollower(0, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dist.KillFollower(0, 7).code(), StatusCode::kOutOfRange);
  ASSERT_OK(dist.KillFollower(0, 1));
  ASSERT_OK(dist.KillServer(0));

  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  auto resp = PrepareAndExecute(dist, q.value());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(resp.status().message().find("shard server 0"), std::string::npos)
      << resp.status().ToString();
  EXPECT_EQ(dist.stats().failovers, 0);

  // The healthy rank 1 group is untouched by rank 0's collapse.
  EXPECT_TRUE(dist.ShardServerForTest(1, 1)->is_follower());
}

// ----------------------------------------- torn / corrupted frame cutover

TEST(FailoverTransportTest, TornAndCorruptFramesTriggerCleanCutover) {
  // A truncated frame and a corrupted CRC both kill the connection
  // mid-RPC; each must cut over to the follower and complete the query.
  const std::vector<net::FaultAction> kTearDowns = {
      net::FaultAction::kTruncateFrame, net::FaultAction::kCorruptCrc,
      net::FaultAction::kCloseAfterSend};
  for (auto action : kTearDowns) {
    SCOPED_TRACE(static_cast<int>(action));
    const Variant v{"oblidb-linear", false};
    DistributedEdbServer dist(MakeReplicatedConfig(v, 1, 1));
    ASSERT_OK(dist.init_status());
    auto local = MakeLocalTwin(v);
    auto dist_table = dist.CreateTable("YellowCab", TripSchema());
    auto local_table = local->CreateTable("YellowCab", TripSchema());
    ASSERT_OK(dist_table);
    ASSERT_OK(local_table);
    ASSERT_OK(dist_table.value()->Setup(MakeBatch(0, 24)));
    ASSERT_OK(local_table.value()->Setup(MakeBatch(0, 24)));

    net::FaultPlan plan;
    plan.rules.push_back({1, action,
                          static_cast<uint8_t>(net::MsgKind::kExecute),
                          /*truncate_at=*/6});
    ASSERT_OK(dist.InjectChannelFaults(0, 0, plan));

    auto q = query::ParseSelect("SELECT SUM(fare) FROM YellowCab");
    ASSERT_OK(q);
    auto a = PrepareAndExecute(dist, q.value());
    auto b = PrepareAndExecute(*local, q.value());
    ASSERT_OK(a);
    ASSERT_OK(b);
    ExpectBitIdentical(a.value(), b.value());
    EXPECT_EQ(dist.stats().failovers, 1);
  }
}

// ------------------------------------------- warm ORAM mirror on cutover

TEST(FailoverOramTest, PromotionReusesWarmMirrorWithoutRebuild) {
  // Indexed mode: the follower's per-shard ORAM mirrors were maintained
  // incrementally by every relayed batch (the same store append path the
  // owner uses), so promotion must NOT rebuild the trees — the promotion
  // query costs exactly as many path accesses as any steady-state scan.
  const Variant v{"oblidb-indexed", true};
  DistributedEdbServer dist(MakeReplicatedConfig(v, 1, 1));
  ASSERT_OK(dist.init_status());
  auto table = dist.CreateTable("YellowCab", TripSchema());
  ASSERT_OK(table);
  ASSERT_OK(table.value()->Setup(MakeBatch(0, 32)));
  ASSERT_OK(table.value()->Update(MakeBatch(32, 48)));

  auto* follower_table =
      dist.ShardServerForTest(0, 1)->TableForTest("YellowCab");
  ASSERT_NE(follower_table, nullptr);
  ASSERT_NE(follower_table->mirror(), nullptr);
  const auto warm = follower_table->mirror()->StashStats();
  // Every relayed row is already mirrored before any failure happens.
  EXPECT_EQ(warm.live_blocks, 48u);

  ASSERT_OK(dist.KillServer(0));
  auto q = query::ParseSelect("SELECT COUNT(*) FROM YellowCab");
  ASSERT_OK(q);
  // Promotion happens inside this query.
  ASSERT_OK(PrepareAndExecute(dist, q.value()));
  const auto after_promotion = follower_table->mirror()->StashStats();
  ASSERT_OK(PrepareAndExecute(dist, q.value()));  // steady-state reference scan
  const auto after_steady = follower_table->mirror()->StashStats();

  EXPECT_EQ(dist.stats().failovers, 1);
  // No rebuild: block population is untouched, and the promotion query's
  // path-access bill equals the steady-state query's exactly.
  EXPECT_EQ(after_promotion.live_blocks, warm.live_blocks);
  EXPECT_EQ(after_promotion.access_count - warm.access_count,
            after_steady.access_count - after_promotion.access_count);
}

// --------------------------------------------- follower protocol gating

TEST(FailoverProtocolTest, FollowerRejectsOwnerIngestUntilPromoted) {
  // Drive one follower directly over a socketpair: owner-facing kIngest
  // must bounce with FailedPrecondition while sequenced kReplicate applies
  // and kPromote at the verified position flips the role.
  ShardServerConfig cfg;
  cfg.rank = 0;
  cfg.oblidb.storage.num_shards = 2;
  cfg.follower = true;
  EdbShardServer server(cfg);
  auto fds = net::SocketPair();
  ASSERT_OK(fds);
  ASSERT_OK(server.Serve(fds.value().a));
  net::Channel channel(fds.value().b, /*timeout_seconds=*/10.0);

  auto call_status = [&](const StatusOr<Bytes>& encoded) {
    EXPECT_OK(encoded);
    auto reply = channel.Call(encoded.value());
    EXPECT_OK(reply);
    auto status = net::Decode<net::WireStatus>(reply.value());
    EXPECT_OK(status);
    return status.value().ToStatus();
  };

  net::WireCreateTable create;
  create.table = "T";
  create.fields = TripSchema().fields();
  ASSERT_OK(call_status(net::Encode(create)));

  net::WireIngest ingest;
  ingest.table = "T";
  ingest.setup_batch = true;
  ingest.batch_seq = 1;
  auto rejected = call_status(net::Encode(ingest));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("read-only follower"), std::string::npos);

  net::WireReplicate relay;
  relay.table = "T";
  relay.setup_batch = true;
  relay.batch_seq = 1;
  ASSERT_OK(call_status(net::Encode(relay)));
  EXPECT_EQ(server.applied_seq("T"), 1u);
  // Replayed relays dedup; a gap is refused, and so is an unsequenced
  // batch, which would skip the dedup.
  ASSERT_OK(call_status(net::Encode(relay)));
  EXPECT_EQ(server.applied_seq("T"), 1u);
  net::WireReplicate gap = relay;
  gap.setup_batch = false;
  gap.batch_seq = 3;
  EXPECT_EQ(call_status(net::Encode(gap)).code(),
            StatusCode::kFailedPrecondition);
  net::WireReplicate unsequenced_relay = gap;
  unsequenced_relay.batch_seq = 0;
  EXPECT_EQ(call_status(net::Encode(unsequenced_relay)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.applied_seq("T"), 1u);

  // Promotion with a stale expected position is refused; the probed
  // position succeeds and clears the follower role.
  net::WirePromote stale;
  stale.tables.push_back({"T", 2, 0});
  EXPECT_EQ(call_status(net::Encode(stale)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.is_follower());

  auto probe =
      channel.Call(net::Encode(net::WireReplicaStateRequest{}).value());
  ASSERT_OK(probe);
  auto state = net::Decode<net::WireReplicaState>(probe.value());
  ASSERT_OK(state);
  EXPECT_TRUE(state.value().follower);
  ASSERT_EQ(state.value().tables.size(), 1u);
  net::WirePromote promote;
  promote.tables.push_back({"T", state.value().tables[0].applied_seq,
                            state.value().tables[0].commit_epoch});
  ASSERT_OK(call_status(net::Encode(promote)));
  EXPECT_FALSE(server.is_follower());

  // Promoted: owner ingest now lands (the next sequenced batch), and an
  // unsequenced one is still refused.
  ingest.setup_batch = false;
  ingest.batch_seq = 0;
  EXPECT_EQ(call_status(net::Encode(ingest)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.applied_seq("T"), 1u);
  ingest.batch_seq = 2;
  ASSERT_OK(call_status(net::Encode(ingest)));
  EXPECT_EQ(server.applied_seq("T"), 2u);

  channel.Close();
  server.Shutdown();
}

}  // namespace
}  // namespace dpsync::dist
