/// \file coordinator.h
/// The distributed scatter-gather coordinator: an edb::EdbServer (it
/// inherits the whole Query API v2 — sessions, plan cache, admission,
/// rebinds) whose tables live on K shard servers, each owning a
/// contiguous range of the table's global storage shards.
///
/// Owner path: the coordinator is the trusted owner proxy. It holds each
/// table's AEAD cipher (ONE global nonce stream) and the global FNV-1a
/// ShardRouter; Setup/Update encrypt and route every record locally, then
/// ship per-server batches of (local shard, ciphertext) — plaintext rows
/// never cross the wire.
///
/// Query path: ExecutePlan ships the plan's canonical text to every
/// server in parallel (common/parallel.h fan-out), gathers per-server
/// aggregate partials, and merges them in strict server-rank order.
/// Because server k owns global shards [S*k/K, S*(k+1)/K) and the
/// single-process scan visits rows shard-major with chunk-order partial
/// merges, the rank-order merge replays the exact global Add()/Merge()
/// sequence — answers, grouped maps, records_scanned, the virtual QET
/// and (in Crypt-eps mode) the Laplace noise stream are bit-identical to
/// the single-process engines (dist_test proves this per backend x shard
/// count).
///
/// Failure semantics: every RPC is bounded by rpc_timeout_seconds. With
/// replication_factor == 0 a dead or hung server yields a typed
/// Unavailable (first failing rank wins, deterministically) — no hang,
/// no partial answer. With replication_factor >= 1 each rank is a
/// replica GROUP: the coordinator relays every acked ingest batch to the
/// rank's followers as WireReplicate (committed ciphertext spans + nonce
/// HWM — segment shipping, never plaintext), and a transport failure on
/// the leader triggers an epoch-tagged cutover (probe kReplicaState,
/// verify the candidate holds every acked batch, promote via kPromote,
/// retry once). Because a follower applies the identical per-shard
/// append sequence, post-cutover answers stay bit-identical to the
/// single-process engines. See docs/DISTRIBUTED.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/key_manager.h"
#include "dist/shard_server.h"
#include "edb/cost_model.h"
#include "edb/crypte_engine.h"
#include "edb/encrypted_database.h"
#include "net/socket.h"

namespace dpsync::dist {

/// Coordinator configuration. The engine-specific sub-configs carry the
/// GLOBAL topology (storage.num_shards is the table-wide shard count that
/// the servers split; oram_capacity the table-wide ORAM budget).
struct DistributedConfig {
  DistEngineKind engine = DistEngineKind::kObliDb;
  /// Number of shard servers. Must be >= 1 and <= the global shard count.
  int num_servers = 1;
  /// ObliDB-mode knobs (used when engine == kObliDb).
  edb::ObliDbConfig oblidb;
  /// Crypt-eps-mode knobs (used when engine == kCryptEps).
  edb::CryptEpsConfig crypteps;
  /// Transport: AF_UNIX socketpairs by default (CTest-safe: no ports, no
  /// accept races); real TCP on 127.0.0.1 ephemeral ports when true.
  bool use_tcp = false;
  /// Per-RPC reply deadline; a server that dies or hangs fails the query
  /// with Unavailable within this bound.
  double rpc_timeout_seconds = 10.0;
  /// Followers per rank (0 = unreplicated, the pre-replication behavior).
  /// Each rank becomes a group of 1 leader + replication_factor warm
  /// followers; a leader death promotes a caught-up follower.
  int replication_factor = 0;
};

/// Scatter-gather coordinator over in-process shard servers.
class DistributedEdbServer : public edb::EdbServer {
 public:
  explicit DistributedEdbServer(const DistributedConfig& config);
  ~DistributedEdbServer() override;

  edb::LeakageProfile leakage() const override;
  std::string name() const override;
  int64_t total_outsourced_bytes() const override;
  int64_t total_outsourced_records() const override;

  // Engine SPI (see encrypted_database.h).
  StatusOr<edb::QueryResponse> ExecutePlan(
      const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override;
  query::PlannerOptions planner_options() const override;

  /// Deferred construction failure (bad topology, transport setup); every
  /// CreateTable/ExecutePlan reports it.
  Status init_status() const { return init_status_; }

  int num_servers() const { return static_cast<int>(peers_.size()); }

  /// Cumulative analyst budget consumed (Crypt-eps mode; 0 otherwise).
  double consumed_query_budget() const;

  /// Failure injection for tests: tears down the serve loop of rank
  /// `rank`'s CURRENT leader. Unreplicated, the next query fails with
  /// Unavailable within the RPC deadline; replicated, it triggers a
  /// failover to a caught-up follower instead.
  Status KillServer(int rank);

  /// Kills follower `member` (1..replication_factor) of rank `rank` and
  /// marks it dead, so neither relays nor cutovers consider it again.
  Status KillFollower(int rank, int member);

  /// Installs a channel-side fault schedule on the coordinator->member
  /// connection (member 0 = initial leader). Test-only seam.
  Status InjectChannelFaults(int rank, int member, net::FaultPlan plan);

  /// Installs a serve-side fault schedule on one member's serve loop
  /// (kill-before-handle / kill-after-handle). Test-only seam.
  Status InjectServeFaults(int rank, int member, net::FaultPlan plan);

  /// Direct member access for tests probing replica state.
  EdbShardServer* ShardServerForTest(int rank, int member);

  /// Brings every live follower current: probes its per-table position
  /// and, where it lags the acked sequence, relays the leader's committed
  /// spans (kCatchUp -> WireReplicate with base-row verification).
  Status CatchUpReplicas();

  /// Replication counters (deterministic given a seeded fault plan):
  /// relays that failed to reach a follower, and replicate/catch-up
  /// payload bytes that did.
  int64_t replica_lag_batches() const {
    return replica_lag_batches_.load(std::memory_order_relaxed);
  }
  int64_t bytes_replicated() const {
    return bytes_replicated_.load(std::memory_order_relaxed);
  }

  /// Deterministic transport counters summed over every channel.
  int64_t rpc_calls() const;
  int64_t bytes_shipped() const;

 protected:
  StatusOr<edb::EdbTable*> CreateTableImpl(
      const std::string& name, const query::Schema& schema) override;
  /// Best-effort plan shipment: warms every server's plan cache with the
  /// canonical text so the first Execute skips the shard-side re-plan.
  void OnPlanReady(
      const std::shared_ptr<const query::QueryPlan>& plan) override;

 private:
  class DistTable;

  /// One member of a rank's replica group: a shard server plus the
  /// coordinator's connection to it. Members are never deallocated while
  /// the coordinator lives (dead ones are only flagged), so raw pointers
  /// handed to tests stay valid across failovers.
  struct Member {
    std::unique_ptr<EdbShardServer> server;
    std::unique_ptr<net::Channel> channel;
    bool dead = false;  ///< guarded by the group mutex
  };

  /// One rank: a replica group owning global shard range [lo, hi).
  /// members[0] is the initial leader; `leader` tracks the current one.
  /// The group mutex (heap-held so Peer stays movable) orders failover
  /// against concurrent callers; `generation` bumps per cutover so racing
  /// threads that observed the same dead leader fail over exactly once.
  struct Peer {
    int lo = 0;
    int hi = 0;
    std::unique_ptr<std::mutex> mu;
    std::vector<Member> members;
    size_t leader = 0;        ///< guarded by *mu
    uint64_t generation = 0;  ///< guarded by *mu
  };

  static const edb::AdmissionConfig& PickAdmission(
      const DistributedConfig& config);

  DistTable* FindTable(const std::string& name) const;
  /// Bounds-checked member lookup (nullptr when out of range).
  Member* MemberAt(int rank, int member);
  /// One RPC to rank `k`'s current leader. A transport failure triggers
  /// EnsureFailover and exactly one retry against the promoted leader;
  /// typed remote errors pass through untouched. Errors come back
  /// annotated with the rank.
  StatusOr<Bytes> CallRank(size_t k, const Bytes& request);
  /// Cutover state machine for rank `k`: marks the leader observed at
  /// `observed_generation` dead, probes each live follower, and promotes
  /// the first one whose applied positions match every table's acked
  /// sequence. Returns typed Unavailable when no candidate qualifies
  /// (double failure / stale followers).
  Status EnsureFailover(size_t k, uint64_t observed_generation);
  /// Probe + promote one candidate (caller holds the group mutex).
  Status TryPromote(Member& candidate,
                    const std::vector<std::pair<std::string, uint64_t>>&
                        expected_seqs);
  /// Relays one acked ingest batch to rank `k`'s live followers
  /// (best-effort: a failed relay counts replica_lag_batches, catch-up
  /// repairs it later).
  void RelayToFollowers(size_t k, const Bytes& replicate_request);
  /// Scatters `request` to every rank's leader in parallel and returns
  /// the raw replies; the caller decodes. First failing rank wins.
  Status Scatter(const Bytes& request, std::vector<Bytes>* replies);

  DistributedConfig config_;
  Status init_status_;
  crypto::KeyManager keys_;
  // Resolved knobs (mode-independent view of the active sub-config).
  uint64_t master_seed_;
  edb::StorageConfig storage_;  ///< GLOBAL topology
  bool use_oram_index_ = false;
  edb::CostModel cost_;
  /// global shard -> (rank, local shard) routing table.
  std::vector<std::pair<int, uint32_t>> shard_owner_;
  std::vector<Peer> peers_;

  /// Crypt-eps budget ledger + noise stream (exactly the single-process
  /// discipline: reserve under the lock before the scan, draw under the
  /// same lock after it — see crypte_engine.cc).
  mutable std::mutex budget_mu_;
  Rng noise_rng_;
  double consumed_budget_ = 0.0;

  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<DistTable>> tables_;

  std::atomic<int64_t> replica_lag_batches_{0};
  std::atomic<int64_t> bytes_replicated_{0};
};

}  // namespace dpsync::dist
