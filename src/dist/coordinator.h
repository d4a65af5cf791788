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
/// sequence — answers, grouped maps, records_scanned and the virtual QET
/// are bit-identical to the single-process engines (dist_test proves this
/// per backend x shard count). The coordinator is an exact engine: the
/// distributed Crypt-eps server (DistributedCryptEpsServer, below) is the
/// single-process Laplace release stage over it, so the merged answer is
/// released with the same noise stream, and shard servers never see the
/// budget or the noise.
///
/// Failure semantics: every RPC is bounded by rpc_timeout_seconds. With
/// replication_factor == 0 a dead or hung server yields a typed
/// Unavailable (first failing rank wins, deterministically) — no hang,
/// no partial answer. With replication_factor >= 1 each rank is a
/// replica GROUP: the coordinator relays every acked ingest batch to the
/// rank's followers as WireReplicate (the batch's ciphertexts + nonce
/// HWM, never plaintext), and a transport failure on the leader triggers
/// an epoch-tagged cutover (probe kReplicaState, verify the candidate
/// holds every acked batch, promote via kPromote, retry once). A relay is
/// sent once: a follower that misses or refuses one is behind for good,
/// gets no later relay and is never promoted. Because a follower applies
/// the identical per-shard append sequence, post-cutover answers stay
/// bit-identical to the single-process engines. See docs/DISTRIBUTED.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "crypto/key_manager.h"
#include "dist/shard_server.h"
#include "edb/cost_model.h"
#include "edb/crypte_engine.h"
#include "edb/encrypted_database.h"
#include "net/socket.h"

namespace dpsync::dist {

/// Read by nothing: the coordinator always runs ObliDB's exact engine,
/// and DistributedCryptEpsServer adds the Crypt-eps release. It stays only
/// because perfbench's dist_scan workload sets DistributedConfig::engine.
enum class DistEngineKind { kObliDb };

/// Coordinator configuration. The engine options carry the GLOBAL
/// topology (storage.num_shards is the table-wide shard count that the
/// servers split; oram_capacity the table-wide ORAM budget).
struct DistributedConfig {
  /// Read by nothing; perfbench's dist_scan sets it.
  DistEngineKind engine = DistEngineKind::kObliDb;
  /// Number of shard servers. Must be >= 1 and <= the global shard count.
  int num_servers = 1;
  /// The engine every shard server runs: seed, admission limits at the
  /// coordinator, storage and ORAM index.
  edb::ObliDbConfig oblidb;
  /// Per-RPC reply deadline, finite and positive (init_status() is
  /// InvalidArgument otherwise; poll() caps it at INT_MAX ms). A server
  /// that dies or hangs fails the query with Unavailable within it, and
  /// the missed deadline closes that connection: an unreplicated rank
  /// then stays Unavailable, a replicated one fails over.
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
  std::string name() const override { return "Distributed+ObliDB"; }
  int64_t total_outsourced_bytes() const override;
  int64_t total_outsourced_records() const override;

  // Engine SPI (see encrypted_database.h).
  StatusOr<edb::QueryResponse> ExecutePlan(
      const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override;
  query::PlannerOptions planner_options() const override;

  /// Deferred construction failure (bad topology or RPC deadline,
  /// transport setup); every CreateTable/ExecutePlan reports it.
  Status init_status() const { return init_status_; }

  int num_servers() const { return static_cast<int>(peers_.size()); }

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

  /// Direct member access for tests probing replica state (and
  /// installing serve-side faults through EdbShardServer).
  EdbShardServer* ShardServerForTest(int rank, int member);

  /// Replication counters (deterministic given a seeded fault plan):
  /// relays a follower did not apply — those that failed to reach it, those
  /// it refused, and every later one skipped because it was behind for good
  /// — and the payload bytes of those it applied.
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
  /// This coordinator priced by another cost model: edb::LaplaceRelease
  /// (DistributedCryptEpsServer) runs it this way.
  DistributedEdbServer(const DistributedConfig& config,
                       const edb::CostModel& cost);

  StatusOr<edb::EdbTable*> CreateTableImpl(
      const std::string& name, const query::Schema& schema) override;

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
    /// Missed or refused a relay, so it gets no later relay and is never
    /// promoted (relays are never resent). Guarded by the group mutex.
    bool behind = false;
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

  DistTable* FindTable(const std::string& name) const;
  /// Bounds-checked member lookup (nullptr when out of range).
  Member* MemberAt(int rank, int member);
  /// One RPC to rank `k`'s current leader. A transport failure triggers
  /// EnsureFailover and exactly one retry against the promoted leader;
  /// typed remote errors pass through untouched. Errors come back
  /// annotated with the rank.
  StatusOr<Bytes> CallRank(size_t k, const Bytes& request);
  /// Cutover state machine for rank `k`: marks the leader observed at
  /// `observed_generation` dead, probes each live follower that is not
  /// behind, and promotes the first one whose applied positions match
  /// every table's acked sequence. Returns typed Unavailable when no
  /// candidate qualifies (double failure / stale followers).
  Status EnsureFailover(size_t k, uint64_t observed_generation);
  /// Probe + promote one candidate (caller holds the group mutex).
  Status TryPromote(Member& candidate,
                    const std::vector<std::pair<std::string, uint64_t>>&
                        expected_seqs);
  /// Relays one acked ingest batch to rank `k`'s live followers, once
  /// (best-effort). A failed or refused relay flags its follower behind;
  /// a behind follower is skipped from then on. Both count
  /// replica_lag_batches, and a cutover never promotes a behind follower.
  void RelayToFollowers(size_t k, const Bytes& replicate_request);
  /// Scatters `request` to every rank's leader in parallel and returns
  /// the raw replies; the caller decodes. First failing rank wins.
  Status Scatter(const Bytes& request, std::vector<Bytes>* replies);

  DistributedConfig config_;
  Status init_status_;
  crypto::KeyManager keys_;
  edb::CostModel cost_;
  /// global shard -> (rank, local shard) routing table.
  std::vector<std::pair<int, uint32_t>> shard_owner_;
  std::vector<Peer> peers_;

  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<DistTable>> tables_;

  std::atomic<int64_t> replica_lag_batches_{0};
  std::atomic<int64_t> bytes_replicated_{0};
};

/// `topology` with linear tables under `config`'s seed, admission limits
/// and storage (edb::LinearConfig): the coordinator a
/// DistributedCryptEpsServer releases.
DistributedConfig LinearConfig(const edb::CryptEpsConfig& config,
                               DistributedConfig topology);

/// Distributed Crypt-eps, built as `DistributedCryptEpsServer(config,
/// topology)`: the single-process Laplace release over the coordinator.
/// The merged exact answer, the budget and its seed all match
/// CryptEpsServer's, so a sequential query sequence releases the same bits
/// on both topologies.
using DistributedCryptEpsServer = edb::LaplaceRelease<DistributedEdbServer>;

}  // namespace dpsync::dist
