/// \file shard_server.h
/// One distributed shard server: owns a contiguous range of a table's
/// global storage shards (local shard 0..num_shards-1 maps to global
/// shards [lo, hi) — the coordinator routes) and serves the framed RPC
/// protocol of net/messages.h over one connection: CreateTable, Prepare,
/// Execute (returning a mergeable aggregate partial), Ingest
/// (coordinator-encrypted ciphertexts — plaintext never reaches this
/// process for storage), Flush and Stats.
///
/// Tables are hosted as edb::ObliDbTable so both engine modes share one
/// implementation: linear mode is exactly the EncryptedTableStore the
/// Crypt-eps engine uses, and indexed mode mirrors ciphertexts into the
/// per-shard Path ORAMs. Decryption happens only enclave-side (the
/// table's mirrors), with the table key derived from the shared master
/// seed — identical to the coordinator's derivation, so ciphertexts
/// sealed there open here.
///
/// Threading: Serve() runs a dedicated std::thread per connection (a
/// deliberate deviation from the shared-pool rule — the loop blocks on
/// the socket, and parking a pool worker on a blocking read could
/// deadlock pool-fanned execution; see docs/DISTRIBUTED.md). Execution
/// inside a handler still fans out on the shared pool exactly like the
/// single-process engines.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "edb/oblidb_engine.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpsync::dist {

/// Which engine semantics the distributed deployment reproduces. The
/// shard servers execute the same exact aggregation either way (Crypt-eps
/// is the linear store with no ORAM); the difference lives at the
/// coordinator (cost model, Laplace release, planner traits).
enum class DistEngineKind { kObliDb, kCryptEps };

/// Per-server configuration, built by the coordinator.
struct ShardServerConfig {
  DistEngineKind engine = DistEngineKind::kObliDb;
  /// Shared master seed: table keys derive as "table-aead:<name>" on both
  /// sides, so coordinator-sealed ciphertexts open in this enclave.
  uint64_t master_seed = 1;
  /// This server's rank in the coordinator's peer list (error messages).
  int rank = 0;
  /// LOCAL storage topology: num_shards is this server's shard count
  /// (hi - lo of its global range), dir its private directory.
  edb::StorageConfig storage;
  /// ObliDB indexed mode: mirror into per-shard Path ORAMs.
  bool use_oram_index = false;
  /// LOCAL ORAM capacity, pre-scaled by the coordinator so each per-shard
  /// tree has exactly the height the single-process topology would give
  /// it (capacity-per-tree is the invariant, not total capacity).
  size_t oram_capacity = 1 << 16;
  /// Start as a replication follower: reject owner-facing kIngest
  /// (read-only), accept kReplicate/kCatchUp/kPromote. Cleared when a
  /// kPromote cutover succeeds.
  bool follower = false;
};

/// A shard server plus its serve loop.
class EdbShardServer {
 public:
  explicit EdbShardServer(const ShardServerConfig& config);
  ~EdbShardServer();

  EdbShardServer(const EdbShardServer&) = delete;
  EdbShardServer& operator=(const EdbShardServer&) = delete;

  /// Takes ownership of `fd` and starts the serve thread: read one frame,
  /// handle it, write one reply frame, repeat until the peer closes or
  /// Shutdown()/Kill() is called. Call at most once.
  Status Serve(int fd);

  /// Stops the serve loop (shutdown(fd) wakes its blocking read) and
  /// joins the thread. Idempotent.
  void Shutdown();

  /// Failure injection for tests: identical teardown to Shutdown(), but
  /// named for intent — after Kill() the coordinator's next Call on this
  /// connection fails with Unavailable (peer closed / RPC timeout).
  void Kill() { Shutdown(); }

  /// Frames handled so far (including error replies).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Installs a deterministic serve-side fault schedule, evaluated once
  /// per received frame (kKillBeforeHandle / kKillAfterHandle — the
  /// commit-relative death points channel-side faults cannot express).
  /// Replaces any prior plan. Test-only seam.
  void InjectServeFaults(net::FaultPlan plan);

  /// Current role (followers serve scans and replication, reject ingest).
  bool is_follower() const;

  /// Replication position of one hosted table: the highest batch_seq
  /// applied (0 = none / unsequenced).
  uint64_t applied_seq(const std::string& table) const;

  /// Direct table access for tests probing a replica's store/mirror.
  edb::ObliDbTable* TableForTest(const std::string& name) const {
    return FindTable(name);
  }

 private:
  /// Dispatches one decoded request payload to its handler; always
  /// returns an encoded reply payload (errors become WireStatus frames).
  Bytes HandleFrame(const Bytes& payload);

  Status HandleCreateTable(const net::WireCreateTable& req);
  StatusOr<net::WirePartial> HandleExecute(const net::WirePlan& req);
  Status HandleIngest(const net::WireIngest& req);
  Status HandleReplicate(const net::WireReplicate& req);
  StatusOr<net::WireCatchUpReply> HandleCatchUp(const net::WireCatchUp& req);
  net::WireReplicaState HandleReplicaState();
  Status HandlePromote(const net::WirePromote& req);
  Status HandleFlush(const net::WireTableRef& req);
  net::WireServerStats HandleStats() const;

  /// The sequenced append shared by kIngest (leader) and kReplicate
  /// (follower): dedup/gap-check `batch_seq` against the table's applied
  /// position, verify `base_rows` when the batch is a catch-up span, then
  /// append through IngestCiphertexts. Caller holds repl_mu_.
  Status ApplyBatch(const std::string& name, edb::ObliDbTable* table,
                    uint64_t batch_seq,
                    const std::vector<uint64_t>* base_rows,
                    const std::vector<net::WireCipherRecord>& wire_entries,
                    uint64_t nonce_high_water, bool setup_batch);

  /// Cached plan for `fingerprint`, re-planned from the canonical text
  /// against this server's own catalog on a miss (Prepare warms the
  /// cache; Execute never depends on it).
  StatusOr<std::shared_ptr<const query::QueryPlan>> PlanFor(
      uint64_t fingerprint, const std::string& canonical_text);

  edb::ObliDbTable* FindTable(const std::string& name) const;

  void ServeLoop(int fd);

  ShardServerConfig config_;
  crypto::KeyManager keys_;
  /// The per-table engine config every hosted table shares (LOCAL
  /// topology; materialized views off — the coordinator merges raw
  /// partials, so view short-circuits would be unreachable anyway).
  edb::ObliDbConfig table_config_;

  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<edb::ObliDbTable>> tables_;

  std::mutex plans_mu_;
  std::map<uint64_t, std::shared_ptr<const query::QueryPlan>> plans_;

  /// Replication state: role plus per-table applied batch sequence. One
  /// lock orders every sequenced append against probes and promotion, so
  /// a kPromote's expected_seq check is atomic with the appends it races.
  mutable std::mutex repl_mu_;
  bool follower_ = false;                        ///< guarded by repl_mu_
  std::map<std::string, uint64_t> applied_seq_;  ///< guarded by repl_mu_

  std::mutex fault_mu_;
  net::FaultPlan serve_faults_;  ///< guarded by fault_mu_

  std::mutex serve_mu_;  ///< guards fd_/thread_ against Shutdown races
  int fd_ = -1;
  std::thread thread_;
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> prepares_{0};
  std::atomic<int64_t> executes_{0};
};

}  // namespace dpsync::dist
