/// \file shard_server.h
/// One distributed shard server: owns a contiguous range of a table's
/// global storage shards (local shard 0..num_shards-1 maps to global
/// shards [lo, hi) — the coordinator routes) and serves the framed RPC
/// protocol of net/messages.h over one connection: CreateTable,
/// Execute (returning a mergeable aggregate partial), Ingest
/// (coordinator-encrypted ciphertexts — plaintext never reaches this
/// process for storage) and the replication requests.
///
/// Tables are hosted as edb::EncryptedTableStore, built by
/// edb::MakeObliDbTable as in the single-process engines: linear tables
/// run exactly like a linear edb::ObliDbServer's, and ObliDB's indexed
/// mode keeps the store's per-shard Path ORAM index
/// (oram::OramMirror), each ingested block in the tree of the local
/// shard its entry names. Ingest stores ciphertexts without opening them,
/// in either mode: decryption, and with it authentication, happens only
/// at the enclave catch-up of the next capture (the table's mirrors),
/// with the table key derived from the shared master seed — identical to
/// the coordinator's derivation, so ciphertexts sealed there open here.
///
/// Threading: Serve() runs a dedicated std::thread per connection (a
/// deliberate deviation from the shared-pool rule — the loop blocks on
/// the socket, and parking a pool worker on a blocking read could
/// deadlock pool-fanned execution; see docs/DISTRIBUTED.md). Execution
/// inside a handler still fans out on the shared pool exactly like the
/// single-process engines.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "edb/oblidb_engine.h"
#include "edb/plan_cache.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpsync::dist {

/// Per-server configuration, built by the coordinator.
struct ShardServerConfig {
  /// The engine options every hosted table is built with
  /// (edb::MakeObliDbTable), in this server's LOCAL topology: the
  /// coordinator's own, with storage.num_shards this server's shard count
  /// (hi - lo of its global range), storage.dir its private directory,
  /// and oram_capacity pre-scaled so each per-shard tree has exactly the
  /// height the single-process topology would give it (capacity-per-tree
  /// is the invariant, not total capacity). The shared master_seed makes
  /// table keys derive as "table-aead:<name>" on both sides, so
  /// coordinator-sealed ciphertexts open in this enclave.
  edb::ObliDbConfig oblidb;
  /// This server's rank in the coordinator's peer list (error messages).
  int rank = 0;
  /// Start as a replication follower: reject owner-facing kIngest
  /// (read-only), accept kReplicate/kPromote. Cleared when a kPromote
  /// cutover succeeds.
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

  /// Installs a deterministic serve-side fault schedule, evaluated once
  /// per received frame (kKillBeforeHandle / kKillAfterHandle — the
  /// commit-relative death points channel-side faults cannot express).
  /// Replaces any prior plan. Test-only seam.
  void InjectServeFaults(net::FaultPlan plan);

  /// Current role (followers serve scans and replication, reject ingest).
  bool is_follower() const;

  /// Replication position of one hosted table: the highest batch_seq
  /// applied (0 = none).
  uint64_t applied_seq(const std::string& table) const;

  /// Plans currently cached (tests: the cache is bounded).
  size_t cached_plans() const { return plans_.size(); }

  /// Direct table access for tests probing a replica's store/mirror.
  edb::EncryptedTableStore* TableForTest(const std::string& name) const {
    return FindTable(name);
  }

 private:
  /// Dispatches one request payload to its handler; always returns an
  /// encoded reply payload (errors become WireStatus frames).
  Bytes HandleFrame(const Bytes& payload);

  /// Decodes a Req, runs `handler` on it and encodes what it returns: a
  /// Status as a WireStatus reply, a message as itself.
  template <typename Req, typename Result>
  Bytes Dispatch(const Bytes& payload,
                 Result (EdbShardServer::*handler)(const Req&));

  Status HandleCreateTable(const net::WireCreateTable& req);
  StatusOr<net::WirePartial> HandleExecute(const net::WireExecute& req);
  Status HandleIngest(const net::WireIngest& req);
  Status HandleReplicate(const net::WireReplicate& req);
  StatusOr<net::WireReplicaState> HandleReplicaState(
      const net::WireReplicaStateRequest& req);
  Status HandlePromote(const net::WirePromote& req);

  /// The sequenced append shared by kIngest (leader) and kReplicate
  /// (follower): refuse `batch_seq` 0, dedup/gap-check it against the
  /// table's applied position, then append through IngestCiphertexts.
  /// The applied position moves only when IngestCiphertexts succeeds. A
  /// batch it refused on a check or a run write stored nothing, so the
  /// same batch sent again would land once; a batch whose flush or index
  /// append failed is stored with the position unmoved, so a resend of it
  /// would store it twice. Caller holds repl_mu_.
  Status ApplyBatch(edb::EncryptedTableStore* table,
                    const net::WireIngest& batch);

  /// Cached plan for `fingerprint`, re-planned from the canonical text
  /// against this server's own catalog on a miss: a text's first Execute
  /// on this server, or its first after an eviction or a promotion.
  StatusOr<std::shared_ptr<const query::QueryPlan>> PlanFor(
      uint64_t fingerprint, const std::string& canonical_text);

  edb::EncryptedTableStore* FindTable(const std::string& name) const;

  void ServeLoop(int fd);

  ShardServerConfig config_;
  crypto::KeyManager keys_;

  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<edb::EncryptedTableStore>> tables_;

  /// Every plan is bound at catalog epoch 0: a shard catalog only grows
  /// and schemas never change, so no cached binding goes stale. Bounded
  /// like the coordinator's own cache, so an unbounded stream of distinct
  /// query texts cannot grow this server's memory either.
  edb::PlanCache plans_;

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
};

}  // namespace dpsync::dist
