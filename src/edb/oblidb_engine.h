/// \file oblidb_engine.h
/// ObliDB-style L-0 engine: oblivious query processing over encrypted
/// records inside a simulated SGX enclave. Reproduces the two storage
/// methods of ObliDB (Eskandarian & Zaharia):
///   * "linear" tables — every query decrypts and touches all N records in
///     a fixed-order scan, so the access pattern is independent of data;
///   * optional "indexed" mode — records are mirrored into an OramMirror
///     (one Path ORAM per storage shard — see oram/oram_mirror.h) and
///     every scan touches each record through an oblivious path access.
///     The mirror shares the store's shard topology, so per-shard scans
///     fan out across the thread pool exactly like linear scans do.
/// Ungrouped COUNT joins run as an oblivious nested loop (O(N1*N2) touched
/// pairs). For the month-long experiment traces the pair count reaches
/// ~4*10^8 per query point; above `oblivious_join_limit` — and for every
/// grouped or non-COUNT join, which the nested loop cannot express — the
/// engine computes the (identical) answer with a partitioned hash join and
/// charges the nested-loop virtual cost — a documented simulation shortcut
/// that changes wall-clock only. Linear joins pin both sides' committed
/// prefixes and execute lock-free (see ExecutePlan).
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "crypto/key_manager.h"
#include "edb/cost_model.h"
#include "edb/encrypted_database.h"
#include "edb/encrypted_table.h"
#include "oram/oram_mirror.h"

namespace dpsync::edb {

/// Engine options.
struct ObliDbConfig {
  uint64_t master_seed = 1;
  /// Query API v2 execution limits (max in-flight, overflow queue).
  AdmissionConfig admission;
  /// Mirror ciphertexts into per-shard Path ORAMs ("indexed" storage
  /// method). The mirror's shard topology follows storage.num_shards.
  bool use_oram_index = false;
  /// Total ORAM block capacity per table, split ceil(N/S) per shard. The
  /// per-shard caps are hard, and FNV routing spreads records only
  /// statistically — size with headroom (~2x the expected record count;
  /// see docs/ORAM.md) so no single shard's Binomial(N, 1/S) load can
  /// reach its cap.
  size_t oram_capacity = 1 << 16;
  /// Record per-shard ORAM access transcripts (obliviousness tests only —
  /// transcripts grow with every access).
  bool record_oram_trace = false;
  /// Real oblivious nested-loop joins are executed up to this many pairs;
  /// larger joins use the hash-join + cost-model shortcut.
  int64_t oblivious_join_limit = 4'000'000;
  /// Physical storage for every table (backend kind, shard count, dir).
  StorageConfig storage;
};

/// One ObliDB table: encrypted store plus optional per-shard ORAM mirror.
class ObliDbTable : public EdbTable {
 public:
  /// ORAM work of the most recent indexed EnclaveScan (all zero in linear
  /// mode): how many oblivious paths were touched and how many buckets
  /// those paths crossed, charging each shard its own tree height.
  struct OramScanWork {
    int64_t paths = 0;
    int64_t buckets = 0;
  };

  ObliDbTable(std::string name, query::Schema schema, Bytes key,
              const ObliDbConfig& config);

  /// Owner-side appends serialize on table_mutex() internally (store
  /// append + ORAM catch-up are one critical section, so a concurrent
  /// scan never observes the index out of sync with the store).
  Status Setup(const std::vector<Record>& gamma0) override;
  Status Update(const std::vector<Record>& gamma) override;

  /// Distributed ingest: coordinator-encrypted, pre-routed ciphertexts
  /// (see EncryptedTableStore::IngestCiphertexts). In indexed mode the
  /// batch is decrypted enclave-side to feed the ORAM mirror — the same
  /// catch-up the owner paths run, just from ciphertexts instead of
  /// plaintext records. Serializes on table_mutex() like Setup/Update.
  Status IngestCiphertexts(
      const std::vector<EncryptedTableStore::CipherEntry>& entries,
      uint64_t nonce_high_water, bool setup_batch);

  /// Commits every shard (remote Flush RPC). Locks table_mutex().
  Status Flush();

  int64_t outsourced_count() const override {
    return store_.outsourced_count();
  }
  int64_t outsourced_bytes() const override {
    return store_.outsourced_bytes();
  }
  const std::string& table_name() const override {
    return store_.table_name();
  }

  const EncryptedTableStore& store() const { return store_; }
  const oram::OramMirror* mirror() const { return mirror_.get(); }

  /// Enclave-side scan over every appended row, returning shard-major row
  /// spans (what query::Table::borrowed_spans consumes). NOT internally
  /// locked: the caller must hold table_mutex() across this call and
  /// every use of the returned spans (ObliDbServer does). In indexed mode
  /// every record is first touched through its shard's ORAM — per-shard
  /// oblivious point accesses fanned out on the shared pool — before the
  /// enclave-resident mirrors are served; otherwise it is the plain
  /// incremental per-shard decrypt. Either way the per-shard chunk
  /// buffers persist across queries (no per-query reallocation).
  StatusOr<SnapshotView> EnclaveScan();

  /// Pins the committed prefix as an immutable SnapshotView: takes
  /// table_mutex() only for the incremental catch-up + capture, so the
  /// caller scans the returned view with NO lock held while owner appends
  /// race. Linear tables only — the indexed mode's scans rewrite ORAM
  /// trees and must stay under the exclusive lock (Internal error here).
  StatusOr<SnapshotView> SnapshotScan();

  /// CommitEpoch of the underlying store (flush commit point).
  uint64_t commit_epoch() const override { return store_.commit_epoch(); }

  /// Materialized-view forwarding (see encrypted_table.h). Both take
  /// table_mutex() first, preserving the ObliDbTable-mutex -> store-mutex
  /// lock order every other path uses, so the store's mirror catch-up
  /// never races an engine-locked scan.
  Status RegisterView(std::shared_ptr<const query::QueryPlan> plan);
  std::optional<EncryptedTableStore::ViewAnswer> TryViewAnswer(
      uint64_t fingerprint, const std::string& canonical_text);
  void set_view_fold_counter(std::atomic<int64_t>* counter) {
    store_.set_view_fold_counter(counter);
  }

  /// What the last indexed EnclaveScan paid in ORAM accesses.
  const OramScanWork& last_scan_work() const { return last_scan_work_; }

 private:
  /// Mirrors every record appended since the last catch-up: routes the
  /// batch by record identity, then fans the per-shard tree writes out on
  /// the pool (MirrorBatch). Called after each Setup/Update append.
  Status CatchUpMirror(const std::vector<Record>& batch);

  EncryptedTableStore store_;
  std::unique_ptr<oram::OramMirror> mirror_;
  /// Global append indices per ORAM shard, in mirror order — the reusable
  /// per-shard scan work lists (extended incrementally by CatchUpMirror,
  /// never rebuilt per query).
  std::vector<std::vector<uint64_t>> scan_ids_;
  size_t mirror_upto_ = 0;  ///< global indices [0, mirror_upto_) mirrored
  /// Sticky first mirror failure: once the index diverges from the store
  /// (e.g. a tree hit capacity) every later operation reports this cause.
  Status mirror_status_;
  OramScanWork last_scan_work_;
};

/// The ObliDB server.
class ObliDbServer : public EdbServer {
 public:
  explicit ObliDbServer(const ObliDbConfig& config = {});
  ~ObliDbServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "ObliDB"; }
  int64_t total_outsourced_bytes() const override;
  int64_t total_outsourced_records() const override;
  OramHealth oram_health() const override;

  // Engine SPI (see encrypted_database.h). ExecutePlan picks the
  // execution path from the plan alone: a current materialized view
  // answers view-eligible plans; other linear scans and joins pin epoch
  // snapshots of the committed prefix and run lock-free; ORAM-indexed
  // scans and joins hold the scanned tables' mutexes throughout, because
  // every oblivious access rewrites tree state. Under manual commit points
  // (StorageConfig::flush_every_update=false) linear plans therefore see
  // only flushed rows, while indexed plans also see the uncommitted tail
  // (docs/CONCURRENCY.md). Concurrent sessions and owner-side appends are
  // safe; queries over disjoint tables run in parallel.
  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override;
  query::PlannerOptions planner_options() const override;

  const CostModel& cost_model() const { return cost_; }

 protected:
  StatusOr<EdbTable*> CreateTableImpl(const std::string& name,
                                      const query::Schema& schema) override;
  /// Registers a materialized view for every view-eligible plan Prepare
  /// hands out (best-effort; idempotent per fingerprint).
  void OnPlanReady(
      const std::shared_ptr<const query::QueryPlan>& plan) override;

 private:
  /// Both run with the table mutex(es) already held.
  StatusOr<QueryResponse> ScanQuery(const query::SelectQuery& rewritten,
                                    ObliDbTable* table);
  StatusOr<QueryResponse> JoinQuery(const query::SelectQuery& rewritten,
                                    ObliDbTable* left, ObliDbTable* right);
  /// Lock-free linear scan over the committed prefix: pins a SnapshotView
  /// (brief lock inside SnapshotScan) and aggregates with no lock held.
  StatusOr<QueryResponse> SnapshotScanQuery(const query::SelectQuery& rewritten,
                                            ObliDbTable* table);
  /// Lock-free linear join: pins BOTH sides' committed prefixes under one
  /// brief std::scoped_lock (address-ordered acquisition — catch-up +
  /// capture only; a self-join locks once) and joins with no locks held,
  /// overlapping owner appends, other joins and scans on either table.
  StatusOr<QueryResponse> SnapshotJoinQuery(const query::SelectQuery& rewritten,
                                            ObliDbTable* left,
                                            ObliDbTable* right);
  ObliDbTable* FindTable(const std::string& name) const;

  ObliDbConfig config_;
  crypto::KeyManager keys_;
  CostModel cost_;
  /// Guards the table map itself (CreateTable vs concurrent lookups);
  /// per-table state is guarded by each table's table_mutex().
  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<ObliDbTable>> tables_;
};

}  // namespace dpsync::edb
