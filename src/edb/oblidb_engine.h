/// \file oblidb_engine.h
/// ObliDB-style L-0 engine: oblivious query processing over encrypted
/// records inside a simulated SGX enclave. Reproduces the two storage
/// methods of ObliDB (Eskandarian & Zaharia):
///   * "linear" tables — every query decrypts and touches all N records in
///     a fixed-order scan, so the access pattern is independent of data;
///   * optional "indexed" mode — records are mirrored into an OramMirror
///     (one Path ORAM per storage shard — see oram/oram_mirror.h) and
///     every scan touches each record through an oblivious path access.
///     Each record's block sits in its storage shard's tree, at its offset
///     in that shard, so the per-tree work fans out across the thread pool
///     exactly like linear scans do.
/// Ungrouped COUNT joins of up to `oblivious_join_limit` pairs run as an
/// oblivious sort-merge join (ObliviousCountJoin below): every row of both
/// sides is tagged once, the tags are bitonic-sorted and one branchless
/// pass counts the matches, so the access trace depends on the two table
/// sizes alone. Above the limit, for grouped and non-COUNT joins, and for
/// a WHERE conjunct that reads both sides — only a formed pair can
/// evaluate it — query::Executor computes the answer: Q3's shape (a
/// COUNT(*) with int keys and no pair predicate) from per-key
/// multiplicities in its counting pass, every other join with its
/// partitioned hash join. Every path charges the paper's nested-loop
/// virtual cost (n1*n2 pairs, which reach ~4*10^8 per query point on the
/// month-long traces), so the choice changes wall-clock only. Every scan
/// and join reads the committed prefix it pins under a brief table lock
/// (EncryptedTableStore::Snapshot) and aggregates or joins lock-free (see
/// ExecutePlan).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/key_manager.h"
#include "edb/cost_model.h"
#include "edb/encrypted_database.h"
#include "edb/encrypted_table.h"
#include "oram/bitonic_sort.h"
#include "query/executor.h"

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
  /// Ungrouped COUNT joins of at most this many pairs (n1 * n2) run the
  /// oblivious sort-merge join; larger ones go to query::Executor, whose
  /// counting pass answers COUNT(*) with int keys and no pair predicate
  /// (Q3) and whose hash join answers the rest. The unit
  /// is pairs, what the cost model charges, although the sort's work grows
  /// with rows: a row limit would drop skewed joins (64 x 62,500 rows is
  /// 4M pairs) from the oblivious path.
  int64_t oblivious_join_limit = 4'000'000;
  /// Physical storage for every table (backend kind, shard count, dir).
  StorageConfig storage;
};

/// One ObliDB table: an encrypted store under `config.storage`, with a
/// per-shard ORAM index when `config.use_oram_index` is set (capacity,
/// seed and transcript recording from `config`). ObliDbServer, and with
/// it every engine derived from it, and every distributed shard server
/// build their tables here.
std::unique_ptr<EncryptedTableStore> MakeObliDbTable(
    const std::string& name, const query::Schema& schema, Bytes key,
    const ObliDbConfig& config);

/// The oblivious sort-merge COUNT join ObliDbServer runs for ungrouped
/// COUNT joins under its pair limit: the number of (left, right) row pairs
/// whose join keys are non-NULL and match as Value::Compare() == 0, that
/// pass `rewritten`'s WHERE, and whose rows are both real. Every row of
/// both tables is tagged once, in span order, with its join key and a
/// filter bit — a non-NULL key, the row's own real-row test
/// (query::MarkRealRows, shared with query::Executor's joins: the typed
/// isDummy projection where the chunk has one, the row cell where it is
/// poisoned, and a row without the cell is not real) and every top-level
/// WHERE conjunct that reads only its side, except the Appendix-B
/// `isDummy = 0` pair, which tests the cells the real-row test reads
/// (query::SplitDummyConjuncts) — and oram::ObliviousJoinCount
/// counts the matches. Returns nullopt, before touching a row, when a
/// conjunct reads both sides. Takes no lock: the tables' spans bound every
/// row access. `trace` receives the kernel's access trace (the
/// obliviousness tests' seam).
std::optional<int64_t> ObliviousCountJoin(const query::SelectQuery& rewritten,
                                          const query::Table& left,
                                          const query::Table& right,
                                          oram::AccessTrace* trace = nullptr);

/// The ObliDB server, and the exact engine of CryptEpsServer
/// (crypte_engine.h), which runs its linear tables under another cost
/// model and releases every answer with Laplace noise.
class ObliDbServer : public EdbServer {
 public:
  explicit ObliDbServer(const ObliDbConfig& config = {});
  ~ObliDbServer() override;

  LeakageProfile leakage() const override;
  std::string name() const override { return "ObliDB"; }
  int64_t total_outsourced_bytes() const override;
  int64_t total_outsourced_records() const override;
  OramHealth oram_health() const override;

  /// The one execution of `plan`, whose path the plan alone picks: a
  /// current materialized view answers view-eligible plans; every other
  /// scan and join captures the committed prefix of its tables under a
  /// brief table lock (in indexed mode that capture also pays the ORAM
  /// touches) and aggregates or joins with no lock held. Under manual
  /// commit points (StorageConfig::flush_every_update=false) both storage
  /// methods therefore see only flushed rows (docs/CONCURRENCY.md).
  /// Concurrent sessions and owner-side appends are safe.
  StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) override;
  const query::Schema* FindSchema(const std::string& table) const override;

 protected:
  /// This engine body priced by another cost model: CryptEpsServer
  /// (crypte_engine.h) runs ObliDB's linear tables this way.
  ObliDbServer(const ObliDbConfig& config, const CostModel& cost);

  StatusOr<EdbTable*> CreateTableImpl(const std::string& name,
                                      const query::Schema& schema) override;
  /// Registers a materialized view for every view-eligible plan Prepare
  /// hands out (best-effort; idempotent per fingerprint).
  void OnPlanReady(
      const std::shared_ptr<const query::QueryPlan>& plan) override;

 private:
  /// Captures the table under its lock, then aggregates with no lock
  /// held.
  StatusOr<QueryResponse> ScanQuery(const query::SelectQuery& rewritten,
                                    EncryptedTableStore* table);
  /// Captures BOTH sides under one brief std::scoped_lock (a self-join
  /// locks once and captures each side), then joins with no lock held,
  /// overlapping owner appends, other joins and scans on either table.
  StatusOr<QueryResponse> JoinQuery(const query::SelectQuery& rewritten,
                                    EncryptedTableStore* left,
                                    EncryptedTableStore* right);
  EncryptedTableStore* FindTable(const std::string& name) const;

  ObliDbConfig config_;
  crypto::KeyManager keys_;
  CostModel cost_;
  /// Guards the table map itself (CreateTable vs concurrent lookups);
  /// per-table state is guarded by each table's table_mutex().
  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<EncryptedTableStore>> tables_;
};

}  // namespace dpsync::edb
