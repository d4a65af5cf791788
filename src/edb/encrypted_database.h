/// \file encrypted_database.h
/// The full encrypted-database surface: the owner-facing Setup/Update side
/// (per table, implementing core::SogdbBackend so DpSyncEngine can drive
/// it) and the analyst-facing Query API v2 (per server).
///
/// Query API v2 (sessions, prepared queries, admission control):
///
///   auto session = server->CreateSession();
///   auto q = session->Prepare("SELECT COUNT(*) FROM T WHERE ...");
///   auto r = session->Execute(*q);                 // prepare once, run many
///   auto tickets = session->Submit(*q, opts);      // async fan-out
///   auto resp = session->Wait(ticket);
///
/// Prepare runs the data-independent front half of the pipeline once —
/// parse (when given SQL), normalize, dummy-exclusion rewrite (Appendix
/// B), catalog binding, strategy choice — producing an immutable
/// query::QueryPlan that the server caches keyed on the normalized-AST
/// fingerprint. Execute runs the plan; appends never invalidate a plan
/// (schemas are immutable), and a schema change (new table) is detected
/// via a catalog epoch and re-bound transparently. Execution is gated by
/// a per-server admission controller (bounded concurrency, FIFO overflow
/// queue, per-query admission deadline). The legacy one-shot Query() is a
/// thin shim over an implicit session and is bit-identical to the
/// prepared path (enforced by sim_test). See docs/API.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sogdb.h"
#include "edb/admission.h"
#include "edb/leakage.h"
#include "edb/plan_cache.h"
#include "query/ast.h"
#include "query/plan.h"
#include "query/result.h"
#include "query/schema.h"

namespace dpsync::edb {

/// Per-query execution accounting.
struct QueryStats {
  /// Virtual QET from the calibrated cost model (see cost_model.h) — the
  /// number every figure/table reports as "query execution time".
  double virtual_seconds = 0.0;
  /// Real wall-clock time this process spent executing the query.
  double measured_seconds = 0.0;
  /// Encrypted records touched (n, or n1+n2 for joins).
  int64_t records_scanned = 0;
  /// Record pairs compared by a join (0 otherwise).
  int64_t join_pairs = 0;
  /// The response volume the query protocol REVEALS to the server: -1 for
  /// volume-hiding (L-0/L-DP) schemes; the exact (or padded) matching
  /// record count for L-1 schemes (see volume_hiding.h).
  int64_t revealed_volume = -1;
  /// Indexed (ORAM-backed) scans only; zero for linear scans. Paths is the
  /// number of oblivious path accesses the scan performed; buckets charges
  /// each path its own tree's height (per-shard trees are shorter), and
  /// oram_virtual_seconds prices those buckets through the cost model.
  /// Reported alongside — not folded into — virtual_seconds, which stays
  /// invariant in the physical shard topology (see docs/ORAM.md).
  int64_t oram_paths = 0;
  int64_t oram_buckets = 0;
  double oram_virtual_seconds = 0.0;
  /// True when this execution reused an already-built plan instead of
  /// planning from scratch: every session Execute of a PreparedQuery
  /// (planning happened at Prepare), and any one-shot Query() whose
  /// implicit prepare hit the server plan cache (i.e. from its second
  /// call on).
  bool plan_cache_hit = false;
};

/// A query answer plus its cost.
struct QueryResponse {
  query::QueryResult result;
  QueryStats stats;
};

/// ORAM diagnostics aggregated across a server's tables — exported into
/// the bench JSON reports so CI can track stash growth and per-shard load
/// balance over PRs. Empty/disabled for servers without an oblivious
/// index.
struct OramHealth {
  bool enabled = false;
  /// Stash high-water mark: the max over every table's trees.
  size_t max_stash_size = 0;
  /// Path accesses across all tables and shards.
  int64_t access_count = 0;
  /// Per-shard path accesses, summed over tables (all tables of a server
  /// share one shard topology).
  std::vector<int64_t> shard_access_counts;
};

/// Per-server counters for the v2 query pipeline (exported into the bench
/// JSON reports and the examples' \timing output).
struct ServerStats {
  int64_t prepares = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  /// Transparent re-plans of stale PreparedQuery handles after a catalog
  /// change (new table created since Prepare).
  int64_t plan_rebinds = 0;
  int64_t queries_executed = 0;
  int64_t queries_rejected = 0;    ///< admission overflow queue full
  int64_t deadlines_exceeded = 0;  ///< admission deadline missed
  int64_t peak_in_flight = 0;      ///< concurrency high-water mark
  /// Scans served from an epoch snapshot of the committed prefix, i.e.
  /// without holding the table lock across the scan (see
  /// docs/CONCURRENCY.md) — linear and ORAM-indexed alike. View answers do
  /// not count.
  int64_t snapshot_scans = 0;
  /// Joins served from two pinned epoch snapshots (one brief ordered
  /// capture lock, then lock-free execution — see docs/CONCURRENCY.md),
  /// linear and ORAM-indexed alike. Joins do not count in
  /// `snapshot_scans`.
  int64_t snapshot_joins = 0;
  /// Executions answered in O(1) from a materialized aggregate view whose
  /// state was current through the table's CommitEpoch (see
  /// src/edb/view.h). View hits never scan, so a view-answered execution
  /// counts here and nowhere else.
  int64_t view_hits = 0;
  /// Incremental view folds across the server's tables: one per
  /// (view, row-set) fold — warm folds at registration, O(delta) folds at
  /// Flush commit time, and full rebuilds after Reopen all count.
  int64_t view_folds = 0;
  /// Distributed coordinator only: executions that scattered subplans to
  /// remote shard servers (one per scatter-gather ExecutePlan), and the
  /// per-server partial results those scatters merged. Always zero on the
  /// single-process engines. remote_partials == remote_scatters x
  /// num_servers when every server answered.
  int64_t remote_scatters = 0;
  int64_t remote_partials = 0;
  /// Distributed coordinator only: leader cutovers performed — one per
  /// shard-group failover that promoted a warm follower to leader. Always
  /// zero on the single-process engines.
  int64_t failovers = 0;
};

/// Per-execution options.
struct QueryOptions {
  /// Upper bound on how long the query may wait for an admission slot
  /// before failing with DeadlineExceeded (0 = wait indefinitely). For
  /// Submit, the clock starts at submission, so pool queueing counts.
  /// Queries that started executing are never aborted.
  double admission_timeout_seconds = 0.0;
};

/// Owner-facing handle to one outsourced table.
class EdbTable : public SogdbBackend {
 public:
  /// Bytes currently stored on the server for this table (ciphertexts).
  virtual int64_t outsourced_bytes() const = 0;
  /// The table's name in the server catalog.
  virtual const std::string& table_name() const = 0;

  /// Per-table execution lock: owner-side mutations (Setup/Update/Flush)
  /// and analyst-side captures of the same table serialize on it. Engine
  /// implementations lock it inside their mutation paths; every scan and
  /// join takes it only for the capture step — mirror catch-up, the ORAM
  /// touches of an indexed table, and pinning the committed prefix — and
  /// aggregates lock-free. The full discipline lives in
  /// docs/CONCURRENCY.md.
  std::mutex& table_mutex() const { return table_mu_; }

 private:
  mutable std::mutex table_mu_;
};

/// An immutable handle to a server-cached query plan, returned by
/// QuerySession::Prepare. Cheap to copy; valid for the server's lifetime.
/// Executing a handle prepared before a schema change transparently
/// re-binds it (counted in ServerStats::plan_rebinds).
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return plan_ != nullptr; }
  uint64_t fingerprint() const { return plan_ ? plan_->fingerprint : 0; }
  const std::string& canonical_text() const {
    static const std::string kEmpty;
    return plan_ ? plan_->canonical_text : kEmpty;
  }
  /// Whether Prepare was answered from the server plan cache.
  bool from_plan_cache() const { return from_cache_; }
  /// The bound plan (null for a default-constructed handle).
  const query::QueryPlan* plan() const { return plan_.get(); }

 private:
  friend class EdbServer;
  PreparedQuery(std::shared_ptr<const query::QueryPlan> plan, bool from_cache)
      : plan_(std::move(plan)), from_cache_(from_cache) {}

  std::shared_ptr<const query::QueryPlan> plan_;
  bool from_cache_ = false;
};

/// Handle to an asynchronously submitted query; redeem with
/// QuerySession::Wait exactly once.
struct QueryTicket {
  uint64_t id = 0;
};

class EdbServer;

/// An analyst session: the v2 query surface. Sessions are lightweight,
/// thread-safe, and share the server's plan cache and admission gate; a
/// session must not outlive its server, and every Submit'ed ticket should
/// be Wait'ed before the server is destroyed.
class QuerySession {
 public:
  /// Parse + plan + cache. Returns the same plan for every spelling that
  /// normalizes to the same canonical text.
  StatusOr<PreparedQuery> Prepare(const std::string& sql);
  StatusOr<PreparedQuery> Prepare(const query::SelectQuery& q);

  /// Synchronous execution of a prepared query under admission control.
  StatusOr<QueryResponse> Execute(const PreparedQuery& q,
                                  const QueryOptions& options = {});

  /// Batch execution: all queries are fanned out on the shared thread
  /// pool (each individually admission-controlled) and the responses come
  /// back in input order. Fails with the first error in input order; use
  /// Submit/Wait for per-query error handling.
  StatusOr<std::vector<QueryResponse>> ExecuteMany(
      const std::vector<PreparedQuery>& batch,
      const QueryOptions& options = {});

  /// Asynchronous execution: enqueue on the shared thread pool and return
  /// immediately. The admission deadline clock starts now.
  StatusOr<QueryTicket> Submit(const PreparedQuery& q,
                               const QueryOptions& options = {});

  /// Blocks until the submitted query finishes; each ticket can be waited
  /// exactly once.
  StatusOr<QueryResponse> Wait(const QueryTicket& ticket);

 private:
  friend class EdbServer;
  struct Pending;
  explicit QuerySession(EdbServer* server) : server_(server) {}

  EdbServer* server_;
  std::mutex mu_;
  uint64_t next_ticket_ = 1;
  std::map<uint64_t, std::shared_ptr<Pending>> pending_;
};

/// A (simulated) encrypted database server hosting named tables.
///
/// The base class owns the engine-independent query machinery — plan
/// cache, sessions, admission control, the legacy one-shot shim — and
/// engines plug in through the SPI below (ExecutePlan / FindSchema /
/// planner_options / CreateTableImpl). A release stage that changes what a
/// query reveals (the Laplace release in crypte_engine.h, volume padding
/// in volume_hiding.h) is a subclass of the engine it releases, overriding
/// the SPI and calling its base.
class EdbServer {
 public:
  explicit EdbServer(const AdmissionConfig& admission = {});
  virtual ~EdbServer();

  EdbServer(const EdbServer&) = delete;
  EdbServer& operator=(const EdbServer&) = delete;

  // --- owner surface -----------------------------------------------------

  /// Creates an outsourced table and returns its owner-side handle (owned
  /// by the server; valid for the server's lifetime). Bumps the catalog
  /// epoch: outstanding plans are re-bound on next execution.
  StatusOr<EdbTable*> CreateTable(const std::string& name,
                                  const query::Schema& schema);

  // --- analyst surface ---------------------------------------------------

  /// Opens a query session. The session borrows the server; it must not
  /// outlive it.
  std::unique_ptr<QuerySession> CreateSession();

  /// Pi_Query, legacy one-shot form: prepare (through the plan cache) and
  /// execute in one call over an implicit session. Kept for convenience
  /// and backwards compatibility; bit-identical to Prepare+Execute.
  StatusOr<QueryResponse> Query(const query::SelectQuery& q);

  /// v2 pipeline counters (plan cache, admission, rebinds).
  ServerStats stats() const;

  /// Catalog generation: bumped by every CreateTable. Plans bound at an
  /// older epoch are stale.
  uint64_t catalog_epoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  // --- scheme metadata ---------------------------------------------------

  /// The scheme's leakage profile (drives compatibility checks).
  virtual LeakageProfile leakage() const = 0;

  /// Scheme name ("ObliDB", "CryptEpsilon").
  virtual std::string name() const = 0;

  /// Total ciphertext bytes across all tables.
  virtual int64_t total_outsourced_bytes() const = 0;

  /// Total encrypted records across all tables (incl. dummies).
  virtual int64_t total_outsourced_records() const = 0;

  /// ORAM health across all tables (disabled unless the scheme keeps an
  /// oblivious index — today only ObliDB's indexed mode).
  virtual OramHealth oram_health() const { return {}; }

  // --- engine SPI --------------------------------------------------------
  // Public so tests can run a bound plan without Prepare or admission;
  // analysts should use sessions.

  /// Executes a bound plan. Implementations must be safe to call from
  /// multiple threads concurrently (per-table locking; see EdbTable).
  virtual StatusOr<QueryResponse> ExecutePlan(const query::QueryPlan& plan) = 0;

  /// Schema of a hosted table, or nullptr. Thread-safe; the returned
  /// pointer stays valid for the server's lifetime (schemas are
  /// immutable and tables are never dropped).
  virtual const query::Schema* FindSchema(const std::string& table) const = 0;

  /// Engine traits the planner consumes. The default supports joins and
  /// plans linear scans.
  virtual query::PlannerOptions planner_options() const;

 protected:
  /// Called by PrepareInternal with every plan it hands out — freshly
  /// built or served from the plan cache — before the caller sees it.
  /// Engines override it to attach side structures to plans they care
  /// about (today: registering a materialized view for every
  /// view-eligible plan). Must be thread-safe and best-effort:
  /// failures here must not fail the Prepare (the scan path always
  /// remains correct). Default: no-op.
  virtual void OnPlanReady(const std::shared_ptr<const query::QueryPlan>& plan) {
    (void)plan;
  }

  /// Engines call this once per query they answered from a materialized
  /// view (ServerStats::view_hits).
  void CountViewHit() { view_hits_.fetch_add(1, std::memory_order_relaxed); }

  /// The per-fold counter engines wire into their tables
  /// (EncryptedTableStore::set_view_fold_counter -> ServerStats::view_folds).
  std::atomic<int64_t>* view_fold_counter() { return &view_folds_; }

  /// Engine-specific table creation (the template-method half of
  /// CreateTable).
  virtual StatusOr<EdbTable*> CreateTableImpl(const std::string& name,
                                              const query::Schema& schema) = 0;

  /// Blocks until every asynchronously submitted query has finished (or
  /// been refused) and marks the server shutting down — later Submits
  /// complete with Unavailable. Every engine destructor must call this
  /// FIRST, while the derived object is still intact, because in-flight
  /// tasks call back into the virtual SPI.
  void DrainSessions();

  /// Engines call this once per scan they served from an epoch snapshot
  /// (ServerStats::snapshot_scans).
  void CountSnapshotScan() {
    snapshot_scans_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Engines call this once per join they served from two pinned epoch
  /// snapshots (ServerStats::snapshot_joins).
  void CountSnapshotJoin() {
    snapshot_joins_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Distributed coordinators call this once per scatter-gather
  /// execution, passing how many per-server partials the gather merged
  /// (ServerStats::remote_scatters / remote_partials).
  void CountRemoteScatter(int64_t partials) {
    remote_scatters_.fetch_add(1, std::memory_order_relaxed);
    remote_partials_.fetch_add(partials, std::memory_order_relaxed);
  }

  /// Distributed coordinators call this once per leader cutover that
  /// promoted a follower (ServerStats::failovers).
  void CountFailover() { failovers_.fetch_add(1, std::memory_order_relaxed); }

 private:
  friend class QuerySession;

  /// Tracks pool tasks that may touch this server, so destruction can
  /// drain them. shared_ptr-held: tasks that only observe `shutdown` may
  /// outlive the server.
  struct AsyncState {
    std::mutex mu;
    std::condition_variable cv;
    int active = 0;
    bool shutdown = false;
  };

  StatusOr<PreparedQuery> PrepareInternal(const query::SelectQuery& q);
  /// Admission + (stale-plan rebind) + ExecutePlan. `deadline` bounds the
  /// admission wait; `implicit_prepare` marks the one-shot shim, whose
  /// prepare cost belongs to this very call (it decides how
  /// QueryStats::plan_cache_hit is reported).
  StatusOr<QueryResponse> ExecuteWithDeadline(
      const PreparedQuery& q,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      bool implicit_prepare = false);
  void SubmitAsync(const PreparedQuery& q, const QueryOptions& options,
                   std::shared_ptr<QuerySession::Pending> out);

  mutable PlanCache plan_cache_;
  AdmissionController admission_;
  std::shared_ptr<AsyncState> async_;
  std::atomic<uint64_t> catalog_epoch_{0};
  std::atomic<int64_t> prepares_{0};
  std::atomic<int64_t> rebinds_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> snapshot_scans_{0};
  std::atomic<int64_t> snapshot_joins_{0};
  std::atomic<int64_t> view_hits_{0};
  std::atomic<int64_t> view_folds_{0};
  std::atomic<int64_t> remote_scatters_{0};
  std::atomic<int64_t> remote_partials_{0};
  std::atomic<int64_t> failovers_{0};
};

}  // namespace dpsync::edb
