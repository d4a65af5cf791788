#include "edb/oblidb_engine.h"

#include <algorithm>
#include <chrono>

#include "common/parallel.h"
#include "query/executor.h"

namespace dpsync::edb {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

ObliDbTable::ObliDbTable(std::string name, query::Schema schema, Bytes key,
                         const ObliDbConfig& config)
    : store_(std::move(name), std::move(schema), std::move(key),
             config.storage) {
  if (config.use_oram_index) {
    oram::OramMirrorConfig mirror_cfg;
    mirror_cfg.capacity = config.oram_capacity;
    // Align the mirror with the store's shard topology (num_shards() can
    // be 0 when backend construction failed; the store surfaces that error
    // on first use, so any topology works here).
    mirror_cfg.num_shards = std::max(1, store_.num_shards());
    mirror_cfg.master_seed = config.master_seed;
    mirror_cfg.record_trace = config.record_oram_trace;
    mirror_ = oram::MakeOramMirror(mirror_cfg);
    scan_ids_.resize(static_cast<size_t>(mirror_->num_shards()));
  }
}

Status ObliDbTable::CatchUpMirror(const std::vector<Record>& batch) {
  if (!mirror_) return Status::Ok();
  // A mirror that failed once (e.g. a tree at capacity) stays failed: the
  // store has records the index will never hold, so the indexed contract
  // is unrecoverable and every later operation reports the original cause
  // instead of a confusing secondary symptom.
  DPSYNC_RETURN_IF_ERROR(mirror_status_);
  size_t n = static_cast<size_t>(store_.outsourced_count());
  if (n - mirror_upto_ != batch.size()) {
    return Status::Internal("ORAM catch-up out of sync with the store");
  }
  // Route the whole delta by record identity — the same FNV-1a decision
  // ShardRouter made when the store appended it — and hand the batch to
  // the mirror, which fans per-shard tree writes out on the pool and
  // reports where every entry landed.
  std::vector<oram::OramMirror::MirrorEntry> entries;
  entries.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    uint64_t id = mirror_upto_ + i;
    auto ct = store_.CiphertextAt(static_cast<int64_t>(id));
    if (!ct.ok()) return ct.status();
    entries.push_back({id, &batch[i].payload, std::move(ct.value())});
  }
  auto routes = mirror_->MirrorBatch(std::move(entries));
  if (!routes.ok()) {
    mirror_status_ = Status(routes.status().code(),
                            "oblivious index failed and is out of sync "
                            "with the store (size the ORAM capacity with "
                            "headroom for shard imbalance — docs/ORAM.md): " +
                                routes.status().message());
    return mirror_status_;
  }
  // Commit the scan bookkeeping only after the mirror accepted the whole
  // batch, using the routes the mirror itself assigned — the scan fan-out
  // relies on these lists being tree-disjoint, so they must come from the
  // mirror's routing, never a re-derivation.
  for (size_t i = 0; i < routes.value().size(); ++i) {
    scan_ids_[static_cast<size_t>(routes.value()[i])].push_back(
        mirror_upto_ + i);
  }
  mirror_upto_ = n;
  return Status::Ok();
}

Status ObliDbTable::Setup(const std::vector<Record>& gamma0) {
  std::lock_guard<std::mutex> lk(table_mutex());
  DPSYNC_RETURN_IF_ERROR(store_.Setup(gamma0));
  return CatchUpMirror(gamma0);
}

Status ObliDbTable::Update(const std::vector<Record>& gamma) {
  std::lock_guard<std::mutex> lk(table_mutex());
  DPSYNC_RETURN_IF_ERROR(store_.Update(gamma));
  return CatchUpMirror(gamma);
}

Status ObliDbTable::IngestCiphertexts(
    const std::vector<EncryptedTableStore::CipherEntry>& entries,
    uint64_t nonce_high_water, bool setup_batch) {
  std::lock_guard<std::mutex> lk(table_mutex());
  DPSYNC_RETURN_IF_ERROR(
      store_.IngestCiphertexts(entries, nonce_high_water, setup_batch));
  if (!mirror_) return Status::Ok();
  // The mirror needs plaintext identities; decrypt the batch enclave-side
  // (the coordinator never shipped plaintext) in the exact append order
  // the store just journaled.
  std::vector<Record> batch;
  batch.reserve(entries.size());
  for (const auto& e : entries) {
    auto payload = store_.DecryptCiphertext(e.ciphertext);
    if (!payload.ok()) return payload.status();
    Record r;
    r.payload = std::move(payload.value());
    batch.push_back(std::move(r));
  }
  return CatchUpMirror(batch);
}

Status ObliDbTable::Flush() {
  std::lock_guard<std::mutex> lk(table_mutex());
  return store_.Flush();
}

Status ObliDbTable::RegisterView(
    std::shared_ptr<const query::QueryPlan> plan) {
  std::lock_guard<std::mutex> lk(table_mutex());
  return store_.RegisterView(std::move(plan));
}

std::optional<EncryptedTableStore::ViewAnswer> ObliDbTable::TryViewAnswer(
    uint64_t fingerprint, const std::string& canonical_text) {
  std::lock_guard<std::mutex> lk(table_mutex());
  return store_.TryViewAnswer(fingerprint, canonical_text);
}

StatusOr<SnapshotView> ObliDbTable::SnapshotScan() {
  // The lock covers only catch-up + capture; the returned view is then
  // scanned lock-free (see snapshot.h for why that is safe).
  std::lock_guard<std::mutex> lk(table_mutex());
  if (mirror_) {
    return Status::Internal(
        "snapshot scans are linear-only: indexed scans rewrite ORAM state "
        "and must hold the table lock");
  }
  return store_.Snapshot();
}

StatusOr<SnapshotView> ObliDbTable::EnclaveScan() {
  if (mirror_) {
    DPSYNC_RETURN_IF_ERROR(mirror_status_);
    // Indexed mode: touch every record through its shard's ORAM so each
    // access is an oblivious path read/rewrite, one task per shard on the
    // shared pool (trees are disjoint; Touch never copies the block out,
    // so the hot loop allocates nothing). The decrypted rows are then
    // served from the same persistent per-shard enclave mirrors the
    // linear mode uses.
    const size_t shards = scan_ids_.size();
    DPSYNC_RETURN_IF_ERROR(ParallelShardStatus(shards, [&](size_t s) {
      for (uint64_t id : scan_ids_[s]) {
        DPSYNC_RETURN_IF_ERROR(mirror_->Touch(id));
      }
      return Status::Ok();
    }));
    last_scan_work_ = OramScanWork{};
    for (size_t s = 0; s < shards; ++s) {
      auto paths = static_cast<int64_t>(scan_ids_[s].size());
      last_scan_work_.paths += paths;
      last_scan_work_.buckets +=
          paths * static_cast<int64_t>(
                      mirror_->ShardLevels(static_cast<int>(s)));
    }
  }
  return store_.EnclaveView();
}

ObliDbServer::ObliDbServer(const ObliDbConfig& config)
    : EdbServer(config.admission),
      config_(config),
      keys_(crypto::KeyManager::FromSeed(config.master_seed)),
      cost_(ObliDbCostModel()) {}

ObliDbServer::~ObliDbServer() {
  // In-flight async queries call back into our virtual SPI; drain them
  // before any member is torn down.
  DrainSessions();
}

StatusOr<EdbTable*> ObliDbServer::CreateTableImpl(const std::string& name,
                                                  const query::Schema& schema) {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  if (tables_.count(name)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  if (!schema.HasDummyFlag()) {
    return Status::InvalidArgument(
        "schema must carry an isDummy attribute for dummy-aware rewriting");
  }
  auto table = std::make_unique<ObliDbTable>(
      name, schema, keys_.DeriveKey("table-aead:" + name), config_);
  table->set_view_fold_counter(view_fold_counter());
  EdbTable* handle = table.get();
  tables_[name] = std::move(table);
  return handle;
}

void ObliDbServer::OnPlanReady(
    const std::shared_ptr<const query::QueryPlan>& plan) {
  if (!query::PlanIsViewEligible(*plan)) return;
  ObliDbTable* table = FindTable(plan->table);
  if (table == nullptr) return;
  // Best-effort: a failed registration (e.g. a backend error during the
  // warm fold) simply leaves this plan on the scan path.
  (void)table->RegisterView(plan);
}

ObliDbTable* ObliDbServer::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const query::Schema* ObliDbServer::FindSchema(const std::string& table) const {
  ObliDbTable* t = FindTable(table);
  return t ? &t->store().schema() : nullptr;
}

query::PlannerOptions ObliDbServer::planner_options() const {
  query::PlannerOptions options;
  options.engine_name = name();
  options.oram_indexed = config_.use_oram_index;
  return options;
}

LeakageProfile ObliDbServer::leakage() const {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = "ObliDB";
  return p;
}

int64_t ObliDbServer::total_outsourced_bytes() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) {
    std::lock_guard<std::mutex> table_lk(t->table_mutex());
    total += t->outsourced_bytes();
  }
  return total;
}

int64_t ObliDbServer::total_outsourced_records() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) {
    std::lock_guard<std::mutex> table_lk(t->table_mutex());
    total += t->outsourced_count();
  }
  return total;
}

OramHealth ObliDbServer::oram_health() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  OramHealth health;
  for (const auto& [_, t] : tables_) {
    std::lock_guard<std::mutex> table_lk(t->table_mutex());
    const oram::OramMirror* mirror = t->mirror();
    if (!mirror) continue;
    health.enabled = true;
    auto stats = mirror->StashStats();
    health.max_stash_size =
        std::max(health.max_stash_size, stats.max_stash_size);
    health.access_count += stats.access_count;
    if (health.shard_access_counts.size() <
        static_cast<size_t>(mirror->num_shards())) {
      health.shard_access_counts.resize(
          static_cast<size_t>(mirror->num_shards()), 0);
    }
    for (int s = 0; s < mirror->num_shards(); ++s) {
      health.shard_access_counts[static_cast<size_t>(s)] +=
          mirror->ShardAccessCount(s);
    }
  }
  return health;
}

StatusOr<QueryResponse> ObliDbServer::ExecutePlan(
    const query::QueryPlan& plan) {
  // The planner resolved these names against our catalog and tables are
  // never dropped, so the lookups cannot fail while the server lives.
  ObliDbTable* table = FindTable(plan.table);
  if (!table) return Status::Internal("plan references lost table " +
                                      plan.table);
  if (plan.kind == query::PlanKind::kJoin) {
    ObliDbTable* right = FindTable(plan.join_table);
    if (!right) {
      return Status::Internal("plan references lost table " +
                              plan.join_table);
    }
    // Read-only linear joins pin both sides' committed prefixes under a
    // brief ordered capture lock and execute lock-free (mirror checks are
    // defensive: PlanIsReadOnlyJoin already excludes ORAM-indexed plans,
    // and every table shares the engine config).
    if (query::PlanIsReadOnlyJoin(plan) && !table->mirror() &&
        !right->mirror()) {
      return SnapshotJoinQuery(plan.rewritten, table, right);
    }
    // Indexed mode, whose pre-join scans rewrite ORAM state: hold both
    // table locks across the scans AND the join over the borrowed
    // partitions; scoped_lock orders the acquisition, so concurrent joins
    // cannot deadlock. A self-join locks once.
    if (table == right) {
      std::lock_guard<std::mutex> lk(table->table_mutex());
      return JoinQuery(plan.rewritten, table, right);
    }
    std::scoped_lock lk(table->table_mutex(), right->table_mutex());
    return JoinQuery(plan.rewritten, table, right);
  }
  // Views extend the snapshot machinery: they hold committed-prefix
  // state, which is exactly what the snapshot path serves.
  if (query::PlanIsViewEligible(plan)) {
    auto start = std::chrono::steady_clock::now();
    if (auto hit = table->TryViewAnswer(plan.fingerprint,
                                        plan.canonical_text)) {
      // O(1) answer from the folded view state, stamped with the current
      // CommitEpoch under the table mutex — bit-identical to scanning the
      // committed prefix. The virtual cost still charges the oblivious
      // scan: views change wall-clock only, never the leakage-calibrated
      // QET model.
      QueryResponse resp;
      resp.result = std::move(hit->result);
      resp.stats.records_scanned = hit->committed_rows;
      resp.stats.virtual_seconds =
          ScanCost(cost_, hit->committed_rows, plan.grouped);
      resp.stats.measured_seconds = SecondsSince(start);
      CountViewHit();
      return resp;
    }
    // No usable view (cold start, post-Reopen, a plan that never went
    // through Prepare, a sum the view cannot reproduce bit for bit): fall
    // through to the snapshot scan below.
  }
  if (query::PlanIsReadOnlyScan(plan)) {
    // Read-only linear scan: serve it from an epoch snapshot of the
    // committed prefix so same-table scans overlap with each other and
    // with owner appends.
    return SnapshotScanQuery(plan.rewritten, table);
  }
  // ORAM-indexed scan: every oblivious access rewrites tree state, so the
  // whole scan runs under the table lock.
  std::lock_guard<std::mutex> lk(table->table_mutex());
  return ScanQuery(plan.rewritten, table);
}

namespace {

/// Shared back half of the linear scan paths: aggregate `rewritten` over
/// the rows of `view` and price the scan. Safe to run with or without the
/// table lock — the view's spans bound every row access.
StatusOr<QueryResponse> AggregateOverView(const query::SelectQuery& rewritten,
                                          const std::string& table_name,
                                          const query::Schema& schema,
                                          const SnapshotView& view,
                                          const CostModel& cost) {
  query::Table plain;
  plain.name = table_name;
  plain.schema = schema;
  plain.borrowed_spans = view.spans;
  query::Catalog catalog;
  catalog.AddTable(&plain);
  query::Executor executor(&catalog);
  auto result = executor.Execute(rewritten);
  if (!result.ok()) return result.status();

  QueryResponse resp;
  resp.result = std::move(result.value());
  // Per-shard scan work summed across shards — identical to the flat
  // store's record count, so virtual QET numbers are unchanged by
  // sharding (and by the access path: a snapshot sees the same committed
  // total an indexed scan of a flushed table sees).
  resp.stats.records_scanned = view.total_rows;
  resp.stats.virtual_seconds =
      ScanCost(cost, view.total_rows, !rewritten.group_by.empty());
  return resp;
}

}  // namespace

StatusOr<QueryResponse> ObliDbServer::SnapshotScanQuery(
    const query::SelectQuery& rewritten, ObliDbTable* table) {
  auto start = std::chrono::steady_clock::now();
  auto snap = table->SnapshotScan();  // brief lock: catch-up + capture
  if (!snap.ok()) return snap.status();
  // No lock held from here on: concurrent same-table scans and owner
  // appends proceed while we aggregate over the pinned prefix.
  auto resp = AggregateOverView(rewritten, table->table_name(),
                                table->store().schema(), snap.value(), cost_);
  if (!resp.ok()) return resp.status();
  CountSnapshotScan();
  resp->stats.measured_seconds = SecondsSince(start);
  return resp;
}

StatusOr<QueryResponse> ObliDbServer::ScanQuery(
    const query::SelectQuery& rewritten, ObliDbTable* table) {
  auto start = std::chrono::steady_clock::now();
  // Both storage methods serve the executor the same shard-major spans;
  // indexed mode additionally pays one oblivious ORAM touch per record
  // before the spans are borrowed.
  auto view = table->EnclaveScan();
  if (!view.ok()) return view.status();
  auto resp = AggregateOverView(rewritten, table->table_name(),
                                table->store().schema(), view.value(), cost_);
  if (!resp.ok()) return resp.status();
  resp->stats.measured_seconds = SecondsSince(start);
  if (table->mirror()) {
    // Charge the per-shard tree heights the scan actually crossed. This is
    // reported next to — not inside — virtual_seconds: the headline QET
    // stays a function of the record count alone, so it is invariant in
    // the physical shard topology like every other experiment metric
    // (docs/ORAM.md discusses the calibration).
    const auto& work = table->last_scan_work();
    resp->stats.oram_paths = work.paths;
    resp->stats.oram_buckets = work.buckets;
    resp->stats.oram_virtual_seconds = OramBucketsCost(cost_, work.buckets);
  }
  return resp;
}

namespace {

/// Shared back half of the join paths: the oblivious-nested-loop vs
/// hash-join decision plus response pricing, over two tables whose row
/// spans are already borrowed (locked enclave views or pinned snapshots).
/// Safe to run with or without the table locks — the spans bound every
/// row access. `n1`/`n2` are the row counts the borrowed views cover.
StatusOr<QueryResponse> JoinOverTables(const query::SelectQuery& rewritten,
                                       query::Table& lt, query::Table& rt,
                                       int64_t n1, int64_t n2,
                                       const ObliDbConfig& config,
                                       const CostModel& cost) {
  const int64_t pairs = n1 * n2;
  const query::SelectItem* agg = rewritten.AggregateItem();
  const bool nested_loop_expressible =
      agg != nullptr && agg->agg == query::AggFunc::kCount &&
      rewritten.group_by.empty();

  query::QueryResult result;
  if (pairs <= config.oblivious_join_limit && nested_loop_expressible) {
    // Real oblivious nested loop: touch every pair in fixed order and
    // accumulate matches branchlessly (data-independent control flow).
    // It computes match counts only, so grouped and non-COUNT joins take
    // the hash path below regardless of the pair limit (still charged the
    // nested-loop virtual cost — the QET model is shape-, not
    // strategy-dependent).
    query::Schema joined = query::JoinedSchema(lt, rt);
    query::ColumnExpr lkey(rewritten.join->left_column);
    query::ColumnExpr rkey(rewritten.join->right_column);
    // Per-side dummy filters, applied branchlessly alongside the
    // rewritten WHERE. The engine only joins rewritten queries over
    // dummy-flagged schemas, so the `isDummy = 0` conjuncts are always in
    // the WHERE — but on a self-join both conjuncts name the same
    // qualified column and resolve to the LEFT copy, so the WHERE alone
    // would let right-side dummies through. Reading each side's own
    // isDummy cell (non-NULL and == 0, the conjunct's exact semantics)
    // keeps the loop bit-identical to the hash path's hoisted
    // filter-before-join for every join, self- or two-table.
    const query::Value kZero(int64_t{0});
    auto real_row = [&kZero](const query::Schema& schema,
                             const query::Row& row) -> int {
      auto idx = schema.FindIndex(query::Schema::kDummyColumn);
      if (!idx || *idx >= row.size()) return 1;
      const query::Value& v = row[*idx];
      return (!v.is_null() && v.Compare(kZero) == 0) ? 1 : 0;
    };
    int64_t count = 0;
    query::Row combined;
    const auto lspans = lt.Spans();
    const auto rspans = rt.Spans();
    for (const auto& lspan : lspans) {
      for (size_t li = 0; li < lspan.size; ++li) {
        const query::Row& a = lspan.data[li];
        query::Value ka = lkey.Eval(lt.schema, a);
        const int lreal = real_row(lt.schema, a);
        for (const auto& rspan : rspans) {
          for (size_t ri = 0; ri < rspan.size; ++ri) {
            const query::Row& b = rspan.data[ri];
            query::Value kb = rkey.Eval(rt.schema, b);
            int match =
                (!ka.is_null() && !kb.is_null() && ka.Compare(kb) == 0);
            int pass = 1;
            if (rewritten.where) {
              combined.clear();
              combined.insert(combined.end(), a.begin(), a.end());
              combined.insert(combined.end(), b.begin(), b.end());
              pass = rewritten.where->Eval(joined, combined).Truthy() ? 1 : 0;
            }
            count += match & pass & lreal & real_row(rt.schema, b);
          }
        }
      }
    }
    result = query::QueryResult::Scalar(static_cast<double>(count));
  } else {
    // Simulation shortcut above the pair limit: identical answer via the
    // partitioned hash join; the virtual cost still charges the full
    // nested loop. join_skip_dummy_rows hoists the Appendix-B `isDummy =
    // 0` conjuncts of the rewritten WHERE into key-extraction filters —
    // the same filter(T, isDummy = FALSE)-before-join semantics the old
    // row-copying drop implemented, now zero-copy over the borrowed
    // spans (and still avoiding the quadratic blow-up of dummies sharing
    // a join key).
    query::Catalog catalog;
    catalog.AddTable(&lt);
    catalog.AddTable(&rt);
    query::ExecutorOptions opts;
    opts.join_skip_dummy_rows = true;
    query::Executor executor(&catalog, opts);
    auto r = executor.Execute(rewritten);
    if (!r.ok()) return r.status();
    result = std::move(r.value());
  }

  QueryResponse resp;
  resp.result = std::move(result);
  resp.stats.records_scanned = n1 + n2;
  resp.stats.join_pairs = pairs;
  resp.stats.virtual_seconds = JoinCost(cost, n1, n2);
  return resp;
}

}  // namespace

StatusOr<QueryResponse> ObliDbServer::JoinQuery(
    const query::SelectQuery& rewritten, ObliDbTable* left,
    ObliDbTable* right) {
  auto start = std::chrono::steady_clock::now();
  // Same access discipline as ScanQuery: in indexed mode both sides pay
  // one oblivious ORAM touch per record before their partitions are
  // borrowed (linear mode: the plain incremental per-shard decrypt).
  auto lview = left->EnclaveScan();
  if (!lview.ok()) return lview.status();
  auto rview = right->EnclaveScan();
  if (!rview.ok()) return rview.status();

  query::Table lt;
  lt.name = left->table_name();
  lt.schema = left->store().schema();
  lt.borrowed_spans = lview->spans;
  query::Table rt;
  rt.name = right->table_name();
  rt.schema = right->store().schema();
  rt.borrowed_spans = rview->spans;

  auto resp = JoinOverTables(rewritten, lt, rt, left->outsourced_count(),
                             right->outsourced_count(), config_, cost_);
  if (!resp.ok()) return resp.status();
  resp->stats.measured_seconds = SecondsSince(start);
  if (left->mirror() || right->mirror()) {
    // ORAM work both sides' pre-join scans paid, charged per shard height
    // (reported alongside the headline cost, same as ScanQuery).
    const auto& lw = left->last_scan_work();
    const auto& rw = right->last_scan_work();
    resp->stats.oram_paths = lw.paths + rw.paths;
    resp->stats.oram_buckets = lw.buckets + rw.buckets;
    resp->stats.oram_virtual_seconds =
        OramBucketsCost(cost_, resp->stats.oram_buckets);
  }
  return resp;
}

StatusOr<QueryResponse> ObliDbServer::SnapshotJoinQuery(
    const query::SelectQuery& rewritten, ObliDbTable* left,
    ObliDbTable* right) {
  auto start = std::chrono::steady_clock::now();
  // Pin both committed prefixes under ONE brief critical section —
  // incremental catch-up + capture only, never the join itself.
  // std::scoped_lock acquires the two mutexes deadlock-free regardless of
  // argument order, so concurrent A⋈B and B⋈A captures cannot hang; a
  // self-join pins the same epoch for both sides under a single lock.
  // Capturing both sides at one instant is also what makes the two views
  // mutually consistent: no commit can land between the captures.
  SnapshotView lview, rview;
  if (left == right) {
    std::lock_guard<std::mutex> lk(left->table_mutex());
    auto snap = left->store().Snapshot();
    if (!snap.ok()) return snap.status();
    lview = std::move(snap).value();
    rview = lview;
  } else {
    std::scoped_lock lk(left->table_mutex(), right->table_mutex());
    auto lsnap = left->store().Snapshot();
    if (!lsnap.ok()) return lsnap.status();
    auto rsnap = right->store().Snapshot();
    if (!rsnap.ok()) return rsnap.status();
    lview = std::move(lsnap).value();
    rview = std::move(rsnap).value();
  }

  // No lock held from here on: owner appends and every other reader on
  // either table proceed while we join the pinned prefixes.
  query::Table lt;
  lt.name = left->table_name();
  lt.schema = left->store().schema();
  lt.borrowed_spans = lview.spans;
  query::Table rt;
  rt.name = right->table_name();
  rt.schema = right->store().schema();
  rt.borrowed_spans = rview.spans;

  auto resp = JoinOverTables(rewritten, lt, rt, lview.total_rows,
                             rview.total_rows, config_, cost_);
  if (!resp.ok()) return resp.status();
  CountSnapshotJoin();
  resp->stats.measured_seconds = SecondsSince(start);
  return resp;
}

}  // namespace dpsync::edb
