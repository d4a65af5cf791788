#include "edb/oblidb_engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "oram/oblivious_join.h"
#include "query/executor.h"
#include "query/vectorized.h"

namespace dpsync::edb {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

std::unique_ptr<EncryptedTableStore> MakeObliDbTable(
    const std::string& name, const query::Schema& schema, Bytes key,
    const ObliDbConfig& config) {
  std::optional<oram::OramMirrorConfig> index;
  if (config.use_oram_index) {
    index.emplace();
    index->capacity = config.oram_capacity;
    index->master_seed = config.master_seed;
    index->record_trace = config.record_oram_trace;
  }
  return std::make_unique<EncryptedTableStore>(name, schema, std::move(key),
                                               config.storage, index);
}

ObliDbServer::ObliDbServer(const ObliDbConfig& config)
    : ObliDbServer(config, ObliDbCostModel()) {}

ObliDbServer::ObliDbServer(const ObliDbConfig& config, const CostModel& cost)
    : EdbServer(config.admission),
      config_(config),
      keys_(crypto::KeyManager::FromSeed(config.master_seed)),
      cost_(cost) {}

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
  auto table = MakeObliDbTable(name, schema,
                               keys_.DeriveKey("table-aead:" + name), config_);
  table->set_view_fold_counter(view_fold_counter());
  EdbTable* handle = table.get();
  tables_[name] = std::move(table);
  return handle;
}

void ObliDbServer::OnPlanReady(
    const std::shared_ptr<const query::QueryPlan>& plan) {
  if (!query::PlanIsViewEligible(*plan)) return;
  EncryptedTableStore* table = FindTable(plan->table);
  if (table == nullptr) return;
  // Best-effort: a failed registration (a table with an ORAM index, or a
  // decryption error during the warm fold) simply leaves this plan on the
  // scan path.
  (void)table->RegisterView(plan);
}

EncryptedTableStore* ObliDbServer::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const query::Schema* ObliDbServer::FindSchema(const std::string& table) const {
  EncryptedTableStore* t = FindTable(table);
  return t ? &t->schema() : nullptr;
}

LeakageProfile ObliDbServer::leakage() const {
  LeakageProfile p;
  p.query_class = LeakageClass::kL0;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = name();
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
          mirror->tree(s).access_count();
    }
  }
  return health;
}

StatusOr<QueryResponse> ObliDbServer::ExecutePlan(
    const query::QueryPlan& plan) {
  // The planner resolved these names against our catalog and tables are
  // never dropped, so the lookups cannot fail while the server lives.
  EncryptedTableStore* table = FindTable(plan.table);
  if (!table) return Status::Internal("plan references lost table " +
                                      plan.table);
  if (plan.kind == query::PlanKind::kJoin) {
    EncryptedTableStore* right = FindTable(plan.join_table);
    if (!right) {
      return Status::Internal("plan references lost table " +
                              plan.join_table);
    }
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
    // through to the scan below.
  }
  return ScanQuery(plan.rewritten, table);
}

namespace {

/// Back half of ScanQuery: aggregate `rewritten` over the rows of `view`
/// and price the scan. Runs with no lock held — the view's spans bound
/// every row access.
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
  // store's committed count, so virtual QET numbers are unchanged by
  // sharding and by the storage method.
  resp.stats.records_scanned = view.total_rows;
  resp.stats.virtual_seconds =
      ScanCost(cost, view.total_rows, !rewritten.group_by.empty());
  return resp;
}

}  // namespace

StatusOr<QueryResponse> ObliDbServer::ScanQuery(
    const query::SelectQuery& rewritten, EncryptedTableStore* table) {
  auto start = std::chrono::steady_clock::now();
  auto view = [&] {
    std::lock_guard<std::mutex> lk(table->table_mutex());
    return table->Snapshot();
  }();
  if (!view.ok()) return view.status();
  // No lock held from here on: concurrent same-table scans and owner
  // appends proceed while we aggregate over the pinned prefix.
  auto resp = AggregateOverView(rewritten, table->table_name(),
                                table->schema(), view.value(), cost_);
  if (!resp.ok()) return resp.status();
  CountSnapshotScan();
  resp->stats.measured_seconds = SecondsSince(start);
  if (table->mirror()) {
    // Charge the per-shard tree heights the capture actually crossed. This
    // is reported next to — not inside — virtual_seconds: the headline QET
    // stays a function of the record count alone, so it is invariant in
    // the physical shard topology like every other experiment metric
    // (docs/ORAM.md discusses the calibration).
    resp->stats.oram_paths = view->oram.paths;
    resp->stats.oram_buckets = view->oram.buckets;
    resp->stats.oram_virtual_seconds =
        OramBucketsCost(cost_, view->oram.buckets);
  }
  return resp;
}

namespace {

/// Which join sides the columns of `e` resolve to in the joined schema,
/// looked up as ColumnExpr::Eval looks them up: bit 0 for the left side
/// (indices below `left_cols`), bit 1 for the right. A name that resolves
/// nowhere evaluates to NULL on either side and marks neither.
int SidesRead(const query::Expr& e, const query::Schema& joined,
              size_t left_cols) {
  auto sides = [&](const query::Expr& child) {
    return SidesRead(child, joined, left_cols);
  };
  switch (e.kind()) {
    case query::ExprKind::kColumn: {
      const auto idx = query::ResolveColumnName(
          joined, static_cast<const query::ColumnExpr&>(e).name());
      if (!idx) return 0;
      return *idx < left_cols ? 1 : 2;
    }
    case query::ExprKind::kLiteral:
      return 0;
    case query::ExprKind::kCompare: {
      const auto& c = static_cast<const query::CompareExpr&>(e);
      return sides(c.lhs()) | sides(c.rhs());
    }
    case query::ExprKind::kBetween: {
      const auto& b = static_cast<const query::BetweenExpr&>(e);
      return sides(b.operand()) | sides(b.lo()) | sides(b.hi());
    }
    case query::ExprKind::kLogical: {
      const auto& l = static_cast<const query::LogicalExpr&>(e);
      return sides(l.lhs()) | sides(l.rhs());
    }
    case query::ExprKind::kNot:
      return sides(static_cast<const query::NotExpr&>(e).inner());
  }
  return 0;
}

/// Appends the top-level AND conjuncts of `e` to `out`, left to right.
/// AND is pure, so a pair passes the WHERE exactly when it passes every
/// conjunct.
void AppendConjuncts(const query::Expr* e,
                     std::vector<const query::Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind() == query::ExprKind::kLogical) {
    const auto& l = static_cast<const query::LogicalExpr&>(*e);
    if (l.op() == query::LogicalExpr::Op::kAnd) {
      AppendConjuncts(&l.lhs(), out);
      AppendConjuncts(&l.rhs(), out);
      return;
    }
  }
  out->push_back(e);
}

/// Appends one tag per row of `t`, in span order. The filter bit ANDs a
/// non-NULL key (`key_at(span, i)` returns the key and whether it is
/// non-NULL), the row's own real-row test (query::MarkRealRows, the hash
/// join's test) and `where`, the side's conjuncts evaluated against
/// `where_schema`. The real-row test reads each side's own isDummy cell
/// rather than going through the WHERE: on a self-join both `isDummy = 0`
/// conjuncts resolve to the left copy, and only the right row's own cell
/// keeps the right side's dummies out.
template <typename Key, typename KeyAt>
void TagSide(const query::Table& t, const query::Expr* where,
             const query::Schema& where_schema, KeyAt key_at,
             std::vector<oram::JoinTag<Key>>* tags) {
  const auto dummy = t.schema.FindIndex(query::Schema::kDummyColumn);
  std::optional<query::VectorPredicate> pred;
  if (where) pred = query::VectorPredicate::Compile(where, where_schema);
  std::vector<uint8_t> pass;
  std::vector<uint8_t> real;
  std::vector<std::vector<uint8_t>> scratch;
  for (const query::RowSpan& span : t.Spans()) {
    pass.assign(span.size, 1);
    if (pred && pred->CompatibleWith(span.columns)) {
      pred->Eval(span.columns, 0, span.size, pass.data(), &scratch);
    } else if (where) {
      for (size_t i = 0; i < span.size; ++i) {
        pass[i] = where->Eval(where_schema, span.data[i]).Truthy();
      }
    }
    real.resize(span.size);
    query::MarkRealRows(span.data, span.columns, dummy, 0, span.size,
                        real.data());
    for (size_t i = 0; i < span.size; ++i) {
      const auto [key, has_key] = key_at(span, i);
      tags->push_back(
          {key, static_cast<uint8_t>(has_key & pass[i] & real[i]), 0});
    }
  }
}

}  // namespace

std::optional<int64_t> ObliviousCountJoin(const query::SelectQuery& rewritten,
                                          const query::Table& left,
                                          const query::Table& right,
                                          oram::AccessTrace* trace) {
  // File each WHERE conjunct under the side it reads; one that reads no
  // resolvable column is constant over pairs and goes left.
  const query::Schema joined = query::JoinedSchema(left, right);
  const size_t left_cols = left.schema.size();
  std::vector<const query::Expr*> conjuncts;
  AppendConjuncts(rewritten.where.get(), &conjuncts);
  query::ExprPtr where[2];
  for (const query::Expr* c : conjuncts) {
    const int sides = SidesRead(*c, joined, left_cols);
    if (sides == 3) return std::nullopt;
    query::ExprPtr& w = where[sides == 2 ? 1 : 0];
    w = w ? std::make_unique<query::LogicalExpr>(query::LogicalExpr::Op::kAnd,
                                                 std::move(w), c->Clone())
          : c->Clone();
  }
  // A side's slice of the joined schema resolves that side's conjuncts to
  // the cells the joined schema resolves them to: lookups take the first
  // match, and every name a side's conjunct reads resolves inside it.
  const auto& fields = joined.fields();
  const query::Schema left_schema(
      {fields.begin(), fields.begin() + static_cast<ptrdiff_t>(left_cols)});
  const query::Schema right_schema(
      {fields.begin() + static_cast<ptrdiff_t>(left_cols), fields.end()});

  const auto lkey =
      query::ResolveColumnName(left.schema, rewritten.join->left_column);
  const auto rkey =
      query::ResolveColumnName(right.schema, rewritten.join->right_column);
  const size_t left_rows = left.TotalRows();
  const size_t rows = left_rows + right.TotalRows();
  auto int_keyed = [](const query::Table& t, std::optional<size_t> key) {
    return key && t.schema.fields()[*key].type == query::ValueType::kInt &&
           query::SpansTyped(t.Spans(), t.schema.size(), *key,
                             query::ValueType::kInt);
  };
  if (int_keyed(left, lkey) && int_keyed(right, rkey)) {
    // Both key columns typed int in every span: sort the int64 keys.
    auto key_at = [](size_t key) {
      return [key](const query::RowSpan& span, size_t i) {
        const query::ColumnSpan& col = span.columns[key];
        return std::pair<int64_t, uint8_t>(col.ints[i], !col.nulls[i]);
      };
    };
    std::vector<oram::JoinTag<int64_t>> tags;
    tags.reserve(rows);
    TagSide(left, where[0].get(), left_schema, key_at(*lkey), &tags);
    TagSide(right, where[1].get(), right_schema, key_at(*rkey), &tags);
    return oram::ObliviousJoinCount(
        std::move(tags), left_rows,
        [](int64_t a, int64_t b) { return (a > b) - (a < b); }, trace);
  }
  // Any other key (strings, doubles, mixed declarations, a poisoned
  // column) is sorted and matched through Value::Compare, which orders
  // every key except a double NaN and an int beyond 2^53 against doubles.
  // The tags hold pointers to the key cells, so the tag trace stays
  // data-independent but each comparison reads two row cells the sort
  // has permuted; typed int keys sort inline and read nothing else.
  static const query::Value kNullKey;
  auto key_at = [](std::optional<size_t> key) {
    return [key](const query::RowSpan& span, size_t i) {
      const query::Row& row = span.data[i];
      const query::Value* v =
          key && *key < row.size() ? &row[*key] : &kNullKey;
      return std::pair<const query::Value*, uint8_t>(v, !v->is_null());
    };
  };
  std::vector<oram::JoinTag<const query::Value*>> tags;
  tags.reserve(rows);
  TagSide(left, where[0].get(), left_schema, key_at(lkey), &tags);
  TagSide(right, where[1].get(), right_schema, key_at(rkey), &tags);
  return oram::ObliviousJoinCount(
      std::move(tags), left_rows,
      [](const query::Value* a, const query::Value* b) {
        return a->Compare(*b);
      },
      trace);
}

namespace {

/// Back half of JoinQuery: the oblivious-vs-hash decision plus response
/// pricing, over two tables whose row spans borrow pinned snapshots. Runs
/// with no lock held — the spans bound every row access. `n1`/`n2` are
/// the row counts the views cover.
StatusOr<QueryResponse> JoinOverTables(const query::SelectQuery& rewritten,
                                       query::Table& lt, query::Table& rt,
                                       int64_t n1, int64_t n2,
                                       const ObliDbConfig& config,
                                       const CostModel& cost) {
  const int64_t pairs = n1 * n2;
  const query::SelectItem* agg = rewritten.AggregateItem();
  std::optional<int64_t> count;
  if (pairs <= config.oblivious_join_limit && agg != nullptr &&
      agg->agg == query::AggFunc::kCount && rewritten.group_by.empty()) {
    // Ungrouped COUNT under the pair limit: the oblivious sort-merge join.
    // It declines a WHERE conjunct that reads both sides.
    count = ObliviousCountJoin(rewritten, lt, rt);
  }

  query::QueryResult result;
  if (count) {
    result = query::QueryResult::Scalar(static_cast<double>(*count));
  } else {
    // Grouped, non-COUNT, cross-side-predicate and over-limit joins:
    // identical answer via the partitioned hash join, whose accesses
    // depend on the data; the virtual cost still charges the paper's
    // nested loop (the QET model is shape-, not strategy-dependent).
    // join_skip_dummy_rows hoists the Appendix-B `isDummy = 0` conjuncts
    // of the rewritten WHERE into key-extraction filters — the
    // filter(T, isDummy = FALSE)-before-join semantics, zero-copy over
    // the borrowed spans (and avoiding the quadratic blow-up of dummies
    // sharing a join key).
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
    const query::SelectQuery& rewritten, EncryptedTableStore* left,
    EncryptedTableStore* right) {
  auto start = std::chrono::steady_clock::now();
  // Capture both sides under ONE brief critical section, never the join
  // itself. std::scoped_lock acquires the two mutexes deadlock-free
  // regardless of argument order, so concurrent A⋈B and B⋈A captures
  // cannot hang; a self-join locks once and captures each side, so an
  // indexed self-join pays both sides' ORAM touches. Capturing both sides
  // at one instant is also what makes the two views mutually consistent:
  // no commit can land between the captures.
  SnapshotView lview, rview;
  auto capture_both = [&]() -> Status {
    auto l = left->Snapshot();
    if (!l.ok()) return l.status();
    auto r = right->Snapshot();
    if (!r.ok()) return r.status();
    lview = std::move(l).value();
    rview = std::move(r).value();
    return Status::Ok();
  };
  Status captured;
  if (left == right) {
    std::lock_guard<std::mutex> lk(left->table_mutex());
    captured = capture_both();
  } else {
    std::scoped_lock lk(left->table_mutex(), right->table_mutex());
    captured = capture_both();
  }
  DPSYNC_RETURN_IF_ERROR(captured);

  // No lock held from here on: owner appends and every other reader on
  // either table proceed while we join the pinned prefixes.
  query::Table lt;
  lt.name = left->table_name();
  lt.schema = left->schema();
  lt.borrowed_spans = lview.spans;
  query::Table rt;
  rt.name = right->table_name();
  rt.schema = right->schema();
  rt.borrowed_spans = rview.spans;

  auto resp = JoinOverTables(rewritten, lt, rt, lview.total_rows,
                             rview.total_rows, config_, cost_);
  if (!resp.ok()) return resp.status();
  CountSnapshotJoin();
  resp->stats.measured_seconds = SecondsSince(start);
  if (left->mirror() || right->mirror()) {
    // ORAM work both sides' captures paid, charged per shard height
    // (reported alongside the headline cost, same as ScanQuery).
    resp->stats.oram_paths = lview.oram.paths + rview.oram.paths;
    resp->stats.oram_buckets = lview.oram.buckets + rview.oram.buckets;
    resp->stats.oram_virtual_seconds =
        OramBucketsCost(cost_, resp->stats.oram_buckets);
  }
  return resp;
}

}  // namespace dpsync::edb
