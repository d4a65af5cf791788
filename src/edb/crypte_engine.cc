#include "edb/crypte_engine.h"

#include <chrono>

#include "query/executor.h"

namespace dpsync::edb {

CryptEpsServer::CryptEpsServer(const CryptEpsConfig& config)
    : EdbServer(config.admission),
      config_(config),
      keys_(crypto::KeyManager::FromSeed(config.master_seed)),
      cost_(CryptEpsCostModel()),
      budget_(config) {}

CryptEpsServer::~CryptEpsServer() {
  // In-flight async queries call back into our virtual SPI; drain them
  // before any member is torn down.
  DrainSessions();
}

StatusOr<EdbTable*> CryptEpsServer::CreateTableImpl(
    const std::string& name, const query::Schema& schema) {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  if (tables_.count(name)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  if (!schema.HasDummyFlag()) {
    return Status::InvalidArgument(
        "schema must carry an isDummy attribute for dummy-aware rewriting");
  }
  auto table = std::make_unique<EncryptedTableStore>(
      name, schema, keys_.DeriveKey("table-aead:" + name), config_.storage);
  table->set_view_fold_counter(view_fold_counter());
  EdbTable* handle = table.get();
  tables_[name] = std::move(table);
  return handle;
}

void CryptEpsServer::OnPlanReady(
    const std::shared_ptr<const query::QueryPlan>& plan) {
  if (!query::PlanIsViewEligible(*plan)) return;
  EncryptedTableStore* table = FindTable(plan->table);
  if (table == nullptr) return;
  // Best-effort: a failed registration (e.g. a backend error during the
  // warm fold) simply leaves this plan on the scan path.
  (void)table->RegisterView(plan);
}

EncryptedTableStore* CryptEpsServer::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const query::Schema* CryptEpsServer::FindSchema(
    const std::string& table) const {
  EncryptedTableStore* t = FindTable(table);
  return t ? &t->schema() : nullptr;
}

query::PlannerOptions CryptEpsServer::planner_options() const {
  query::PlannerOptions options;
  // Keep the legacy error text: "Crypt-eps does not support join
  // operators" (paper: Crypt-eps has no join operator).
  options.engine_name = "Crypt-eps";
  options.supports_join = false;
  return options;
}

LeakageProfile CryptEpsServer::leakage() const {
  LeakageProfile p;
  p.query_class = LeakageClass::kLDP;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = "CryptEpsilon";
  return p;
}

int64_t CryptEpsServer::total_outsourced_bytes() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) {
    std::lock_guard<std::mutex> table_lk(t->table_mutex());
    total += t->outsourced_bytes();
  }
  return total;
}

int64_t CryptEpsServer::total_outsourced_records() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) {
    std::lock_guard<std::mutex> table_lk(t->table_mutex());
    total += t->outsourced_count();
  }
  return total;
}

double CryptEpsServer::consumed_query_budget() const {
  return budget_.consumed();
}

StatusOr<QueryResponse> CryptEpsServer::ExecutePlan(
    const query::QueryPlan& plan) {
  // The planner rejected joins and resolved the table at Prepare time.
  EncryptedTableStore* table = FindTable(plan.table);
  if (!table) {
    return Status::Internal("plan references lost table " + plan.table);
  }

  // Reserve the query's epsilon before doing any work; an early return
  // drops the reservation, which gives the epsilon back.
  auto reservation = budget_.Reserve();
  if (!reservation.ok()) return reservation.status();

  auto start = std::chrono::steady_clock::now();

  // A current materialized view substitutes for the exact-aggregation
  // scan only: the budget was already reserved above and the Laplace
  // release below is the same, so the noise stream, the charged budget
  // and every reported metric are bit-identical to the scan path — the
  // view changes where the exact answer came from, nothing else.
  int64_t scanned = 0;
  bool view_hit = false;
  StatusOr<query::QueryResult> exact =
      Status::Internal("exact aggregate was never computed");
  if (query::PlanIsViewEligible(plan)) {
    if (auto hit =
            table->TryViewAnswer(plan.fingerprint, plan.canonical_text)) {
      scanned = hit->committed_rows;
      exact = std::move(hit->result);
      view_hit = true;
    }
  }
  // Otherwise the two-server aggregation pipeline, played by one process:
  // pin the committed prefix under a brief table lock (catch-up +
  // capture), then decrypt-side aggregate exactly with no lock held.
  auto run_exact = [&]() -> StatusOr<query::QueryResult> {
    SnapshotView snap;
    {
      std::lock_guard<std::mutex> table_lk(table->table_mutex());
      auto s = table->Snapshot();
      if (!s.ok()) return s.status();
      snap = std::move(s.value());
    }
    scanned = snap.total_rows;
    query::Table plain;
    plain.name = table->table_name();
    plain.schema = table->schema();
    plain.borrowed_spans = snap.spans;
    query::Catalog catalog;
    catalog.AddTable(&plain);
    query::Executor executor(&catalog);
    return executor.Execute(plan.rewritten);
  };
  if (!view_hit) exact = run_exact();
  if (!exact.ok()) return exact.status();

  // ...then release it with Laplace noise from the reserved epsilon.
  query::QueryResult noisy = std::move(exact.value());
  budget_.Release(std::move(reservation.value()), &noisy);

  if (view_hit) {
    CountViewHit();
  } else {
    CountSnapshotScan();
  }
  QueryResponse resp;
  resp.result = std::move(noisy);
  // What the scan actually touched: the committed total of the pinned
  // snapshot (or of the epoch the view answered for).
  resp.stats.records_scanned = scanned;
  resp.stats.measured_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  resp.stats.virtual_seconds =
      ScanCost(cost_, scanned, !plan.rewritten.group_by.empty());
  return resp;
}

}  // namespace dpsync::edb
