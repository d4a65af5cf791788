#include "edb/encrypted_database.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/thread_pool.h"
#include "query/parser.h"

namespace dpsync::edb {

// ------------------------------------------------------------ QuerySession

/// Completion slot for one submitted query (set exactly once by the pool
/// task, consumed exactly once by Wait). Kept alive by shared_ptr so a
/// session can be destroyed with tickets outstanding.
struct QuerySession::Pending {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<StatusOr<QueryResponse>> result;

  void Set(StatusOr<QueryResponse> r) {
    {
      std::lock_guard<std::mutex> lk(mu);
      result.emplace(std::move(r));
    }
    cv.notify_all();
  }

  StatusOr<QueryResponse> Get() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return result.has_value(); });
    return std::move(*result);
  }
};

StatusOr<PreparedQuery> QuerySession::Prepare(const std::string& sql) {
  auto parsed = query::ParseSelect(sql);
  if (!parsed.ok()) return parsed.status();
  return server_->PrepareInternal(parsed.value());
}

StatusOr<PreparedQuery> QuerySession::Prepare(const query::SelectQuery& q) {
  return server_->PrepareInternal(q);
}

namespace {

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// The admission deadline `options` asks for, counted from now: none
/// (wait indefinitely) for a timeout <= 0 or one past the steady clock's
/// last tick, +inf included. A NaN timeout is refused.
StatusOr<Deadline> DeadlineFrom(const QueryOptions& options) {
  using Clock = std::chrono::steady_clock;
  if (std::isnan(options.admission_timeout_seconds)) {
    return Status::InvalidArgument("admission timeout is NaN");
  }
  if (options.admission_timeout_seconds <= 0) return Deadline();
  const auto now = Clock::now();
  const std::chrono::duration<double> timeout(
      options.admission_timeout_seconds);
  // The comparison converts `timeout` to ticks in the same double
  // arithmetic as the cast below, so a timeout under the bound casts to
  // a tick count that fits, and the sum cannot pass the last tick.
  if (timeout >= Clock::time_point::max() - now) return Deadline();
  return Deadline(now + std::chrono::duration_cast<Clock::duration>(timeout));
}

}  // namespace

StatusOr<QueryResponse> QuerySession::Execute(const PreparedQuery& q,
                                              const QueryOptions& options) {
  auto deadline = DeadlineFrom(options);
  if (!deadline.ok()) return deadline.status();
  return server_->ExecuteWithDeadline(q, deadline.value());
}

StatusOr<QueryTicket> QuerySession::Submit(const PreparedQuery& q,
                                           const QueryOptions& options) {
  if (!q.valid()) {
    return Status::InvalidArgument("query was not prepared");
  }
  // The deadline clock starts at submission: time spent queued behind
  // other pool work counts against it.
  auto deadline = DeadlineFrom(options);
  if (!deadline.ok()) return deadline.status();
  auto pending = std::make_shared<Pending>();
  QueryTicket ticket;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ticket.id = next_ticket_++;
    pending_[ticket.id] = pending;
  }
  server_->SubmitAsync(q, deadline.value(), std::move(pending));
  return ticket;
}

StatusOr<QueryResponse> QuerySession::Wait(const QueryTicket& ticket) {
  std::shared_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(ticket.id);
    if (it == pending_.end()) {
      return Status::InvalidArgument(
          "unknown or already-redeemed query ticket " +
          std::to_string(ticket.id));
    }
    pending = std::move(it->second);
    pending_.erase(it);
  }
  return pending->Get();
}

// --------------------------------------------------------------- EdbServer

EdbServer::EdbServer(const AdmissionConfig& admission)
    : admission_(admission), async_(std::make_shared<AsyncState>()) {}

EdbServer::~EdbServer() {
  // Engines call DrainSessions() in their own destructors (while their
  // vtables are intact); this is a last-resort backstop for an engine
  // that forgot to.
  DrainSessions();
}

std::unique_ptr<QuerySession> EdbServer::CreateSession() {
  return std::unique_ptr<QuerySession>(new QuerySession(this));
}

namespace {

/// Table names must be parser-shaped identifiers: anything else could
/// never be referenced from SQL, and — since the canonical query text is
/// the plan-cache key — a name embedding query syntax could alias two
/// distinct queries onto one cache entry.
bool IsIdentifier(const std::string& name) {
  if (name.empty()) return false;
  auto head = static_cast<unsigned char>(name[0]);
  if (!std::isalpha(head) && name[0] != '_') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<EdbTable*> EdbServer::CreateTable(const std::string& name,
                                           const query::Schema& schema) {
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument(
        "table name must be an identifier ([A-Za-z_][A-Za-z0-9_]*): " + name);
  }
  auto table = CreateTableImpl(name, schema);
  if (table.ok()) {
    // Outstanding plans were bound against the old catalog; mark them
    // stale so the next execution re-binds — and sweep them out of the
    // cache eagerly (lookup-time eviction alone would pin dead-epoch
    // plans until their exact fingerprints happened to be re-queried).
    catalog_epoch_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.EvictStaleEpoch(catalog_epoch());
  }
  return table;
}

query::PlannerOptions EdbServer::planner_options() const {
  query::PlannerOptions options;
  options.engine_name = name();
  return options;
}

StatusOr<PreparedQuery> EdbServer::PrepareInternal(
    const query::SelectQuery& q) {
  prepares_.fetch_add(1, std::memory_order_relaxed);
  const std::string text = query::CanonicalText(q);
  const uint64_t fingerprint = query::FingerprintText(text);
  const uint64_t epoch = catalog_epoch();
  if (auto cached = plan_cache_.Lookup(fingerprint, text, epoch)) {
    // The hook fires on the cache-hit path too: a view registered by an
    // earlier Prepare survives, but a fresh server process (or an evicted
    // registration) re-attaches here at no extra cost — registration is
    // idempotent per fingerprint.
    OnPlanReady(cached);
    return PreparedQuery(std::move(cached), /*from_cache=*/true);
  }
  auto options = planner_options();
  options.catalog_epoch = epoch;
  auto plan = query::PlanSelect(
      q, [this](const std::string& table) { return FindSchema(table); },
      options);
  if (!plan.ok()) return plan.status();
  plan_cache_.Insert(plan.value());
  OnPlanReady(plan.value());
  return PreparedQuery(std::move(plan.value()), /*from_cache=*/false);
}

StatusOr<QueryResponse> EdbServer::ExecuteWithDeadline(
    const PreparedQuery& q,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  if (!q.valid()) {
    return Status::InvalidArgument("query was not prepared");
  }
  PreparedQuery bound = q;
  bool rebound = false;
  if (bound.plan_->catalog_epoch != catalog_epoch()) {
    // The catalog changed since Prepare: re-bind transparently (cheap —
    // planning is data-independent) and refresh the cache entry.
    auto replanned = PrepareInternal(bound.plan_->normalized);
    if (!replanned.ok()) return replanned.status();
    bound = replanned.value();
    rebound = true;
    rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  DPSYNC_RETURN_IF_ERROR(admission_.Acquire(deadline));
  auto response = ExecutePlan(*bound.plan_);
  admission_.Release();
  if (response.ok()) {
    // An Execute reuses the plan built at Prepare — unless a catalog
    // change forced a re-plan just now, in which case report what the
    // re-plan actually did.
    response->stats.plan_cache_hit = rebound ? bound.from_plan_cache() : true;
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

void EdbServer::SubmitAsync(
    const PreparedQuery& q,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::shared_ptr<QuerySession::Pending> out) {
  auto state = async_;
  SharedPool()->Submit(
      [this, state, q, deadline, out = std::move(out)]() mutable {
        {
          std::lock_guard<std::mutex> lk(state->mu);
          if (state->shutdown) {
            // The server is (being) destroyed; never touch `this`.
            out->Set(Status::Unavailable("server is shutting down"));
            return;
          }
          ++state->active;
        }
        out->Set(ExecuteWithDeadline(q, deadline));
        {
          std::lock_guard<std::mutex> lk(state->mu);
          --state->active;
        }
        state->cv.notify_all();
      });
}

void EdbServer::DrainSessions() {
  std::unique_lock<std::mutex> lk(async_->mu);
  async_->shutdown = true;
  async_->cv.wait(lk, [&] { return async_->active == 0; });
}

ServerStats EdbServer::stats() const {
  ServerStats s;
  s.prepares = prepares_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_.hits();
  s.plan_cache_misses = plan_cache_.misses();
  s.plan_rebinds = rebinds_.load(std::memory_order_relaxed);
  s.queries_executed = executed_.load(std::memory_order_relaxed);
  s.snapshot_scans = snapshot_scans_.load(std::memory_order_relaxed);
  s.snapshot_joins = snapshot_joins_.load(std::memory_order_relaxed);
  s.view_hits = view_hits_.load(std::memory_order_relaxed);
  s.view_folds = view_folds_.load(std::memory_order_relaxed);
  s.remote_scatters = remote_scatters_.load(std::memory_order_relaxed);
  s.remote_partials = remote_partials_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  auto admission = admission_.stats();
  s.queries_rejected = admission.rejected_queue_full;
  s.deadlines_exceeded = admission.deadlines_exceeded;
  s.peak_in_flight = admission.peak_in_flight;
  return s;
}

}  // namespace dpsync::edb
