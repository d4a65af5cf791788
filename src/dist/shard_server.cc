#include "dist/shard_server.h"

#include <sys/socket.h>

#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"

namespace dpsync::dist {

namespace {

/// Every reply is a payload; errors travel as WireStatus frames. Encoding
/// a WireStatus cannot fail for the message sizes we produce, but the
/// codec is fallible by contract — degrade to an empty payload, which the
/// coordinator rejects as malformed (better than asserting in a server).
Bytes EncodeReply(const Status& s) {
  auto encoded = net::Encode(net::WireStatus{s.code(), s.message()});
  return encoded.ok() ? std::move(encoded.value()) : Bytes{};
}

/// A handler's reply message, or its error — including the encoder's
/// refusal of a reply over the frame bound — as a WireStatus.
template <typename T>
Bytes EncodeReply(const StatusOr<T>& reply) {
  if (!reply.ok()) return EncodeReply(reply.status());
  auto encoded = net::Encode(reply.value());
  return encoded.ok() ? std::move(encoded.value())
                      : EncodeReply(encoded.status());
}

}  // namespace

EdbShardServer::EdbShardServer(const ShardServerConfig& config)
    : config_(config),
      keys_(crypto::KeyManager::FromSeed(config.oblidb.master_seed)) {
  follower_ = config.follower;
}

EdbShardServer::~EdbShardServer() { Shutdown(); }

Status EdbShardServer::Serve(int fd) {
  std::lock_guard<std::mutex> lk(serve_mu_);
  if (fd_ >= 0 || thread_.joinable()) {
    net::CloseFd(fd);
    return Status::FailedPrecondition("shard server is already serving");
  }
  fd_ = fd;
  thread_ = std::thread([this, fd] { ServeLoop(fd); });
  return Status::Ok();
}

void EdbShardServer::Shutdown() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lk(serve_mu_);
    if (fd_ >= 0) {
      // Wake the serve loop's blocking read; the loop closes the fd when
      // it exits, so only shut the connection down here.
      ::shutdown(fd_, SHUT_RDWR);
      fd_ = -1;
    }
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

void EdbShardServer::InjectServeFaults(net::FaultPlan plan) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  serve_faults_ = std::move(plan);
}

bool EdbShardServer::is_follower() const {
  std::lock_guard<std::mutex> lk(repl_mu_);
  return follower_;
}

uint64_t EdbShardServer::applied_seq(const std::string& table) const {
  std::lock_guard<std::mutex> lk(repl_mu_);
  auto it = applied_seq_.find(table);
  return it == applied_seq_.end() ? 0 : it->second;
}

void EdbShardServer::ServeLoop(int fd) {
  // Blocking reads: the coordinator owns all timeouts. A dead coordinator
  // closes the socket, which lands here as an Unavailable read error.
  net::FdReadBuffer reader(fd, /*timeout_seconds=*/0);
  net::FdWriteBuffer writer(fd);
  for (;;) {
    auto request = net::ReadFrame(reader);
    if (!request.ok()) break;  // peer closed, Shutdown(), or torn frame
    net::FaultRule rule;
    {
      std::lock_guard<std::mutex> lk(fault_mu_);
      const uint8_t kind = request.value().empty() ? 0 : request.value()[0];
      rule = serve_faults_.TakeMatching(kind);
    }
    // The two commit-relative death points: die with the request unread
    // (never committed) vs die after handling it but before the ack.
    if (rule.action == net::FaultAction::kKillBeforeHandle) break;
    Bytes reply = HandleFrame(request.value());
    if (rule.action == net::FaultAction::kKillAfterHandle) break;
    if (!net::WriteFrame(writer, reply).ok()) break;
  }
  net::CloseFd(fd);
}

template <typename Req, typename Result>
Bytes EdbShardServer::Dispatch(const Bytes& payload,
                               Result (EdbShardServer::*handler)(const Req&)) {
  auto req = net::Decode<Req>(payload);
  if (!req.ok()) return EncodeReply(req.status());
  return EncodeReply((this->*handler)(req.value()));
}

Bytes EdbShardServer::HandleFrame(const Bytes& payload) {
  auto kind = net::PeekKind(payload);
  if (!kind.ok()) return EncodeReply(kind.status());
  switch (kind.value()) {
    case net::MsgKind::kCreateTable:
      return Dispatch(payload, &EdbShardServer::HandleCreateTable);
    case net::MsgKind::kExecute:
      return Dispatch(payload, &EdbShardServer::HandleExecute);
    case net::MsgKind::kIngest:
      return Dispatch(payload, &EdbShardServer::HandleIngest);
    case net::MsgKind::kReplicate:
      return Dispatch(payload, &EdbShardServer::HandleReplicate);
    case net::MsgKind::kReplicaState:
      return Dispatch(payload, &EdbShardServer::HandleReplicaState);
    case net::MsgKind::kPromote:
      return Dispatch(payload, &EdbShardServer::HandlePromote);
    default:
      return EncodeReply(Status::InvalidArgument(
          "shard server received a reply-kind message"));
  }
}

Status EdbShardServer::HandleCreateTable(const net::WireCreateTable& req) {
  query::Schema schema(req.fields);
  if (!schema.HasDummyFlag()) {
    return Status::InvalidArgument(
        "schema must carry an isDummy attribute for dummy-aware rewriting");
  }
  std::lock_guard<std::mutex> lk(catalog_mu_);
  if (tables_.count(req.table)) {
    return Status::InvalidArgument("table already exists: " + req.table);
  }
  tables_[req.table] = edb::MakeObliDbTable(
      req.table, schema, keys_.DeriveKey("table-aead:" + req.table),
      config_.oblidb);
  return Status::Ok();
}

edb::EncryptedTableStore* EdbShardServer::FindTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

StatusOr<std::shared_ptr<const query::QueryPlan>> EdbShardServer::PlanFor(
    uint64_t fingerprint, const std::string& canonical_text) {
  if (auto cached = plans_.Lookup(fingerprint, canonical_text,
                                  /*catalog_epoch=*/0)) {
    return cached;
  }
  // Re-plan from the canonical text against OUR catalog: the shipped text
  // is parse-stable by construction, and planning locally (instead of
  // trusting a shipped plan object) keeps the schema binding honest.
  auto parsed = query::ParseSelect(canonical_text);
  if (!parsed.ok()) return parsed.status();
  query::PlannerOptions options;
  options.supports_join = false;  // per-server joins are deferred
  options.engine_name = "shard server " + std::to_string(config_.rank);
  auto plan = query::PlanSelect(
      parsed.value(),
      [this](const std::string& table) -> const query::Schema* {
        edb::EncryptedTableStore* t = FindTable(table);
        return t ? &t->schema() : nullptr;
      },
      options);
  if (!plan.ok()) return plan.status();
  if (plan.value()->fingerprint != fingerprint) {
    return Status::InvalidArgument(
        "shipped fingerprint does not match the canonical text");
  }
  plans_.Insert(plan.value());
  return plan.value();
}

StatusOr<net::WirePartial> EdbShardServer::HandleExecute(
    const net::WireExecute& req) {
  auto plan_or = PlanFor(req.fingerprint, req.canonical_text);
  if (!plan_or.ok()) return plan_or.status();
  const query::QueryPlan& plan = *plan_or.value();
  edb::EncryptedTableStore* table = FindTable(plan.table);
  if (!table) {
    return Status::Internal("plan references lost table " + plan.table);
  }

  // Mirror the single-process scan: capture the committed prefix under
  // the table lock (in indexed mode the capture also pays the ORAM
  // touches), then aggregate lock-free. No views here: the coordinator
  // merges raw partials.
  auto view = [&] {
    std::lock_guard<std::mutex> lk(table->table_mutex());
    return table->Snapshot();
  }();
  if (!view.ok()) return view.status();
  query::Table plain;
  plain.name = table->table_name();
  plain.schema = table->schema();
  plain.borrowed_spans = view->spans;
  auto partial = query::ExecuteScanPartial(plan.rewritten, plain);
  if (!partial.ok()) return partial.status();

  const query::ScanPartial& p = partial.value();
  net::WirePartial out;
  out.func = p.func;
  out.grouped = p.grouped;
  // One wire cell per non-empty local shard, in local shard order — the
  // granularity the coordinator needs to fold in global shard order
  // (never this server's pre-merged aggregate; FP merges don't reassociate).
  out.spans.reserve(p.spans.size());
  for (const auto& cell : p.spans) {
    net::WireSpanPartial ws;
    ws.total = cell.total.state();
    ws.groups.reserve(cell.groups.size());
    for (const auto& [key, acc] : cell.groups) {
      ws.groups.push_back({key, acc.state()});
    }
    out.spans.push_back(std::move(ws));
  }
  out.records_scanned = p.records_scanned;
  out.oram_paths = view->oram.paths;
  out.oram_buckets = view->oram.buckets;
  return out;
}

Status EdbShardServer::ApplyBatch(edb::EncryptedTableStore* table,
                                  const net::WireIngest& batch) {
  const std::string& name = batch.table;
  if (batch.batch_seq == 0) {
    return Status::InvalidArgument("unsequenced batch for table " + name +
                                   ": batch_seq starts at 1");
  }
  uint64_t& applied = applied_seq_[name];
  if (batch.batch_seq <= applied) {
    // A post-failover retry of a batch this server already applied:
    // idempotent no-op (exactly-once lands here, not in the transport).
    return Status::Ok();
  }
  if (batch.batch_seq != applied + 1) {
    return Status::FailedPrecondition(
        "replication gap: batch " + std::to_string(batch.batch_seq) +
        " after applied " + std::to_string(applied) + " (table " + name +
        ")");
  }
  std::vector<edb::EncryptedTableStore::CipherEntry> entries;
  entries.reserve(batch.entries.size());
  for (const auto& e : batch.entries) {
    entries.push_back({e.shard, e.ciphertext});
  }
  if (!entries.empty() || batch.setup_batch) {
    DPSYNC_RETURN_IF_ERROR(table->IngestCiphertexts(
        std::move(entries), batch.nonce_high_water, batch.setup_batch));
  }
  applied = batch.batch_seq;
  return Status::Ok();
}

Status EdbShardServer::HandleIngest(const net::WireIngest& req) {
  edb::EncryptedTableStore* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("ingest for unknown table: " + req.table);
  }
  std::lock_guard<std::mutex> lk(repl_mu_);
  if (follower_) {
    return Status::FailedPrecondition(
        "shard server " + std::to_string(config_.rank) +
        " is a read-only follower");
  }
  return ApplyBatch(table, req);
}

Status EdbShardServer::HandleReplicate(const net::WireReplicate& req) {
  edb::EncryptedTableStore* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("replicate for unknown table: " + req.table);
  }
  std::lock_guard<std::mutex> lk(repl_mu_);
  return ApplyBatch(table, req);
}

StatusOr<net::WireReplicaState> EdbShardServer::HandleReplicaState(
    const net::WireReplicaStateRequest&) {
  std::vector<std::pair<std::string, edb::EncryptedTableStore*>> tables;
  {
    std::lock_guard<std::mutex> lk(catalog_mu_);
    for (const auto& [name, t] : tables_) tables.emplace_back(name, t.get());
  }
  net::WireReplicaState out;
  std::lock_guard<std::mutex> lk(repl_mu_);
  out.follower = follower_;
  out.tables.reserve(tables.size());
  for (const auto& [name, t] : tables) {
    net::WireTableReplicaState ts;
    ts.table = name;
    auto it = applied_seq_.find(name);
    ts.applied_seq = it == applied_seq_.end() ? 0 : it->second;
    ts.commit_epoch = t->commit_epoch();
    out.tables.push_back(std::move(ts));
  }
  return out;
}

Status EdbShardServer::HandlePromote(const net::WirePromote& req) {
  std::vector<
      std::pair<const net::WirePromoteTable*, edb::EncryptedTableStore*>>
      resolved;
  resolved.reserve(req.tables.size());
  for (const auto& t : req.tables) {
    edb::EncryptedTableStore* table = FindTable(t.table);
    if (!table) {
      return Status::NotFound("promote names unknown table: " + t.table);
    }
    resolved.emplace_back(&t, table);
  }
  // Re-verify the probed positions atomically under the same lock that
  // orders sequenced appends: if anything moved since the probe (a lost
  // or late batch), the cutover is rejected and the coordinator moves on
  // to the next candidate — a stale follower never becomes leader.
  std::lock_guard<std::mutex> lk(repl_mu_);
  for (const auto& [pt, table] : resolved) {
    auto it = applied_seq_.find(pt->table);
    const uint64_t applied = it == applied_seq_.end() ? 0 : it->second;
    if (applied != pt->expected_seq) {
      return Status::FailedPrecondition(
          "promotion raced: table " + pt->table + " applied batch " +
          std::to_string(applied) + ", coordinator probed " +
          std::to_string(pt->expected_seq));
    }
    if (table->commit_epoch() != pt->commit_epoch) {
      return Status::FailedPrecondition(
          "promotion raced: table " + pt->table + " is at commit epoch " +
          std::to_string(table->commit_epoch()) +
          ", coordinator probed " + std::to_string(pt->commit_epoch));
    }
  }
  follower_ = false;
  return Status::Ok();
}

}  // namespace dpsync::dist
