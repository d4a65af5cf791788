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
Bytes EncodeStatusReply(const Status& s) {
  auto encoded = net::WireStatus::FromStatus(s).Encode();
  return encoded.ok() ? encoded.value() : Bytes{};
}

}  // namespace

EdbShardServer::EdbShardServer(const ShardServerConfig& config)
    : config_(config),
      keys_(crypto::KeyManager::FromSeed(config.master_seed)) {
  table_config_.master_seed = config.master_seed;
  table_config_.use_oram_index = config.use_oram_index;
  table_config_.oram_capacity = config.oram_capacity;
  table_config_.storage = config.storage;
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
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (rule.action == net::FaultAction::kKillAfterHandle) break;
    if (!net::WriteFrame(writer, reply).ok()) break;
  }
  net::CloseFd(fd);
}

Bytes EdbShardServer::HandleFrame(const Bytes& payload) {
  auto kind = net::PeekKind(payload);
  if (!kind.ok()) return EncodeStatusReply(kind.status());
  switch (kind.value()) {
    case net::MsgKind::kCreateTable: {
      auto req = net::WireCreateTable::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      return EncodeStatusReply(HandleCreateTable(req.value()));
    }
    case net::MsgKind::kPrepare: {
      auto req = net::WirePlan::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      prepares_.fetch_add(1, std::memory_order_relaxed);
      auto plan = PlanFor(req.value().fingerprint,
                          req.value().canonical_text);
      return EncodeStatusReply(plan.ok() ? Status::Ok() : plan.status());
    }
    case net::MsgKind::kExecute: {
      auto req = net::WirePlan::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      auto partial = HandleExecute(req.value());
      if (!partial.ok()) return EncodeStatusReply(partial.status());
      auto encoded = partial.value().Encode();
      if (!encoded.ok()) return EncodeStatusReply(encoded.status());
      return encoded.value();
    }
    case net::MsgKind::kIngest: {
      auto req = net::WireIngest::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      return EncodeStatusReply(HandleIngest(req.value()));
    }
    case net::MsgKind::kReplicate: {
      auto req = net::WireReplicate::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      return EncodeStatusReply(HandleReplicate(req.value()));
    }
    case net::MsgKind::kCatchUp: {
      auto req = net::WireCatchUp::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      auto reply = HandleCatchUp(req.value());
      if (!reply.ok()) return EncodeStatusReply(reply.status());
      auto encoded = reply.value().Encode();
      if (!encoded.ok()) return EncodeStatusReply(encoded.status());
      return encoded.value();
    }
    case net::MsgKind::kReplicaState: {
      auto req = net::WireReplicaStateRequest::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      auto encoded = HandleReplicaState().Encode();
      if (!encoded.ok()) return EncodeStatusReply(encoded.status());
      return encoded.value();
    }
    case net::MsgKind::kPromote: {
      auto req = net::WirePromote::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      return EncodeStatusReply(HandlePromote(req.value()));
    }
    case net::MsgKind::kFlush: {
      auto req = net::WireTableRef::Decode(payload);
      if (!req.ok()) return EncodeStatusReply(req.status());
      return EncodeStatusReply(HandleFlush(req.value()));
    }
    case net::MsgKind::kStats: {
      auto encoded = HandleStats().Encode();
      if (!encoded.ok()) return EncodeStatusReply(encoded.status());
      return encoded.value();
    }
    default:
      return EncodeStatusReply(Status::InvalidArgument(
          "shard server received a reply-kind or unknown message"));
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
  tables_[req.table] = std::make_unique<edb::ObliDbTable>(
      req.table, schema, keys_.DeriveKey("table-aead:" + req.table),
      table_config_);
  return Status::Ok();
}

edb::ObliDbTable* EdbShardServer::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

StatusOr<std::shared_ptr<const query::QueryPlan>> EdbShardServer::PlanFor(
    uint64_t fingerprint, const std::string& canonical_text) {
  {
    std::lock_guard<std::mutex> lk(plans_mu_);
    auto it = plans_.find(fingerprint);
    if (it != plans_.end() &&
        it->second->canonical_text == canonical_text) {
      return it->second;
    }
  }
  // Re-plan from the canonical text against OUR catalog: the shipped text
  // is parse-stable by construction, and planning locally (instead of
  // trusting a shipped plan object) keeps the schema binding honest.
  auto parsed = query::ParseSelect(canonical_text);
  if (!parsed.ok()) return parsed.status();
  query::PlannerOptions options;
  options.supports_join = false;  // per-server joins are deferred
  options.engine_name = "shard server " + std::to_string(config_.rank);
  options.oram_indexed = config_.use_oram_index;
  auto plan = query::PlanSelect(
      parsed.value(),
      [this](const std::string& table) -> const query::Schema* {
        edb::ObliDbTable* t = FindTable(table);
        return t ? &t->store().schema() : nullptr;
      },
      options);
  if (!plan.ok()) return plan.status();
  if (plan.value()->fingerprint != fingerprint) {
    return Status::InvalidArgument(
        "shipped fingerprint does not match the canonical text");
  }
  std::lock_guard<std::mutex> lk(plans_mu_);
  plans_[fingerprint] = plan.value();
  return plan.value();
}

StatusOr<net::WirePartial> EdbShardServer::HandleExecute(
    const net::WirePlan& req) {
  executes_.fetch_add(1, std::memory_order_relaxed);
  auto plan_or = PlanFor(req.fingerprint, req.canonical_text);
  if (!plan_or.ok()) return plan_or.status();
  const query::QueryPlan& plan = *plan_or.value();
  edb::ObliDbTable* table = FindTable(plan.table);
  if (!table) {
    return Status::Internal("plan references lost table " + plan.table);
  }

  // Mirror the single-process dispatch: read-only linear scans pin an
  // epoch snapshot and aggregate lock-free; indexed scans hold the table
  // lock across the whole scan + aggregation because they borrow
  // uncommitted enclave state (and rewrite ORAM trees). No views here:
  // the coordinator merges raw partials.
  auto aggregate = [&](const edb::SnapshotView& view)
      -> StatusOr<query::ScanPartial> {
    query::Table plain;
    plain.name = table->table_name();
    plain.schema = table->store().schema();
    plain.borrowed_spans = view.spans;
    return query::ExecuteScanPartial(plan.rewritten, plain);
  };

  StatusOr<query::ScanPartial> partial =
      Status::Internal("scan partial was never computed");
  edb::ObliDbTable::OramScanWork oram_work;
  if (query::PlanIsReadOnlyScan(plan)) {
    auto view = table->SnapshotScan();  // locks internally, scan lock-free
    if (!view.ok()) return view.status();
    partial = aggregate(view.value());
  } else {
    std::lock_guard<std::mutex> lk(table->table_mutex());
    auto view = table->EnclaveScan();
    if (!view.ok()) return view.status();
    partial = aggregate(view.value());
    oram_work = table->last_scan_work();
  }
  if (!partial.ok()) return partial.status();

  const query::ScanPartial& p = partial.value();
  net::WirePartial out;
  out.func = static_cast<uint8_t>(p.func);
  out.grouped = p.grouped;
  auto pack = [](const query::AggAccumulator& acc) {
    auto s = acc.state();
    net::WireAggState w;
    w.count = s.count;
    w.sum = s.sum;
    w.min = s.min;
    w.max = s.max;
    w.seen = s.seen;
    return w;
  };
  // One wire cell per non-empty local shard, in local shard order — the
  // granularity the coordinator needs to fold in global shard order
  // (never this server's pre-merged aggregate; FP merges don't reassociate).
  out.spans.reserve(p.spans.size());
  for (const auto& cell : p.spans) {
    net::WireSpanPartial ws;
    ws.total = pack(cell.total);
    ws.groups.reserve(cell.groups.size());
    for (const auto& [key, acc] : cell.groups) {
      ws.groups.emplace_back(key, pack(acc));
    }
    out.spans.push_back(std::move(ws));
  }
  out.records_scanned = p.records_scanned;
  out.oram_paths = oram_work.paths;
  out.oram_buckets = oram_work.buckets;
  return out;
}

Status EdbShardServer::ApplyBatch(
    const std::string& name, edb::ObliDbTable* table, uint64_t batch_seq,
    const std::vector<uint64_t>* base_rows,
    const std::vector<net::WireCipherRecord>& wire_entries,
    uint64_t nonce_high_water, bool setup_batch) {
  uint64_t& applied = applied_seq_[name];
  if (batch_seq != 0 && batch_seq <= applied) {
    // A post-failover retry of a batch this server already applied:
    // idempotent no-op (exactly-once lands here, not in the transport).
    return Status::Ok();
  }
  if (base_rows != nullptr) {
    // Catch-up span: it must start exactly at our committed rows, the
    // same tail-plausibility stance Reopen takes — a span that would
    // leave a hole or double-append is rejected, never patched over.
    std::vector<uint64_t> have = table->store().CommittedShardRows();
    if (base_rows->size() != have.size()) {
      return Status::FailedPrecondition(
          "catch-up span names " + std::to_string(base_rows->size()) +
          " shards, table " + name + " has " + std::to_string(have.size()));
    }
    for (size_t s = 0; s < have.size(); ++s) {
      if ((*base_rows)[s] != have[s]) {
        return Status::FailedPrecondition(
            "catch-up span starts at row " +
            std::to_string((*base_rows)[s]) + " of shard " +
            std::to_string(s) + ", replica holds " +
            std::to_string(have[s]) + " rows (table " + name + ")");
      }
    }
  } else if (batch_seq != 0 && batch_seq != applied + 1) {
    return Status::FailedPrecondition(
        "replication gap: batch " + std::to_string(batch_seq) +
        " after applied " + std::to_string(applied) + " (table " + name +
        ")");
  }
  std::vector<edb::EncryptedTableStore::CipherEntry> entries;
  entries.reserve(wire_entries.size());
  for (const auto& e : wire_entries) {
    entries.push_back({e.shard, e.ciphertext});
  }
  if (!entries.empty() || setup_batch) {
    DPSYNC_RETURN_IF_ERROR(
        table->IngestCiphertexts(entries, nonce_high_water, setup_batch));
  }
  if (batch_seq != 0) applied = batch_seq;
  return Status::Ok();
}

Status EdbShardServer::HandleIngest(const net::WireIngest& req) {
  edb::ObliDbTable* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("ingest for unknown table: " + req.table);
  }
  std::lock_guard<std::mutex> lk(repl_mu_);
  if (follower_) {
    return Status::FailedPrecondition(
        "shard server " + std::to_string(config_.rank) +
        " is a read-only follower");
  }
  return ApplyBatch(req.table, table, req.batch_seq, /*base_rows=*/nullptr,
                    req.entries, req.nonce_high_water, req.setup_batch);
}

Status EdbShardServer::HandleReplicate(const net::WireReplicate& req) {
  edb::ObliDbTable* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("replicate for unknown table: " + req.table);
  }
  std::lock_guard<std::mutex> lk(repl_mu_);
  return ApplyBatch(req.table, table, req.batch_seq,
                    req.base_rows.empty() ? nullptr : &req.base_rows,
                    req.entries, req.nonce_high_water, req.setup_batch);
}

StatusOr<net::WireCatchUpReply> EdbShardServer::HandleCatchUp(
    const net::WireCatchUp& req) {
  edb::ObliDbTable* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("catch-up for unknown table: " + req.table);
  }
  // repl_mu_ keeps the exported spans consistent with the applied_seq
  // they are stamped with (sequenced appends hold the same lock).
  std::lock_guard<std::mutex> lk(repl_mu_);
  std::vector<edb::EncryptedTableStore::CipherEntry> entries;
  DPSYNC_RETURN_IF_ERROR(
      table->store().ExportCommittedSpans(req.from_rows, &entries));
  net::WireCatchUpReply out;
  auto it = applied_seq_.find(req.table);
  out.applied_seq = it == applied_seq_.end() ? 0 : it->second;
  out.nonce_high_water = table->store().nonce_high_water();
  out.base_rows = req.from_rows;
  out.entries.reserve(entries.size());
  for (auto& e : entries) {
    out.entries.push_back({e.shard, std::move(e.ciphertext)});
  }
  return out;
}

net::WireReplicaState EdbShardServer::HandleReplicaState() {
  std::vector<std::pair<std::string, edb::ObliDbTable*>> tables;
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
    ts.commit_epoch = t->store().commit_epoch();
    ts.nonce_high_water = t->store().nonce_high_water();
    ts.shard_rows = t->store().CommittedShardRows();
    out.tables.push_back(std::move(ts));
  }
  return out;
}

Status EdbShardServer::HandlePromote(const net::WirePromote& req) {
  std::vector<std::pair<const net::WirePromoteTable*, edb::ObliDbTable*>>
      resolved;
  resolved.reserve(req.tables.size());
  for (const auto& t : req.tables) {
    edb::ObliDbTable* table = FindTable(t.table);
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
    if (table->store().commit_epoch() != pt->commit_epoch) {
      return Status::FailedPrecondition(
          "promotion raced: table " + pt->table + " is at commit epoch " +
          std::to_string(table->store().commit_epoch()) +
          ", coordinator probed " + std::to_string(pt->commit_epoch));
    }
  }
  follower_ = false;
  return Status::Ok();
}

Status EdbShardServer::HandleFlush(const net::WireTableRef& req) {
  edb::ObliDbTable* table = FindTable(req.table);
  if (!table) {
    return Status::NotFound("flush for unknown table: " + req.table);
  }
  return table->Flush();
}

net::WireServerStats EdbShardServer::HandleStats() const {
  net::WireServerStats s;
  s.prepares = prepares_.load(std::memory_order_relaxed);
  s.queries_executed = executes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dpsync::dist
