#include "dist/coordinator.h"

#include <chrono>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/parallel.h"
#include "query/executor.h"

namespace dpsync::dist {

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Decodes the reply to an RPC whose answer is a T. Any RPC may answer
/// with a kStatusReply instead, carrying the remote error, which comes
/// back as that Status; an OK status is a valid answer only when T is
/// WireStatus itself (the ack of a mutating RPC).
template <typename T>
StatusOr<T> DecodeReply(const Bytes& reply) {
  auto kind = net::PeekKind(reply);
  if (!kind.ok()) return kind.status();
  if (kind.value() == net::MsgKind::kStatusReply &&
      !std::is_same_v<T, net::WireStatus>) {
    auto remote = net::Decode<net::WireStatus>(reply);
    if (!remote.ok()) return remote.status();
    if (remote.value().code == StatusCode::kOk) {
      return Status::Internal("OK status where a reply message was due");
    }
    return remote.value().ToStatus();
  }
  return net::Decode<T>(reply);
}

/// The Status a mutating RPC's ack carries.
Status StatusFromReply(const Bytes& reply) {
  auto ack = DecodeReply<net::WireStatus>(reply);
  return ack.ok() ? ack.value().ToStatus() : ack.status();
}

Status AnnotateRank(size_t rank, const Status& s) {
  if (s.ok()) return s;
  return Status(s.code(),
                "shard server " + std::to_string(rank) + ": " + s.message());
}

query::ScanPartial ToScanPartial(const net::WirePartial& w) {
  const query::AggFunc func = w.func;
  query::ScanPartial p(func, w.grouped);
  // Rebuild the per-shard cells and refold them in order: AppendSpan
  // replays exactly the Merge() sequence the single-process scan runs
  // over the same spans, so the aggregate state is reconstructed bit for
  // bit rather than trusted from a pre-merged wire field.
  for (const auto& ws : w.spans) {
    query::SpanPartial cell{query::AggAccumulator::FromState(func, ws.total),
                            {}};
    for (const auto& g : ws.groups) {
      cell.groups.emplace(g.key,
                          query::AggAccumulator::FromState(func, g.state));
    }
    p.AppendSpan(std::move(cell));
  }
  p.records_scanned = w.records_scanned;
  return p;
}

}  // namespace

// ---------------------------------------------------------------- DistTable

/// The coordinator-side owner handle: holds the table's ONE global cipher
/// (nonce stream) and the global ShardRouter, encrypts + routes every
/// record, and ships per-server ciphertext batches. No record bytes live
/// here — the shard servers are the storage.
class DistributedEdbServer::DistTable : public edb::EdbTable {
 public:
  DistTable(DistributedEdbServer* owner, std::string name,
            query::Schema schema, Bytes key)
      : owner_(owner),
        name_(std::move(name)),
        schema_(std::move(schema)),
        cipher_(std::move(key)),
        router_(owner_->config_.oblidb.storage.num_shards),
        rank_seq_(owner_->peers_.size(), 0) {}

  Status Setup(const std::vector<Record>& gamma0) override {
    return Ship(gamma0, /*setup_batch=*/true);
  }
  Status Update(const std::vector<Record>& gamma) override {
    return Ship(gamma, /*setup_batch=*/false);
  }

  int64_t outsourced_count() const override {
    return count_.load(std::memory_order_acquire);
  }
  int64_t outsourced_bytes() const override {
    return outsourced_count() *
           static_cast<int64_t>(crypto::RecordCipher::kCiphertextSize);
  }
  const std::string& table_name() const override { return name_; }
  uint64_t commit_epoch() const override {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  const query::Schema& schema() const { return schema_; }

  /// Highest batch_seq rank `k`'s leader has acked for this table — the
  /// replication position every failover candidate must have applied.
  uint64_t acked_seq(int rank) const {
    std::lock_guard<std::mutex> lk(seq_mu_);
    return rank_seq_[static_cast<size_t>(rank)];
  }

 private:
  void CommitSeq(int rank, uint64_t seq) {
    std::lock_guard<std::mutex> lk(seq_mu_);
    uint64_t& s = rank_seq_[static_cast<size_t>(rank)];
    if (seq > s) s = seq;
  }
  /// Encrypt + route the whole batch under the table mutex (one nonce
  /// stream, same serialization as the single-process append path), then
  /// scatter the per-server batches. A setup batch goes to EVERY server —
  /// including empty ones — so each shard store runs its Setup state
  /// transition and materializes its full topology; steady-state updates
  /// ship only to the servers whose shards the batch touched. Failure
  /// semantics: first failing rank wins; servers that already ingested
  /// keep their records (no distributed rollback — deferred with
  /// replication, see docs/DISTRIBUTED.md). Every batch is encoded before
  /// anything is sent, so a batch over the frame bound fails with
  /// ResourceExhausted and leaves every server untouched.
  Status Ship(const std::vector<Record>& gamma, bool setup_batch) {
    std::lock_guard<std::mutex> lk(table_mutex());
    if (setup_batch) {
      if (setup_done_) return Status::FailedPrecondition("Setup already run");
    } else if (!setup_done_) {
      return Status::FailedPrecondition("Update before Setup");
    }
    const size_t servers = owner_->peers_.size();
    std::vector<net::WireIngest> batches(servers);
    for (const Record& r : gamma) {
      auto ct = cipher_.Encrypt(r.payload);
      if (!ct.ok()) return ct.status();
      const int global_shard = router_.Route(r.payload);
      const auto& [rank, local_shard] = owner_->shard_owner_[global_shard];
      batches[static_cast<size_t>(rank)].entries.push_back(
          {local_shard, std::move(ct.value())});
    }
    // One high-water mark for the whole batch: every server's store
    // tracks the GLOBAL stream position, not its own consumption.
    const uint64_t high_water = cipher_.nonce_high_water();
    const bool replicated = owner_->config_.replication_factor > 0;
    std::vector<Bytes> requests(servers);
    std::vector<Bytes> replications(servers);
    std::vector<uint64_t> seqs(servers, 0);
    for (size_t k = 0; k < servers; ++k) {
      if (!setup_batch && batches[k].entries.empty()) continue;
      batches[k].table = name_;
      batches[k].setup_batch = setup_batch;
      batches[k].nonce_high_water = high_water;
      // Sequence the batch per rank: the leader dedups retries by seq, so
      // a post-failover resend after a lost ack can neither duplicate nor
      // lose records (exactly-once at the store, not the transport).
      seqs[k] = acked_seq(static_cast<int>(k)) + 1;
      batches[k].batch_seq = seqs[k];
      auto encoded = net::Encode(batches[k]);
      if (!encoded.ok()) return encoded.status();
      requests[k] = std::move(encoded.value());
      if (replicated) {
        auto relay = net::Encode(net::WireReplicate{std::move(batches[k])});
        if (!relay.ok()) return relay.status();
        replications[k] = std::move(relay.value());
      }
    }
    setup_done_ = true;  // sticky from the first send on
    auto statuses = ParallelShardStatuses(servers, [&](size_t k) -> Status {
      if (requests[k].empty()) return Status::Ok();  // untouched server
      auto reply = owner_->CallRank(k, requests[k]);
      if (!reply.ok()) return reply.status();  // rank-annotated by CallRank
      DPSYNC_RETURN_IF_ERROR(AnnotateRank(k, StatusFromReply(reply.value())));
      CommitSeq(static_cast<int>(k), seqs[k]);
      // Relay the acked batch to the rank's followers AFTER the leader
      // ack: a follower can never be ahead of its leader, so cutover plus
      // the seq-dedup retry is exactly-once end to end.
      if (!replications[k].empty()) {
        owner_->RelayToFollowers(k, replications[k]);
      }
      return Status::Ok();
    });
    for (const auto& st : statuses) DPSYNC_RETURN_IF_ERROR(st);
    count_.fetch_add(static_cast<int64_t>(gamma.size()),
                     std::memory_order_acq_rel);
    if (!gamma.empty()) {
      // Every server auto-flushed its batch (flush_every_update is a
      // distributed-mode requirement), so the records are committed and
      // query-visible on return — the same commit point the
      // single-process store publishes.
      commit_epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    return Status::Ok();
  }

  DistributedEdbServer* owner_;
  std::string name_;
  query::Schema schema_;
  crypto::RecordCipher cipher_;
  ShardRouter router_;  ///< over the GLOBAL shard count
  bool setup_done_ = false;
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> commit_epoch_{0};
  /// Per-rank acked batch sequence. Writers hold table_mutex() (Ship is
  /// serialized), but failover probes read from other threads — hence the
  /// dedicated lock.
  mutable std::mutex seq_mu_;
  std::vector<uint64_t> rank_seq_;  ///< guarded by seq_mu_
};

// ----------------------------------------------------- DistributedEdbServer

DistributedEdbServer::DistributedEdbServer(const DistributedConfig& config)
    : edb::EdbServer(config.oblidb.admission),
      config_(config),
      keys_(crypto::KeyManager::FromSeed(config.oblidb.master_seed)),
      cost_(edb::ObliDbCostModel()) {
  const edb::StorageConfig& storage = config.oblidb.storage;  // GLOBAL
  const int total_shards = storage.num_shards;
  const int servers = config.num_servers;
  if (servers < 1) {
    init_status_ = Status::InvalidArgument(
        "distributed deployment needs at least one shard server");
    return;
  }
  if (total_shards < servers) {
    init_status_ = Status::InvalidArgument(
        "num_servers (" + std::to_string(servers) +
        ") exceeds the global shard count (" + std::to_string(total_shards) +
        "): every server must own at least one shard");
    return;
  }
  const double timeout = config.rpc_timeout_seconds;
  if (!(std::isfinite(timeout) && timeout > 0)) {
    // A zero, negative, NaN or infinite deadline is no deadline: a hung
    // server would hang the coordinator.
    init_status_ = Status::InvalidArgument(
        "rpc_timeout_seconds must be finite and positive, got " +
        std::to_string(timeout));
    return;
  }
  if (!storage.flush_every_update) {
    // The coordinator's commit point is "every server auto-flushed the
    // batch"; manual commit points would need a distributed flush
    // protocol this PR defers.
    init_status_ = Status::InvalidArgument(
        "distributed mode requires StorageConfig::flush_every_update");
    return;
  }

  // Per-TREE ORAM capacity is the invariant: the single-process topology
  // gives every shard ceil(capacity / S) blocks, so each server gets that
  // much per local shard and the tree heights (hence oram_buckets) match
  // the single-process engine exactly.
  const size_t per_tree_capacity =
      (config.oblidb.oram_capacity + static_cast<size_t>(total_shards) - 1) /
      static_cast<size_t>(total_shards);

  const int replicas = config.replication_factor;
  if (replicas < 0) {
    init_status_ =
        Status::InvalidArgument("replication_factor must be >= 0");
    return;
  }

  shard_owner_.resize(static_cast<size_t>(total_shards));
  peers_.reserve(static_cast<size_t>(servers));
  for (int k = 0; k < servers; ++k) {
    const int lo = static_cast<int>(static_cast<int64_t>(total_shards) * k /
                                    servers);
    const int hi = static_cast<int>(static_cast<int64_t>(total_shards) *
                                    (k + 1) / servers);
    for (int g = lo; g < hi; ++g) {
      shard_owner_[static_cast<size_t>(g)] = {k,
                                              static_cast<uint32_t>(g - lo)};
    }

    Peer peer;
    peer.lo = lo;
    peer.hi = hi;
    peer.mu = std::make_unique<std::mutex>();
    // Member 0 is the initial leader; 1..replicas are warm followers with
    // the same local topology (a promoted follower serves the same global
    // shard ranks, so the rank-order merge tree never changes).
    for (int m = 0; m <= replicas; ++m) {
      ShardServerConfig sc;
      sc.oblidb = config.oblidb;
      sc.oblidb.storage.num_shards = hi - lo;
      if (!storage.dir.empty()) {
        sc.oblidb.storage.dir = storage.dir + "/rank" + std::to_string(k);
        if (m > 0) sc.oblidb.storage.dir += "-r" + std::to_string(m);
      }
      sc.oblidb.oram_capacity =
          per_tree_capacity * static_cast<size_t>(hi - lo);
      sc.rank = k;
      sc.follower = m > 0;

      Member member;
      member.server = std::make_unique<EdbShardServer>(sc);
      auto fds = net::SocketPair();
      if (!fds.ok()) {
        init_status_ = fds.status();
        return;
      }
      const int server_fd = fds.value().a;
      const int channel_fd = fds.value().b;
      Status serving = member.server->Serve(server_fd);
      if (!serving.ok()) {
        net::CloseFd(channel_fd);
        init_status_ = serving;
        return;
      }
      member.channel = std::make_unique<net::Channel>(
          channel_fd, config.rpc_timeout_seconds);
      peer.members.push_back(std::move(member));
    }
    peers_.push_back(std::move(peer));
  }
}

DistributedEdbServer::~DistributedEdbServer() {
  // In-flight async queries call back into our virtual SPI; drain them
  // while the object is intact, then tear the transport down.
  DrainSessions();
  for (auto& peer : peers_) {
    for (auto& member : peer.members) {
      if (member.channel) member.channel->Close();
      if (member.server) member.server->Shutdown();
    }
  }
}

edb::LeakageProfile DistributedEdbServer::leakage() const {
  // The deployment reports the underlying scheme's leakage class, but a
  // host that watches its sockets sees more than that class allows.
  // Records cross the wire only as ciphertexts, yet frames are not
  // sealed: each WireExecute carries the plan's canonical text, literals
  // included, and each WirePartial reply carries its shards' exact
  // accumulator state (count, sum, min, max, one per group when grouped)
  // in the clear (ROADMAP direction 3). Placement is the unkeyed FNV-1a
  // hash of each record's payload, so the per-rank ingest frames and
  // per-shard sizes leak more than the update pattern (ROADMAP direction
  // 2).
  edb::LeakageProfile p;
  p.query_class = edb::LeakageClass::kL0;
  p.update_leaks_only_pattern = true;
  p.encrypts_records_atomically = true;
  p.supports_insertion = true;
  p.scheme_name = name();
  return p;
}

int64_t DistributedEdbServer::total_outsourced_bytes() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) total += t->outsourced_bytes();
  return total;
}

int64_t DistributedEdbServer::total_outsourced_records() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  int64_t total = 0;
  for (const auto& [_, t] : tables_) total += t->outsourced_count();
  return total;
}

int64_t DistributedEdbServer::rpc_calls() const {
  int64_t total = 0;
  for (const auto& peer : peers_) {
    for (const auto& member : peer.members) {
      total += member.channel->rpc_calls();
    }
  }
  return total;
}

int64_t DistributedEdbServer::bytes_shipped() const {
  int64_t total = 0;
  for (const auto& peer : peers_) {
    for (const auto& member : peer.members) {
      total += member.channel->bytes_shipped();
    }
  }
  return total;
}

Status DistributedEdbServer::KillServer(int rank) {
  if (rank < 0 || rank >= num_servers()) {
    return Status::OutOfRange("no shard server with rank " +
                              std::to_string(rank));
  }
  Peer& peer = peers_[static_cast<size_t>(rank)];
  size_t leader;
  {
    std::lock_guard<std::mutex> lk(*peer.mu);
    leader = peer.leader;
  }
  // Kill without flagging dead: the coordinator discovers the death the
  // honest way — a failed RPC — and runs the cutover machinery from
  // there, exactly like a real crash.
  peer.members[leader].server->Kill();
  return Status::Ok();
}

DistributedEdbServer::Member* DistributedEdbServer::MemberAt(int rank,
                                                             int member) {
  if (rank < 0 || rank >= num_servers()) return nullptr;
  Peer& peer = peers_[static_cast<size_t>(rank)];
  if (member < 0 || member >= static_cast<int>(peer.members.size())) {
    return nullptr;
  }
  return &peer.members[static_cast<size_t>(member)];
}

Status DistributedEdbServer::KillFollower(int rank, int member) {
  Member* m = MemberAt(rank, member);
  if (m == nullptr) {
    return Status::OutOfRange("no member " + std::to_string(member) +
                              " in shard group " + std::to_string(rank));
  }
  Peer& peer = peers_[static_cast<size_t>(rank)];
  {
    std::lock_guard<std::mutex> lk(*peer.mu);
    if (peer.leader == static_cast<size_t>(member)) {
      return Status::FailedPrecondition(
          "member " + std::to_string(member) + " of shard group " +
          std::to_string(rank) + " is the current leader; use KillServer");
    }
    m->dead = true;
  }
  m->server->Kill();
  m->channel->Close();
  return Status::Ok();
}

Status DistributedEdbServer::InjectChannelFaults(int rank, int member,
                                                 net::FaultPlan plan) {
  Member* m = MemberAt(rank, member);
  if (m == nullptr) {
    return Status::OutOfRange("no member " + std::to_string(member) +
                              " in shard group " + std::to_string(rank));
  }
  m->channel->InjectFaults(std::move(plan));
  return Status::Ok();
}

EdbShardServer* DistributedEdbServer::ShardServerForTest(int rank,
                                                         int member) {
  Member* m = MemberAt(rank, member);
  return m == nullptr ? nullptr : m->server.get();
}

DistributedEdbServer::DistTable* DistributedEdbServer::FindTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const query::Schema* DistributedEdbServer::FindSchema(
    const std::string& table) const {
  DistTable* t = FindTable(table);
  return t ? &t->schema() : nullptr;
}

query::PlannerOptions DistributedEdbServer::planner_options() const {
  query::PlannerOptions options;
  options.engine_name = name();
  // Joins would need either co-partitioned tables or record shipping
  // between servers; both are deferred, so joins are rejected at Prepare
  // time like Crypt-eps does.
  options.supports_join = false;
  return options;
}

StatusOr<edb::EdbTable*> DistributedEdbServer::CreateTableImpl(
    const std::string& name, const query::Schema& schema) {
  DPSYNC_RETURN_IF_ERROR(init_status_);
  if (!schema.HasDummyFlag()) {
    return Status::InvalidArgument(
        "schema must carry an isDummy attribute for dummy-aware rewriting");
  }
  {
    std::lock_guard<std::mutex> lk(catalog_mu_);
    if (tables_.count(name)) {
      return Status::InvalidArgument("table already exists: " + name);
    }
  }
  net::WireCreateTable req;
  req.table = name;
  req.fields = schema.fields();
  auto encoded = net::Encode(req);
  if (!encoded.ok()) return encoded.status();
  // Broadcast to EVERY live member (followers included — a follower that
  // never hosted the table could not apply relays or be promoted) before
  // registering locally: a server that failed to create the table would
  // fail every later RPC for it anyway, so surface the error here
  // (servers that already created it keep the empty table — harmless, and
  // retrying with another name is always possible). The broadcast runs
  // outside catalog_mu_: a member failure here must be free to take the
  // failover path, which reads acked sequences under that lock.
  auto statuses =
      ParallelShardStatuses(peers_.size(), [&](size_t k) -> Status {
        Peer& peer = peers_[k];
        for (size_t m = 0; m < peer.members.size(); ++m) {
          bool dead;
          {
            std::lock_guard<std::mutex> lk(*peer.mu);
            dead = peer.members[m].dead;
          }
          if (dead) continue;
          auto reply = peer.members[m].channel->Call(encoded.value());
          if (!reply.ok()) return AnnotateRank(k, reply.status());
          DPSYNC_RETURN_IF_ERROR(
              AnnotateRank(k, StatusFromReply(reply.value())));
        }
        return Status::Ok();
      });
  for (const auto& st : statuses) DPSYNC_RETURN_IF_ERROR(st);
  std::lock_guard<std::mutex> lk(catalog_mu_);
  if (tables_.count(name)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  auto table = std::make_unique<DistTable>(
      this, name, schema, keys_.DeriveKey("table-aead:" + name));
  edb::EdbTable* handle = table.get();
  tables_[name] = std::move(table);
  return handle;
}

StatusOr<Bytes> DistributedEdbServer::CallRank(size_t k,
                                               const Bytes& request) {
  Peer& peer = peers_[k];
  Status last = Status::Unavailable("no live leader");
  const int max_attempts = static_cast<int>(peer.members.size()) + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    size_t leader;
    uint64_t generation;
    {
      std::lock_guard<std::mutex> lk(*peer.mu);
      leader = peer.leader;
      generation = peer.generation;
    }
    auto reply = peer.members[leader].channel->Call(request);
    if (reply.ok()) return reply;
    // Transport failure (typed remote errors arrive as kStatusReply
    // frames and pass through above): cut over, then retry once against
    // the promoted leader. Unreplicated groups keep the old semantics —
    // the annotated Unavailable surfaces directly.
    last = AnnotateRank(k, reply.status());
    if (peer.members.size() == 1) return last;
    Status cut = EnsureFailover(k, generation);
    if (!cut.ok()) return cut;
  }
  return last;
}

Status DistributedEdbServer::EnsureFailover(size_t k,
                                            uint64_t observed_generation) {
  Peer& peer = peers_[k];
  std::lock_guard<std::mutex> lk(*peer.mu);
  if (peer.generation != observed_generation) {
    // Another caller already cut this group over; retry with its leader.
    return Status::Ok();
  }
  Member& old_leader = peer.members[peer.leader];
  old_leader.dead = true;
  old_leader.server->Kill();
  old_leader.channel->Close();
  // The positions a candidate must hold: every table's acked sequence at
  // this rank. A follower behind any of them is missing committed data
  // (a relay to it was lost or refused, and relays are never resent) —
  // promoting it would silently lose records, so it is skipped, never
  // "close enough".
  std::vector<std::pair<std::string, uint64_t>> expected;
  {
    std::lock_guard<std::mutex> clk(catalog_mu_);
    expected.reserve(tables_.size());
    for (const auto& [name, t] : tables_) {
      expected.emplace_back(name, t->acked_seq(static_cast<int>(k)));
    }
  }
  Status last = Status::Unavailable("no follower remains");
  for (size_t m = 0; m < peer.members.size(); ++m) {
    Member& candidate = peer.members[m];
    if (m == peer.leader || candidate.dead) continue;
    if (candidate.behind) {
      // It missed or refused a relay, so no probe can find it current.
      last = Status::FailedPrecondition("follower " + std::to_string(m) +
                                        " missed a relay");
      continue;
    }
    Status promoted = TryPromote(candidate, expected);
    if (promoted.ok()) {
      peer.leader = m;
      ++peer.generation;
      CountFailover();
      return Status::Ok();
    }
    last = promoted;
    if (promoted.code() == StatusCode::kUnavailable) candidate.dead = true;
  }
  return Status::Unavailable(
      "shard server " + std::to_string(k) +
      ": leader died and no follower could be promoted (" + last.message() +
      ")");
}

Status DistributedEdbServer::TryPromote(
    Member& candidate,
    const std::vector<std::pair<std::string, uint64_t>>& expected_seqs) {
  auto probe_req = net::Encode(net::WireReplicaStateRequest{});
  DPSYNC_RETURN_IF_ERROR(probe_req.status());
  auto reply = candidate.channel->Call(probe_req.value());
  if (!reply.ok()) return reply.status();
  auto state = DecodeReply<net::WireReplicaState>(reply.value());
  DPSYNC_RETURN_IF_ERROR(state.status());
  // Build the promotion from the PROBED positions: the follower
  // re-verifies them atomically under its own locks, so anything that
  // moved between probe and promote (a late relay landing) rejects the
  // cutover rather than promoting through a race.
  net::WirePromote promote;
  promote.tables.reserve(expected_seqs.size());
  for (const auto& [table, acked] : expected_seqs) {
    const net::WireTableReplicaState* ts = nullptr;
    for (const auto& t : state.value().tables) {
      if (t.table == table) {
        ts = &t;
        break;
      }
    }
    if (ts == nullptr) {
      return Status::FailedPrecondition("candidate does not host table " +
                                        table);
    }
    if (ts->applied_seq != acked) {
      return Status::FailedPrecondition(
          "candidate lags table " + table + ": applied batch " +
          std::to_string(ts->applied_seq) + " of " + std::to_string(acked));
    }
    promote.tables.push_back({table, ts->applied_seq, ts->commit_epoch});
  }
  auto promote_req = net::Encode(promote);
  DPSYNC_RETURN_IF_ERROR(promote_req.status());
  auto ack = candidate.channel->Call(promote_req.value());
  if (!ack.ok()) return ack.status();
  return StatusFromReply(ack.value());
}

void DistributedEdbServer::RelayToFollowers(size_t k,
                                            const Bytes& replicate_request) {
  Peer& peer = peers_[k];
  std::vector<size_t> targets;
  {
    std::lock_guard<std::mutex> lk(*peer.mu);
    for (size_t m = 0; m < peer.members.size(); ++m) {
      const Member& member = peer.members[m];
      if (m == peer.leader || member.dead) continue;
      if (member.behind) {
        // It would refuse this batch over the gap: skip the frame, but
        // count the batch it misses.
        replica_lag_batches_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      targets.push_back(m);
    }
  }
  for (size_t m : targets) {
    auto reply = peer.members[m].channel->Call(replicate_request);
    Status applied =
        reply.ok() ? StatusFromReply(reply.value()) : reply.status();
    if (applied.ok()) {
      bytes_replicated_.fetch_add(
          static_cast<int64_t>(replicate_request.size()),
          std::memory_order_relaxed);
    } else {
      // Best-effort by design: the leader has the batch, and losing the
      // relay must not fail the ingest. Relays are never resent, so the
      // follower is now behind for good: later relays skip it, and a
      // cutover never promotes it.
      replica_lag_batches_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(*peer.mu);
      peer.members[m].behind = true;
    }
  }
}

Status DistributedEdbServer::Scatter(const Bytes& request,
                                     std::vector<Bytes>* replies) {
  const size_t servers = peers_.size();
  replies->assign(servers, Bytes{});
  auto statuses = ParallelShardStatuses(servers, [&](size_t k) -> Status {
    auto reply = CallRank(k, request);
    if (!reply.ok()) return reply.status();
    (*replies)[k] = std::move(reply.value());
    return Status::Ok();
  });
  // First failing rank wins — deterministic regardless of which RPC
  // actually failed first in wall-clock time.
  for (const auto& st : statuses) DPSYNC_RETURN_IF_ERROR(st);
  return Status::Ok();
}

StatusOr<edb::QueryResponse> DistributedEdbServer::ExecutePlan(
    const query::QueryPlan& plan) {
  DPSYNC_RETURN_IF_ERROR(init_status_);
  if (plan.kind != query::PlanKind::kScan) {
    return Status::Internal(name() +
                            " received a join plan the planner should have "
                            "rejected at Prepare");
  }
  DistTable* table = FindTable(plan.table);
  if (!table) {
    return Status::Internal("plan references lost table " + plan.table);
  }

  auto start = std::chrono::steady_clock::now();

  net::WireExecute req;
  req.fingerprint = plan.fingerprint;
  req.canonical_text = plan.canonical_text;
  auto encoded = net::Encode(req);
  if (!encoded.ok()) return encoded.status();
  std::vector<Bytes> replies;
  DPSYNC_RETURN_IF_ERROR(Scatter(encoded.value(), &replies));

  // Gather: decode and merge partials in strict rank order. Server k owns
  // global shards [S*k/K, S*(k+1)/K) and ships one aggregate cell per
  // non-empty local shard, so concatenating the rank-ordered cell lists
  // recovers the global shard order. The single-process scan reduces over
  // the span-aligned tree (query::SpanAlignedScanChunks: chunk partials
  // fold within their shard, shard cells fold in shard order) — MergeFrom
  // replays that fold cell by cell, so the finalized answer is
  // bit-identical to the one-process engine even for FP-sensitive
  // aggregates (SUM/AVG over doubles).
  query::ScanPartial merged;
  int64_t oram_paths = 0;
  int64_t oram_buckets = 0;
  for (size_t k = 0; k < replies.size(); ++k) {
    auto wire = DecodeReply<net::WirePartial>(replies[k]);
    if (!wire.ok()) return AnnotateRank(k, wire.status());
    oram_paths += wire.value().oram_paths;
    oram_buckets += wire.value().oram_buckets;
    query::ScanPartial partial = ToScanPartial(wire.value());
    if (k == 0) {
      merged = std::move(partial);
    } else {
      Status ms = merged.MergeFrom(partial);
      if (!ms.ok()) return AnnotateRank(k, ms);
    }
  }

  CountRemoteScatter(static_cast<int64_t>(replies.size()));
  // The shard servers served this scan from pinned snapshots; count it
  // once at the coordinator, matching the single-process counter.
  CountSnapshotScan();

  edb::QueryResponse resp;
  resp.result = merged.Finalize();
  resp.stats.records_scanned = merged.records_scanned;
  resp.stats.virtual_seconds = edb::ScanCost(cost_, merged.records_scanned,
                                             !plan.rewritten.group_by.empty());
  if (oram_buckets > 0) {
    resp.stats.oram_paths = oram_paths;
    resp.stats.oram_buckets = oram_buckets;
    resp.stats.oram_virtual_seconds = edb::OramBucketsCost(cost_, oram_buckets);
  }
  resp.stats.measured_seconds = SecondsSince(start);
  return resp;
}

}  // namespace dpsync::dist
