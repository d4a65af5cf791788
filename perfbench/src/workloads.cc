/// \file workloads.cc
/// The four workloads. All of them drive the system only through public
/// APIs with the engines' default execution configuration: DpSyncEngine
/// owners over TimingBackend-wrapped EdbTables, and analyst sessions on the
/// same EdbServer.
///
///   owner_sync    horizon: ObliDB linear, segment log, 4 shards; DP-Timer
///                 YellowCab + DP-ANT GreenTaxi ticked through TickAll over a
///                 multi-month horizon; Q1/Q2 every 360 ticks, Q3 daily.
///   analyst_mix   interleaved: ObliDB linear, in memory, 4 shards; ~2^15
///                 preloaded YellowCab rows, ~2^12 GreenTaxi rows; two
///                 analyst sessions (dashboard / adhoc / join) taking turns
///                 with a DP-ANT owner on YellowCab.
///   dist_scan     interleaved: DistributedEdbServer (ObliDB, 2 ranks over 4
///                 shards, one follower per rank); ~2^14 preloaded rows; two
///                 sessions (dashboard / adhoc) taking turns with the owner.
///   oram_indexed  horizon: ObliDB indexed (per-shard Path ORAM), 4
///                 shards; one DP-Timer YellowCab; Q1/Q2 every 60 ticks.
///
/// Every workload runs on one benchmark thread: the owner's ticks and the
/// analyst's requests never overlap, so the process CPU time across one of
/// them is that operation's own cost (the engines' pool threads included).
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/strategy_factory.h"
#include "dist/coordinator.h"
#include "edb/oblidb_engine.h"
#include "query/plan.h"
#include "workload/taxi_generator.h"
#include "workload/trip_record.h"

namespace perfbench {

using dpsync::DpSyncEngine;
using dpsync::Record;
using dpsync::Rng;
using dpsync::Status;
using dpsync::StrategyKind;
using dpsync::workload::TaxiTrace;
using dpsync::workload::TripRecord;
namespace dist = dpsync::dist;
namespace edb = dpsync::edb;

namespace {

constexpr int kShards = 4;
constexpr int64_t kMonth = 43200;  ///< one paper month of one-minute ticks
constexpr int64_t kZones = 265;
/// The paper's monthly arrival volumes (taxi_generator.h) per tick.
constexpr double kYellowPerTick = 18429.0 / kMonth;
constexpr double kGreenPerTick = 21300.0 / kMonth;

uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  dpsync::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + salt);
  return sm.Next();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// A trace whose trips are shifted to start at minute `offset` (keeps pick
/// times unique per table when a stream follows a preload).
TaxiTrace MakeTrace(const std::string& provider, int64_t minutes,
                    double density, uint64_t seed, int64_t offset = 0) {
  dpsync::workload::TaxiConfig tc;
  tc.provider = provider;
  tc.horizon_minutes = minutes;
  tc.target_records = std::llround(density * static_cast<double>(minutes));
  tc.seed = seed;
  TaxiTrace trace = dpsync::workload::GenerateTaxiTrace(tc);
  for (auto& slot : trace.arrivals) {
    if (slot) slot->pick_time += offset;
  }
  return trace;
}

/// Preload trips over `minutes` one-minute slots, generated in bounded
/// chunks so the transient per-slot trace stays small.
std::vector<TripRecord> MakePreload(const std::string& provider,
                                    int64_t minutes, double density,
                                    uint64_t seed) {
  constexpr int64_t kChunk = 1 << 18;
  std::vector<TripRecord> trips;
  for (int64_t begin = 0, c = 0; begin < minutes; begin += kChunk, ++c) {
    TaxiTrace chunk = MakeTrace(provider, std::min(kChunk, minutes - begin),
                                density, SeedFor(seed, c), begin);
    for (auto& slot : chunk.arrivals) {
      if (slot) trips.push_back(*slot);
    }
  }
  return trips;
}

std::vector<Record> ToRecords(const std::vector<TripRecord>& trips) {
  std::vector<Record> records;
  records.reserve(trips.size());
  for (const auto& t : trips) records.push_back(t.ToRecord());
  return records;
}

void DigestTrips(const std::vector<TripRecord>& trips, uint64_t* h) {
  GroupHasher hasher(*h);
  for (const auto& t : trips) {
    hasher.Add(t.pick_time * 1000 + t.pickup_id, t.fare);
  }
  *h = hasher.hash();
}

/// A unique segment-log directory under the output dir, removed on scope
/// exit (declare it before the server that writes into it).
class StorageDir {
 public:
  StorageDir(const Options& opts, int round_index)
      : path_((std::filesystem::path(opts.out_dir) /
               ("storage-" + opts.workload + "-" + std::to_string(round_index)))
                  .string()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~StorageDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  StorageDir(const StorageDir&) = delete;
  StorageDir& operator=(const StorageDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One owned table: trace stream, timing wrapper and its DP-Sync engine.
struct OwnedTable {
  TaxiTrace stream;
  LogicalTable logical;
  std::unique_ptr<TimingBackend> backend;
  std::unique_ptr<DpSyncEngine> engine;
  dpsync::EngineCounters after_setup;

  std::vector<Record> Arrivals(int64_t tick) const {
    std::vector<Record> batch;
    const auto& slot = stream.arrivals[static_cast<size_t>(tick - 1)];
    if (slot) batch.push_back(slot->ToRecord());
    return batch;
  }
};

Status AddOwnedTable(edb::EdbServer* server, const std::string& name,
                     StrategyKind kind, Rng* seeder, OwnerContext* ctx,
                     OwnedTable* out, int ranks = 1) {
  auto table = server->CreateTable(name, dpsync::workload::TripSchema());
  if (!table.ok()) return table.status();
  out->backend =
      std::make_unique<TimingBackend>(table.value(), ctx, ranks, kShards);
  out->engine = std::make_unique<DpSyncEngine>(
      dpsync::MakeStrategy(kind, dpsync::StrategyParams{}, seeder),
      out->backend.get(), dpsync::workload::MakeTripDummyFactory(seeder->Next()),
      seeder->Next());
  return Status::Ok();
}

/// Builds the logical sequence of an owned table after the measured phase:
/// D_0 in Setup order, then the stream slots the owner consumed.
void BuildLogical(const std::vector<TripRecord>& preload, int64_t ticks,
                  OwnedTable* t) {
  for (const auto& trip : preload) t->logical.AddPreload(trip);
  for (int64_t s = 0; s < ticks; ++s) {
    const auto& slot = t->stream.arrivals[static_cast<size_t>(s)];
    if (slot) t->logical.AddStream(*slot, s + 1);
  }
}

/// Issues one request and records its timings (and spans when traced).
/// `prepared` null means the request prepares its own SQL text.
Request RunRequest(edb::QuerySession* session, Request r,
                   const edb::PreparedQuery* prepared, bool views,
                   SpanRecorder* rec) {
  const uint64_t id = rec ? rec->NextId() : 0;
  const int64_t cpu_start = CpuNs();
  const int64_t start = NowNs();
  edb::PreparedQuery fresh;
  if (prepared == nullptr) {
    const uint64_t pid = rec ? rec->NextId() : 0;
    const int64_t p0 = NowNs();
    auto p = session->Prepare(ShapeSql(r.shape, r.lo, r.hi));
    const int64_t p1 = NowNs();
    if (rec) rec->Record({pid, id, "edb.prepare", p0, p1});
    r.prepare_s = Seconds(p1 - p0);
    if (!p.ok()) return r;
    fresh = std::move(p.value());
    prepared = &fresh;
  }
  const uint64_t eid = rec ? rec->NextId() : 0;
  const int64_t e0 = NowNs();
  auto resp = session->Execute(*prepared);
  const int64_t e1 = NowNs();
  if (rec) rec->Record({eid, id, "edb.execute", e0, e1});
  r.execute_s = Seconds(e1 - e0);
  if (resp.ok()) {
    r.ok = true;
    if (resp->result.grouped) {
      GroupHasher h;
      for (const auto& [key, value] : resp->result.groups) {
        h.Add(key.AsInt(), value);
      }
      r.group_hash = h.hash();
    } else {
      r.scalar = resp->result.scalar;
    }
    const auto& s = resp->stats;
    r.records_scanned = s.records_scanned;
    r.join_pairs = s.join_pairs;
    r.virtual_s = s.virtual_seconds;
    r.engine_s = s.measured_seconds;
    r.oram_paths = s.oram_paths;
    r.oram_buckets = s.oram_buckets;
    r.oram_virtual_s = s.oram_virtual_seconds;
    r.view_eligible = views && dpsync::query::PlanIsViewEligible(*prepared->plan());
  }
  const int64_t end = NowNs();
  r.cpu_s = Seconds(CpuNs() - cpu_start);
  if (rec) rec->Record({id, 0, "analyst.request", start, end});
  r.latency_s = Seconds(end - start);
  return r;
}

/// A query prepared at set-up (the "first Prepare"), fired by schedule or
/// drawn by a session.
struct Prepared {
  Request proto;
  edb::PreparedQuery handle;
};

Status PrepareAll(edb::QuerySession* session, std::vector<Prepared>* queries) {
  for (auto& q : *queries) {
    auto p = session->Prepare(ShapeSql(q.proto.shape, q.proto.lo, q.proto.hi));
    if (!p.ok()) return p.status();
    q.handle = std::move(p.value());
    // Warm execution: lazy enclave mirrors and view folds finish in set-up.
    auto warm = session->Execute(q.handle);
    if (!warm.ok()) return warm.status();
  }
  return Status::Ok();
}

edb::ServerStats Delta(const edb::ServerStats& a, const edb::ServerStats& b) {
  edb::ServerStats d = b;
  d.prepares -= a.prepares;
  d.plan_cache_hits -= a.plan_cache_hits;
  d.plan_cache_misses -= a.plan_cache_misses;
  d.plan_rebinds -= a.plan_rebinds;
  d.queries_executed -= a.queries_executed;
  d.queries_rejected -= a.queries_rejected;
  d.deadlines_exceeded -= a.deadlines_exceeded;
  d.snapshot_scans -= a.snapshot_scans;
  d.snapshot_joins -= a.snapshot_joins;
  d.view_hits -= a.view_hits;
  d.view_folds -= a.view_folds;
  d.remote_scatters -= a.remote_scatters;
  d.remote_partials -= a.remote_partials;
  d.failovers -= a.failovers;
  return d;  // peak_in_flight stays the high-water mark
}

/// Owner-side totals over the measured phase, server-side totals at the
/// end of the round.
void FinishOwner(edb::EdbServer* server, std::vector<OwnedTable*> tables,
                 Round* round) {
  for (OwnedTable* t : tables) {
    const auto& c = t->engine->counters();
    round->syncs += c.updates_posted - t->after_setup.updates_posted;
    round->real_synced += c.real_synced - t->after_setup.real_synced;
    round->dummy_synced += c.dummy_synced - t->after_setup.dummy_synced;
    const CommitLog& log = t->backend->log();
    round->update_records += log.records_posted - log.setup_records;
    round->user_bytes += log.user_bytes;
  }
  round->outsourced_bytes += server->total_outsourced_bytes();
}

int64_t TotalPosted(const std::vector<OwnedTable*>& tables) {
  int64_t n = 0;
  for (const OwnedTable* t : tables) n += t->engine->counters().updates_posted;
  return n;
}

int64_t TotalGap(const std::vector<OwnedTable*>& tables) {
  int64_t n = 0;
  for (const OwnedTable* t : tables) n += t->engine->logical_gap();
  return n;
}

/// One owner tick across `tables` (TickAll when there are several), with
/// its `owner.tick` span. Adds its process CPU time to the round and, when
/// any table posted an update, records the tick as a sync.
void OwnerTick(const std::vector<OwnedTable*>& tables, int64_t tick,
               OwnerContext* ctx, Round* round) {
  std::vector<std::pair<DpSyncEngine*, std::vector<Record>>> work;
  for (OwnedTable* t : tables) work.emplace_back(t->engine.get(), t->Arrivals(tick));
  const int64_t posted = TotalPosted(tables);
  SpanRecorder* rec = ctx->recorder;
  const uint64_t id = rec ? rec->NextId() : 0;
  ctx->tick_span.store(id, std::memory_order_release);
  const int64_t c0 = CpuNs();
  const int64_t t0 = NowNs();
  Status s = work.size() == 1
                 ? work[0].first->TickBatch(std::move(work[0].second))
                 : DpSyncEngine::TickAll(std::move(work));
  const int64_t t1 = NowNs();
  const double cpu = Seconds(CpuNs() - c0);
  if (rec) rec->Record({id, 0, "owner.tick", t0, t1});
  ++round->ticks;
  round->tick_cpu_s += cpu;
  if (!s.ok()) {
    ++round->failed_ticks;
    if (round->error.empty()) round->error = "owner tick: " + s.ToString();
  }
  round->gap_sum += static_cast<double>(TotalGap(tables));
  if (TotalPosted(tables) != posted) {
    round->sync_s.push_back(Seconds(t1 - t0));
    round->sync_cpu_s.push_back(cpu);
  }
}

/// The schedule of owner_sync and oram_indexed: tick, then fire whichever
/// queries are due, over the whole horizon.
struct Scheduled {
  Prepared query;
  int64_t interval = 0;
};

void RunHorizon(edb::QuerySession* session, std::vector<OwnedTable*> tables,
                std::vector<Scheduled>* schedule, int64_t horizon, bool views,
                OwnerContext* ctx, Round* round) {
  const int64_t cpu_start = CpuNs();
  const int64_t start = NowNs();
  for (int64_t t = 1; t <= horizon; ++t) {
    OwnerTick(tables, t, ctx, round);
    for (Scheduled& s : *schedule) {
      if (t % s.interval != 0) continue;
      Request r = s.query.proto;
      r.issue_tick = t;
      r.yellow_rows = tables[0]->backend->outsourced_count();
      r.commit_lo = r.commit_hi = tables[0]->backend->commits_done() - 1;
      if (tables.size() > 1) r.green_rows = tables[1]->backend->outsourced_count();
      round->requests.push_back(
          RunRequest(session, r, &s.query.handle, views, ctx->recorder));
    }
  }
  round->measured_s = Seconds(NowNs() - start);
  round->measured_cpu_s = Seconds(CpuNs() - cpu_start);
}

/// Session mix: requests of each class per block. Every block holds exactly
/// these counts in a seeded random order, so the shares do not drift with
/// the number of requests a round reaches.
struct Mix {
  int dashboard = 0;
  int adhoc = 0;
  int join = 0;
};

/// The interleaved sessions issue 60% ad-hoc requests. This is an
/// assumption: the paper's analyst issues no ad-hoc queries. The other
/// requests follow the paper's schedule, where Q1 and Q2 fire every 360
/// ticks and Q3 once a day, so 8 dashboard requests come to 1 join.
constexpr Mix kAnalystMix = {16, 27, 2};  // 35.6% / 60% / 4.4%
constexpr Mix kDistMix = {2, 3, 0};       // the coordinator rejects joins

/// The schedule of analyst_mix and dist_scan, `requests` times over:
/// `ticks_per_request` owner ticks, then the next request of the `mix`
/// blocks (dashboard queries taken in turn, ad-hoc ranges drawn at random),
/// issued by the next of `sessions` sessions in turn. Commits and view folds
/// land between the reads, never during one.
void RunInterleaved(edb::EdbServer* server, OwnedTable* owner,
                    int64_t ticks_per_request, int64_t requests, int sessions,
                    Mix mix, uint64_t mix_seed,
                    const std::vector<Prepared>& dashboard,
                    const Prepared* join, bool views, OwnerContext* ctx,
                    Round* round) {
  std::vector<std::unique_ptr<edb::QuerySession>> open;
  for (int i = 0; i < sessions; ++i) open.push_back(server->CreateSession());
  Rng rng(mix_seed);
  const std::vector<OwnedTable*> tables = {owner};
  const int64_t cpu_start = CpuNs();
  const int64_t start = NowNs();
  std::vector<QueryClass> block;
  int64_t tick = 0;
  size_t dashboards = 0;
  for (int64_t n = 0; n < requests; ++n) {
    for (int64_t k = 0; k < ticks_per_request; ++k) {
      OwnerTick(tables, ++tick, ctx, round);
    }
    if (block.empty()) {
      block.insert(block.end(), mix.dashboard, QueryClass::kDashboard);
      block.insert(block.end(), mix.adhoc, QueryClass::kAdhoc);
      if (join) block.insert(block.end(), mix.join, QueryClass::kJoin);
      rng.Shuffle(&block);
    }
    const QueryClass cls = block.back();
    block.pop_back();
    Request r;
    const edb::PreparedQuery* handle = nullptr;
    if (cls == QueryClass::kDashboard) {
      const auto& q = dashboard[dashboards++ % dashboard.size()];
      r = q.proto;
      handle = &q.handle;
    } else if (cls == QueryClass::kAdhoc) {
      r.cls = QueryClass::kAdhoc;
      r.shape = rng.Bernoulli(0.5) ? Shape::kMin : Shape::kMax;
      r.lo = rng.UniformInt(1, kZones);
      r.hi = rng.UniformInt(1, kZones);
      if (r.lo > r.hi) std::swap(r.lo, r.hi);
    } else {
      r = join->proto;
      handle = &join->handle;
    }
    r.issue_tick = tick;
    r.commit_lo = owner->backend->commits_done() - 1;
    r = RunRequest(open[static_cast<size_t>(n) % open.size()].get(), r,
                   handle, views, ctx->recorder);
    r.commit_hi = owner->backend->commits_started() - 1;
    round->requests.push_back(r);
  }
  round->measured_s = Seconds(NowNs() - start);
  round->measured_cpu_s = Seconds(CpuNs() - cpu_start);
}

Prepared Dashboard(Shape shape, int64_t lo = 0, int64_t hi = 0) {
  Prepared p;
  p.proto.shape = shape;
  p.proto.cls = QueryClass::kDashboard;
  p.proto.lo = lo;
  p.proto.hi = hi;
  return p;
}

Prepared JoinQuery() {
  Prepared p;
  p.proto.shape = Shape::kQ3;
  p.proto.cls = QueryClass::kJoin;
  return p;
}

void CheckRound(const OwnedTable& yellow, const LogicalTable* green_logical,
                const CommitLog* green_log, Round* round) {
  OracleTable y{&yellow.logical, &yellow.backend->log()};
  OracleTable g{green_logical, green_log};
  round->oracle = CheckRequests(y, g, &round->requests);
}

}  // namespace

Round RunOwnerSync(const Options& opts, int round_index, bool traced) {
  Round round;
  round.traced = traced;
  const int64_t horizon = opts.smoke ? 2 * 1440 : 3 * kMonth;
  const int64_t setup_start = NowNs();
  const int64_t setup_cpu = CpuNs();
  Rng seeder(SeedFor(opts.seed, 1));
  StorageDir dir(opts, round_index);
  OwnedTable yellow, green;
  yellow.stream = MakeTrace("YellowCab", horizon, kYellowPerTick, seeder.Next());
  green.stream = MakeTrace("GreenTaxi", horizon, kGreenPerTick, seeder.Next());
  edb::ObliDbConfig cfg;
  cfg.master_seed = seeder.Next();
  cfg.storage.backend = edb::StorageBackendKind::kSegmentLog;
  cfg.storage.num_shards = kShards;
  cfg.storage.dir = dir.path();
  cfg.storage.flush_every_update = true;  // auto-flush each update
  cfg.storage.fsync_data = false;         // no fsync per commit
  edb::ObliDbServer server(cfg);
  OwnerContext ctx;
  Status s = AddOwnedTable(&server, "YellowCab", StrategyKind::kDpTimer,
                           &seeder, &ctx, &yellow);
  if (s.ok()) {
    s = AddOwnedTable(&server, "GreenTaxi", StrategyKind::kDpAnt, &seeder,
                      &ctx, &green);
  }
  if (s.ok()) s = yellow.engine->Setup({});
  if (s.ok()) s = green.engine->Setup({});
  auto session = server.CreateSession();
  std::vector<Prepared> queries = {Dashboard(Shape::kQ1), Dashboard(Shape::kQ2),
                                   JoinQuery()};
  if (s.ok()) s = PrepareAll(session.get(), &queries);
  round.setup_s = Seconds(NowNs() - setup_start);
  round.setup_cpu_s = Seconds(CpuNs() - setup_cpu);
  if (!s.ok()) {
    round.error = "set-up: " + s.ToString();
    return round;
  }
  yellow.after_setup = yellow.engine->counters();
  green.after_setup = green.engine->counters();
  std::vector<Scheduled> schedule = {
      {queries[0], 360}, {queries[1], 360}, {queries[2], 1440}};
  SpanRecorder recorder;
  ctx.recorder = traced ? &recorder : nullptr;
  const auto stats0 = server.stats();
  RunHorizon(session.get(), {&yellow, &green}, &schedule, horizon,
             /*views=*/true, &ctx, &round);
  ctx.recorder = nullptr;
  round.stats = Delta(stats0, server.stats());
  FinishOwner(&server, {&yellow, &green}, &round);
  round.spans = recorder.Take();
  BuildLogical({}, round.ticks, &yellow);
  BuildLogical({}, round.ticks, &green);
  DigestTrips(yellow.logical.rows, &round.input_digest);
  DigestTrips(green.logical.rows, &round.input_digest);
  CheckRound(yellow, &green.logical, &green.backend->log(), &round);
  return round;
}

Round RunOramIndexed(const Options& opts, int /*round_index*/, bool traced) {
  Round round;
  round.traced = traced;
  const int64_t horizon = opts.smoke ? 1440 : 7 * 1440;
  const int64_t setup_start = NowNs();
  const int64_t setup_cpu = CpuNs();
  Rng seeder(SeedFor(opts.seed, 4));
  OwnedTable yellow;
  yellow.stream = MakeTrace("YellowCab", horizon, kYellowPerTick, seeder.Next());
  edb::ObliDbConfig cfg;
  cfg.master_seed = seeder.Next();
  cfg.use_oram_index = true;
  cfg.storage.num_shards = kShards;
  edb::ObliDbServer server(cfg);
  OwnerContext ctx;
  Status s = AddOwnedTable(&server, "YellowCab", StrategyKind::kDpTimer,
                           &seeder, &ctx, &yellow);
  if (s.ok()) s = yellow.engine->Setup({});
  auto session = server.CreateSession();
  std::vector<Prepared> queries = {Dashboard(Shape::kQ1), Dashboard(Shape::kQ2)};
  if (s.ok()) s = PrepareAll(session.get(), &queries);
  round.setup_s = Seconds(NowNs() - setup_start);
  round.setup_cpu_s = Seconds(CpuNs() - setup_cpu);
  if (!s.ok()) {
    round.error = "set-up: " + s.ToString();
    return round;
  }
  yellow.after_setup = yellow.engine->counters();
  std::vector<Scheduled> schedule = {{queries[0], 60}, {queries[1], 60}};
  SpanRecorder recorder;
  ctx.recorder = traced ? &recorder : nullptr;
  const auto stats0 = server.stats();
  const auto oram0 = server.oram_health();
  RunHorizon(session.get(), {&yellow}, &schedule, horizon,
             /*views=*/false, &ctx, &round);
  ctx.recorder = nullptr;
  round.stats = Delta(stats0, server.stats());
  round.oram = server.oram_health();
  round.oram.access_count -= oram0.access_count;
  FinishOwner(&server, {&yellow}, &round);
  round.spans = recorder.Take();
  BuildLogical({}, round.ticks, &yellow);
  DigestTrips(yellow.logical.rows, &round.input_digest);
  CheckRound(yellow, nullptr, nullptr, &round);
  return round;
}

namespace {

/// Shared body of the two interleaved workloads. YellowCab (preload and
/// stream) arrives at the paper's YellowCab volume per one-minute tick.
struct InterleavedSpec {
  int64_t preload_rows = 0;  ///< YellowCab D_0, about this many rows
  int64_t green_rows = 0;    ///< static GreenTaxi over the same minutes (0 = none)
  int64_t requests = 0;      ///< analyst requests per round
  int64_t ticks_per_request = 1;
  Mix mix;
  bool views = false;
  int ranks = 1;             ///< shard servers (1 = single process)
};

Round RunInterleavedRound(
    const Options& opts, bool traced, const InterleavedSpec& spec,
    uint64_t salt,
    const std::function<std::unique_ptr<edb::EdbServer>(uint64_t)>&
        make_server) {
  Round round;
  round.traced = traced;
  const int64_t ticks = spec.requests * spec.ticks_per_request;
  const int64_t setup_start = NowNs();
  const int64_t setup_cpu = CpuNs();
  Rng seeder(SeedFor(opts.seed, salt));
  const int64_t minutes = std::llround(
      static_cast<double>(spec.preload_rows) / kYellowPerTick);
  std::vector<TripRecord> preload =
      MakePreload("YellowCab", minutes, kYellowPerTick, seeder.Next());
  OwnedTable yellow;
  yellow.stream =
      MakeTrace("YellowCab", ticks, kYellowPerTick, seeder.Next(), minutes);
  std::vector<TripRecord> green_trips;
  if (spec.green_rows > 0) {
    green_trips = MakePreload(
        "GreenTaxi", minutes,
        static_cast<double>(spec.green_rows) / static_cast<double>(minutes),
        seeder.Next());
  }
  std::unique_ptr<edb::EdbServer> server = make_server(seeder.Next());
  OwnerContext ctx;
  Status s = AddOwnedTable(server.get(), "YellowCab", StrategyKind::kDpAnt,
                           &seeder, &ctx, &yellow, spec.ranks);
  if (s.ok()) s = yellow.engine->Setup(ToRecords(preload));
  std::unique_ptr<TimingBackend> green;
  if (s.ok() && spec.green_rows > 0) {
    auto table = server->CreateTable("GreenTaxi", dpsync::workload::TripSchema());
    s = table.status();
    if (s.ok()) {
      green = std::make_unique<TimingBackend>(table.value(), &ctx);
      s = green->Setup(ToRecords(green_trips));
    }
  }
  auto session = server->CreateSession();
  std::vector<Prepared> dashboard = {Dashboard(Shape::kQ1),
                                     Dashboard(Shape::kQ2),
                                     Dashboard(Shape::kFilteredSum, 100, 200)};
  std::vector<Prepared> join = {JoinQuery()};
  if (s.ok()) s = PrepareAll(session.get(), &dashboard);
  if (s.ok() && green) s = PrepareAll(session.get(), &join);
  round.setup_s = Seconds(NowNs() - setup_start);
  round.setup_cpu_s = Seconds(CpuNs() - setup_cpu);
  if (!s.ok()) {
    round.error = "set-up: " + s.ToString();
    return round;
  }
  yellow.after_setup = yellow.engine->counters();
  auto* coordinator = dynamic_cast<dist::DistributedEdbServer*>(server.get());
  const auto stats0 = server->stats();
  if (coordinator) {
    round.rpc_calls = -coordinator->rpc_calls();
    round.bytes_shipped = -coordinator->bytes_shipped();
    round.bytes_replicated = -coordinator->bytes_replicated();
    round.replica_lag_batches = -coordinator->replica_lag_batches();
  }
  SpanRecorder recorder;
  ctx.recorder = traced ? &recorder : nullptr;
  RunInterleaved(server.get(), &yellow, spec.ticks_per_request,
                 spec.requests, /*sessions=*/2, spec.mix,
                 SeedFor(opts.seed, salt + 100), dashboard,
                 green ? &join[0] : nullptr, spec.views, &ctx, &round);
  ctx.recorder = nullptr;
  round.stats = Delta(stats0, server->stats());
  if (coordinator) {
    round.rpc_calls += coordinator->rpc_calls();
    round.bytes_shipped += coordinator->bytes_shipped();
    round.bytes_replicated += coordinator->bytes_replicated();
    round.replica_lag_batches += coordinator->replica_lag_batches();
  }
  FinishOwner(server.get(), {&yellow}, &round);
  if (green) round.user_bytes += green->log().user_bytes;
  round.spans = recorder.Take();
  BuildLogical(preload, round.ticks, &yellow);
  LogicalTable green_logical;
  for (const auto& t : green_trips) green_logical.AddPreload(t);
  DigestTrips(yellow.logical.rows, &round.input_digest);
  DigestTrips(green_logical.rows, &round.input_digest);
  CheckRound(yellow, green ? &green_logical : nullptr,
             green ? &green->log() : nullptr, &round);
  return round;
}

}  // namespace

Round RunAnalystMix(const Options& opts, int /*round_index*/, bool traced) {
  InterleavedSpec spec;
  // ~2^15 YellowCab rows and 2^12 GreenTaxi rows; smoke: 2^13 / 2^11.
  spec.preload_rows = opts.smoke ? 1 << 13 : 1 << 15;
  spec.green_rows = opts.smoke ? 1 << 11 : 1 << 12;
  spec.requests = opts.smoke ? 900 : 4500;
  spec.mix = kAnalystMix;
  spec.ticks_per_request = 3;
  spec.views = true;
  return RunInterleavedRound(
      opts, traced, spec, 2,
      [](uint64_t seed) -> std::unique_ptr<edb::EdbServer> {
        edb::ObliDbConfig cfg;
        cfg.master_seed = seed;
        cfg.storage.num_shards = kShards;
        return std::make_unique<edb::ObliDbServer>(cfg);
      });
}

Round RunDistScan(const Options& opts, int /*round_index*/, bool traced) {
  InterleavedSpec spec;
  spec.preload_rows = opts.smoke ? 1 << 12 : 1 << 14;
  spec.requests = opts.smoke ? 200 : 1000;
  spec.mix = kDistMix;
  spec.ranks = 2;
  spec.ticks_per_request = 8;
  return RunInterleavedRound(
      opts, traced, spec, 3,
      [&spec](uint64_t seed) -> std::unique_ptr<edb::EdbServer> {
        dist::DistributedConfig cfg;
        cfg.engine = dist::DistEngineKind::kObliDb;
        cfg.num_servers = spec.ranks;
        cfg.replication_factor = 1;
        cfg.oblidb.master_seed = seed;
        cfg.oblidb.storage.num_shards = kShards;
        return std::make_unique<dist::DistributedEdbServer>(cfg);
      });
}

}  // namespace perfbench
