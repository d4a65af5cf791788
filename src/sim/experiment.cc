#include "sim/experiment.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "crypto/record_cipher.h"
#include "dp/laplace.h"
#include "edb/crypte_engine.h"
#include "edb/oblidb_engine.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workload/trip_record.h"

namespace dpsync::sim {

std::string EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kObliDb:
      return "ObliDB";
    case EngineKind::kCryptEps:
      return "CryptEpsilon";
  }
  return "?";
}

std::vector<QuerySpec> DefaultQueries(bool include_join) {
  std::vector<QuerySpec> q = {
      {"Q1",
       "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100",
       360},
      {"Q2",
       "SELECT pickupID, COUNT(*) AS PickupCnt FROM YellowCab GROUP BY "
       "pickupID",
       360},
  };
  if (include_join) {
    q.push_back({"Q3",
                 "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
                 "YellowCab.pickTime = GreenTaxi.pickTime",
                 1440});
  }
  return q;
}

ExperimentConfig::ExperimentConfig() {
  yellow.provider = "YellowCab";
  yellow.target_records = 18429;
  yellow.seed = 7;
  green.provider = "GreenTaxi";
  green.target_records = 21300;
  green.seed = 13;
}

std::unique_ptr<edb::EdbServer> MakeServer(EngineKind kind, uint64_t seed,
                                           const edb::StorageConfig& storage,
                                           bool use_oram_index,
                                           size_t oram_capacity) {
  if (kind == EngineKind::kObliDb) {
    edb::ObliDbConfig cfg;
    cfg.master_seed = seed;
    cfg.storage = storage;
    cfg.use_oram_index = use_oram_index;
    cfg.oram_capacity = oram_capacity;
    return std::make_unique<edb::ObliDbServer>(cfg);
  }
  edb::CryptEpsConfig cfg;
  cfg.master_seed = seed;
  cfg.storage = storage;
  return std::make_unique<edb::CryptEpsServer>(cfg);
}

namespace {

/// The preconditions DP-Timer's and DP-ANT's constructors assert, checked
/// on the experiment's input, since release builds compile the asserts
/// out. SUR, OTO and SET never read the parameters.
Status ValidateStrategyParams(StrategyKind kind, const StrategyParams& p) {
  if (kind != StrategyKind::kDpTimer && kind != StrategyKind::kDpAnt) {
    return Status::Ok();
  }
  DPSYNC_RETURN_IF_ERROR(dp::ValidateEpsilon(p.epsilon));
  if (kind == StrategyKind::kDpTimer && p.timer_period <= 0) {
    return Status::InvalidArgument("DP-Timer period T must be positive");
  }
  if (kind == StrategyKind::kDpAnt && !(p.ant_threshold > 0)) {
    return Status::InvalidArgument("DP-ANT threshold theta must be positive");
  }
  if (kind == StrategyKind::kDpAnt &&
      !(p.ant_budget_split > 0 && p.ant_budget_split < 1)) {
    return Status::InvalidArgument("DP-ANT budget split must lie in (0, 1)");
  }
  return Status::Ok();
}

/// Owner-side state for one outsourced table.
struct TablePipeline {
  workload::TaxiTrace trace;
  std::unique_ptr<DpSyncEngine> engine;
  query::Table logical;  ///< ground-truth logical database D_t
};

Status SetupPipeline(TablePipeline* p, const workload::TaxiConfig& tc,
                     const ExperimentConfig& cfg, edb::EdbServer* server,
                     Rng* seeder) {
  p->trace = workload::GenerateTaxiTrace(tc);
  auto table = server->CreateTable(tc.provider, workload::TripSchema());
  if (!table.ok()) return table.status();

  auto strategy =
      MakeStrategy(cfg.strategy, cfg.params, seeder);
  p->engine = std::make_unique<DpSyncEngine>(
      std::move(strategy), table.value(),
      workload::MakeTripDummyFactory(seeder->Next()), seeder->Next());

  p->logical.name = tc.provider;
  p->logical.schema = workload::TripSchema();

  // Optional initial database: take the first `initial_db_size` arrivals
  // off the front of the trace (they become D_0 at t=0).
  std::vector<Record> initial;
  if (cfg.initial_db_size > 0) {
    int64_t taken = 0;
    for (auto& slot : p->trace.arrivals) {
      if (taken >= cfg.initial_db_size) break;
      if (!slot) continue;
      initial.push_back(slot->ToRecord());
      p->logical.rows.push_back(slot->ToRow());
      slot.reset();
      ++taken;
    }
  }
  return p->engine->Setup(std::move(initial));
}

}  // namespace

namespace {

/// Scoped storage directory for segment-log runs. Every run gets a unique
/// fresh subdirectory — segment-log shards refuse to silently append to a
/// previous incarnation's files, so reusing a directory across runs would
/// abort the second run. Under an explicitly configured root the per-run
/// subdirectories are kept for inspection; under the synthesized temp
/// default they are removed when the run finishes.
class ScopedStorageDir {
 public:
  explicit ScopedStorageDir(const ExperimentConfig& config) {
    if (config.backend != edb::StorageBackendKind::kSegmentLog) return;
    static std::atomic<uint64_t> counter{0};
    std::string run = "dpsync-run-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter.fetch_add(1));
    if (!config.storage_dir.empty()) {
      dir_ = (std::filesystem::path(config.storage_dir) / run).string();
      return;
    }
    std::error_code ec;
    auto base = std::filesystem::temp_directory_path(ec);
    if (ec) base = ".";
    dir_ = (base / run).string();
    owned_ = true;
  }
  ~ScopedStorageDir() {
    if (!owned_) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best-effort cleanup
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool owned_ = false;
};

}  // namespace

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  DPSYNC_RETURN_IF_ERROR(
      ValidateStrategyParams(config.strategy, config.params));
  Rng seeder(config.seed);
  ScopedStorageDir storage_dir(config);
  edb::StorageConfig storage;
  storage.backend = config.backend;
  storage.num_shards = config.num_shards;
  storage.dir = storage_dir.dir();
  auto server = MakeServer(config.engine, seeder.Next(), storage,
                           config.use_oram_index, config.oram_capacity);

  TablePipeline yellow;
  DPSYNC_RETURN_IF_ERROR(
      SetupPipeline(&yellow, config.yellow, config, server.get(), &seeder));
  TablePipeline green;
  if (config.enable_green) {
    DPSYNC_RETURN_IF_ERROR(
        SetupPipeline(&green, config.green, config, server.get(), &seeder));
  }

  // Parse all queries up-front and run the whole front half of the
  // pipeline (normalize, rewrite, bind, plan) exactly once per query:
  // each firing then executes the cached plan.
  auto session = server->CreateSession();
  struct ParsedQuery {
    QuerySpec spec;
    query::SelectQuery ast;
    edb::PreparedQuery prepared;
  };
  std::vector<ParsedQuery> queries;
  for (const auto& spec : config.queries) {
    auto parsed = query::ParseSelect(spec.sql);
    if (!parsed.ok()) return parsed.status();
    if (parsed->join && !config.enable_green) continue;
    // Crypt-eps does not support joins (paper §8, footnote 2): the paper's
    // Crypt-eps experiments only run Q1/Q2.
    if (parsed->join && config.engine == EngineKind::kCryptEps) continue;
    auto prepared = session->Prepare(parsed.value());
    if (!prepared.ok()) return prepared.status();
    queries.push_back(
        {spec, std::move(parsed.value()), std::move(prepared.value())});
  }

  ExperimentResult result;
  result.strategy_name = StrategyKindName(config.strategy);
  result.engine_name = server->name();
  result.epsilon = yellow.engine->strategy().epsilon();
  result.queries.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    result.queries[i].name = queries[i].spec.name;
  }

  // Ground-truth catalog over the logical databases.
  query::Catalog truth_catalog;
  truth_catalog.AddTable(&yellow.logical);
  if (config.enable_green) truth_catalog.AddTable(&green.logical);
  query::Executor truth_executor(&truth_catalog);

  const int64_t horizon = config.yellow.horizon_minutes;
  const double mb_per_record =
      static_cast<double>(crypto::RecordCipher::kCiphertextSize) / 1e6;

  for (int64_t t = 1; t <= horizon; ++t) {
    // Feed arrivals (trace slot t-1 arrives at tick t).
    auto feed = [&](TablePipeline* p) -> Status {
      const auto& slot = p->trace.arrivals[static_cast<size_t>(t - 1)];
      if (slot) {
        p->logical.rows.push_back(slot->ToRow());
        return p->engine->Tick(slot->ToRecord());
      }
      return p->engine->Tick(std::nullopt);
    };
    DPSYNC_RETURN_IF_ERROR(feed(&yellow));
    if (config.enable_green) DPSYNC_RETURN_IF_ERROR(feed(&green));

    // Fire scheduled queries.
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto& pq = queries[i];
      if (pq.spec.interval <= 0 || t % pq.spec.interval != 0) continue;
      auto truth = truth_executor.Execute(pq.ast);
      if (!truth.ok()) return truth.status();
      auto response = session->Execute(pq.prepared);
      if (!response.ok()) return response.status();
      double l1 = truth->L1DistanceTo(response->result);
      auto& out = result.queries[i];
      out.l1_error.Add(static_cast<double>(t), l1);
      out.qet.Add(static_cast<double>(t), response->stats.virtual_seconds);
      out.qet_measured.Add(static_cast<double>(t),
                           response->stats.measured_seconds);
    }

    // Sample size metrics.
    if (config.size_sample_interval > 0 &&
        t % config.size_sample_interval == 0) {
      int64_t gap = yellow.engine->logical_gap();
      int64_t dummy = yellow.engine->counters().dummy_synced;
      if (config.enable_green) {
        gap += green.engine->logical_gap();
        dummy += green.engine->counters().dummy_synced;
      }
      result.logical_gap.Add(static_cast<double>(t),
                             static_cast<double>(gap));
      result.total_mb.Add(
          static_cast<double>(t),
          static_cast<double>(server->total_outsourced_records()) *
              mb_per_record);
      result.dummy_mb.Add(static_cast<double>(t),
                          static_cast<double>(dummy) * mb_per_record);
    }
  }

  // Summaries.
  for (auto& q : result.queries) {
    auto s = q.l1_error.Summarize();
    q.mean_l1 = s.mean();
    q.max_l1 = s.max();
    q.mean_qet = q.qet.Summarize().mean();
  }
  result.mean_logical_gap = result.logical_gap.Summarize().mean();
  result.final_total_mb =
      static_cast<double>(server->total_outsourced_records()) * mb_per_record;
  result.real_synced = yellow.engine->counters().real_synced;
  result.dummy_synced = yellow.engine->counters().dummy_synced;
  result.updates_posted = yellow.engine->counters().updates_posted;
  if (config.enable_green) {
    result.real_synced += green.engine->counters().real_synced;
    result.dummy_synced += green.engine->counters().dummy_synced;
    result.updates_posted += green.engine->counters().updates_posted;
  }
  result.final_dummy_mb = static_cast<double>(result.dummy_synced) *
                          mb_per_record;
  result.oram = server->oram_health();
  result.server_stats = server->stats();
  result.yellow_pattern = yellow.engine->update_pattern();
  return result;
}

}  // namespace dpsync::sim
