/// \file experiment.h
/// End-to-end experiment harness reproducing §8's methodology: generate
/// the (synthetic) taxi traces, outsource them through DP-Sync with a
/// chosen strategy and encrypted database, fire the test queries on a
/// fixed schedule, and collect the paper's accuracy and performance
/// metrics (L1 error, QET, logical gap, outsourced/dummy data size).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/strategy_factory.h"
#include "edb/encrypted_database.h"
#include "edb/shard_log.h"
#include "workload/taxi_generator.h"

namespace dpsync::sim {

/// Which encrypted database implementation backs the experiment.
enum class EngineKind { kObliDb, kCryptEps };

std::string EngineKindName(EngineKind kind);

/// One test query with its firing schedule.
struct QuerySpec {
  std::string name;       ///< "Q1", "Q2", ...
  std::string sql;
  int64_t interval = 360;  ///< fire every `interval` time units
};

/// The paper's three test queries (§8) with the default 6-hour schedule.
/// Q3 (join) fires daily to keep the O(N^2) virtual-cost points sparse.
std::vector<QuerySpec> DefaultQueries(bool include_join);

/// Full experiment configuration with the paper's defaults (§8).
struct ExperimentConfig {
  EngineKind engine = EngineKind::kObliDb;
  StrategyKind strategy = StrategyKind::kDpTimer;
  StrategyParams params;  ///< eps=0.5, T=30, theta=15, f=2000, s=15
  workload::TaxiConfig yellow;  ///< defaults: 18,429 records / 43,200 min
  workload::TaxiConfig green;   ///< set provider/target below
  bool enable_green = true;     ///< outsource the second table (Q3)
  std::vector<QuerySpec> queries = DefaultQueries(true);
  int64_t size_sample_interval = 720;  ///< sampling of data-size series
  int64_t initial_db_size = 0;         ///< |D_0| records taken off the trace
  uint64_t seed = 99;
  /// Physical storage behind the EDB server. Experiment metrics are
  /// invariant in both knobs (see docs/STORAGE.md): sharding and
  /// durability change where ciphertexts live, not what any query or
  /// accounting observes.
  edb::StorageBackendKind backend = edb::StorageBackendKind::kInMemory;
  int num_shards = 1;
  /// ObliDB storage method: linear scans (false, the default) or the
  /// indexed mode, where every scan touches each record through a
  /// per-shard Path ORAM (see docs/ORAM.md). Like the storage knobs
  /// above, the reported metrics are invariant in it — indexed mode adds
  /// ORAM accounting (ExperimentResult::oram) without changing what any
  /// query observes. Ignored by Crypt-eps (no oblivious index).
  bool use_oram_index = false;
  /// Total ORAM blocks per table in indexed mode (split across shards).
  size_t oram_capacity = 1 << 16;
  /// Segment-log root. Each run writes a unique fresh subdirectory
  /// beneath it (segment files refuse silent reuse across runs). Empty =
  /// a temp root whose per-run subdirectory is removed when the run
  /// finishes; explicit roots keep theirs for inspection.
  std::string storage_dir;

  ExperimentConfig();
};

/// Per-query collected series and summary.
struct QueryOutcome {
  std::string name;
  Series l1_error;        ///< (t, L1 error)
  Series qet;             ///< (t, virtual QET seconds)
  Series qet_measured;    ///< (t, real wall seconds, for reference)
  double mean_l1 = 0, max_l1 = 0, mean_qet = 0;
};

/// Everything one experiment produces.
struct ExperimentResult {
  std::string strategy_name;
  std::string engine_name;
  double epsilon = 0;
  std::vector<QueryOutcome> queries;
  Series logical_gap;      ///< (t, gap) sampled on the size schedule
  Series total_mb;         ///< (t, outsourced Mb across tables)
  Series dummy_mb;         ///< (t, dummy Mb across tables)
  double mean_logical_gap = 0;
  double final_total_mb = 0;
  double final_dummy_mb = 0;
  int64_t real_synced = 0;
  int64_t dummy_synced = 0;
  int64_t updates_posted = 0;
  /// ORAM stash / access diagnostics across the server's tables (enabled
  /// only for ObliDB indexed-mode runs); exported into the bench JSON
  /// reports so CI tracks ORAM health over PRs.
  edb::OramHealth oram;
  /// v2 query-pipeline counters (plan cache, admission) of the EDB server
  /// at the end of the run; exported into the bench JSON reports.
  edb::ServerStats server_stats;
  /// Owner-observable transcript for the yellow table (adversary input).
  UpdatePattern yellow_pattern;
};

/// Runs one experiment. Deterministic in config.seed. InvalidArgument when
/// a DP strategy's parameters are out of range: epsilon not finite and
/// positive, T <= 0 for DP-Timer, theta <= 0 or a budget split outside
/// (0, 1) for DP-ANT.
StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config);

/// Builds the EdbServer for a kind with the given physical storage and
/// (for ObliDB) the indexed-mode toggle.
std::unique_ptr<edb::EdbServer> MakeServer(EngineKind kind, uint64_t seed,
                                           const edb::StorageConfig& storage,
                                           bool use_oram_index = false,
                                           size_t oram_capacity = 1 << 16);

}  // namespace dpsync::sim
