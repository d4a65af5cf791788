/// \file dpsync_cli.cpp
/// Command-line experiment driver: run any strategy/engine combination at
/// any scale and emit the metric series as CSV — the tool a downstream
/// user reaches for before wiring the library into their own system.
///
///   $ ./build/examples/dpsync_cli --strategy=timer --engine=oblidb \
///         --eps=0.5 --T=30 --horizon=10080 --records=4300 --csv=out.csv
///
/// Flags (all optional):
///   --strategy=sur|oto|set|timer|ant   (default timer)
///   --engine=oblidb|crypte             (default oblidb)
///   --eps=<double>       privacy budget             (default 0.5)
///   --T=<int>            DP-Timer period            (default 30)
///   --theta=<double>     DP-ANT threshold           (default 15)
///   --flush-f=<int>      flush interval             (default 2000)
///   --flush-s=<int>      flush size                 (default 15)
///   --horizon=<int>      time units                 (default 43200)
///   --records=<int>      target yellow records      (default 18429)
///   --interval=<int>     query firing interval      (default 360)
///   --seed=<int>         experiment seed            (default 99)
///   --backend=memory|segment  physical table storage (default memory)
///   --shards=<int>       shards per table           (default 1)
///   --storage-dir=<path> segment-log root; each run writes a fresh
///                        subdirectory (default: temp, cleaned up)
///   --no-join            skip the second table and Q3
///   --timing             \timing-style per-query stats after the run
///                        (mean QET, executions, plan-cache hit rate)
///   --csv=<path>         also write series to a CSV file
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/table_printer.h"
#include "sim/experiment.h"

using namespace dpsync;

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--strategy=sur|oto|set|timer|ant] [--engine=oblidb|crypte]\n"
               "       [--eps=E] [--T=N] [--theta=N] [--flush-f=N] "
               "[--flush-s=N]\n"
               "       [--horizon=N] [--records=N] [--interval=N] [--seed=N]\n"
               "       [--backend=memory|segment] [--shards=N] "
               "[--storage-dir=path]\n"
               "       [--no-join] [--timing]\n"
               "       [--csv=path]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentConfig cfg;
  std::string csv_path;
  bool timing = false;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "strategy", &v)) {
      if (v == "sur") cfg.strategy = StrategyKind::kSur;
      else if (v == "oto") cfg.strategy = StrategyKind::kOto;
      else if (v == "set") cfg.strategy = StrategyKind::kSet;
      else if (v == "timer") cfg.strategy = StrategyKind::kDpTimer;
      else if (v == "ant") cfg.strategy = StrategyKind::kDpAnt;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "engine", &v)) {
      if (v == "oblidb") cfg.engine = sim::EngineKind::kObliDb;
      else if (v == "crypte") cfg.engine = sim::EngineKind::kCryptEps;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "eps", &v)) {
      cfg.params.epsilon = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "T", &v)) {
      cfg.params.timer_period = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "theta", &v)) {
      cfg.params.ant_threshold = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "flush-f", &v)) {
      cfg.params.flush_interval = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "flush-s", &v)) {
      cfg.params.flush_size = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "horizon", &v)) {
      int64_t h = std::strtoll(v.c_str(), nullptr, 10);
      cfg.yellow.horizon_minutes = h;
      cfg.green.horizon_minutes = h;
      cfg.green.target_records = h * 21300 / 43200;
      if (cfg.yellow.target_records == 18429) {
        cfg.yellow.target_records = h * 18429 / 43200;
      }
    } else if (ParseFlag(argv[i], "records", &v)) {
      cfg.yellow.target_records = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "interval", &v)) {
      int64_t interval = std::strtoll(v.c_str(), nullptr, 10);
      for (auto& q : cfg.queries) {
        q.interval = q.name == "Q3" ? interval * 4 : interval;
      }
    } else if (ParseFlag(argv[i], "seed", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "backend", &v)) {
      if (v == "memory") cfg.backend = edb::StorageBackendKind::kInMemory;
      else if (v == "segment") cfg.backend = edb::StorageBackendKind::kSegmentLog;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "shards", &v)) {
      cfg.num_shards = static_cast<int>(std::strtol(v.c_str(), nullptr, 10));
      if (cfg.num_shards < 1) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "storage-dir", &v)) {
      cfg.storage_dir = v;
    } else if (std::strcmp(argv[i], "--no-join") == 0) {
      cfg.enable_green = false;
      cfg.queries = sim::DefaultQueries(false);
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      timing = true;
    } else if (ParseFlag(argv[i], "csv", &v)) {
      csv_path = v;
    } else {
      return Usage(argv[0]);
    }
  }

  std::cerr << "running " << StrategyKindName(cfg.strategy) << " on "
            << sim::EngineKindName(cfg.engine) << ", eps="
            << cfg.params.epsilon << ", horizon="
            << cfg.yellow.horizon_minutes << ", storage="
            << edb::StorageBackendKindName(cfg.backend) << " x"
            << cfg.num_shards << " shard(s)...\n";
  auto result = sim::RunExperiment(cfg);
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"query", "mean L1", "max L1", "mean QET (s)"});
  for (const auto& q : result->queries) {
    table.AddRow({q.name, TablePrinter::Fmt(q.mean_l1),
                  TablePrinter::Fmt(q.max_l1),
                  TablePrinter::Fmt(q.mean_qet, 3)});
  }
  table.Print(std::cout);
  std::cout << "mean logical gap : "
            << TablePrinter::Fmt(result->mean_logical_gap) << "\n"
            << "total data (Mb)  : "
            << TablePrinter::Fmt(result->final_total_mb) << "\n"
            << "dummy data (Mb)  : "
            << TablePrinter::Fmt(result->final_dummy_mb) << "\n"
            << "updates posted   : " << result->updates_posted << "\n";

  if (timing) {
    // \timing: what each query actually cost and how the v2 pipeline
    // amortized its front half. Every query is prepared exactly once
    // (misses == distinct queries, zero re-plans across sync epochs).
    const auto& ss = result->server_stats;
    std::cout << "\n\\timing\n";
    TablePrinter qt({"query", "executions", "mean QET (s)",
                     "mean wall (ms)"});
    for (const auto& q : result->queries) {
      qt.AddRow({q.name, std::to_string(q.qet.t.size()),
                 TablePrinter::Fmt(q.mean_qet, 4),
                 TablePrinter::Fmt(q.qet_measured.Summarize().mean() * 1e3,
                                   3)});
    }
    qt.Print(std::cout);
    int64_t lookups = ss.plan_cache_hits + ss.plan_cache_misses;
    std::cout << "plan cache       : " << ss.plan_cache_hits << " hits / "
              << ss.plan_cache_misses << " misses"
              << (lookups > 0
                      ? " (" +
                            TablePrinter::Fmt(100.0 * ss.plan_cache_hits /
                                                  lookups,
                                              1) +
                            "% hit rate)"
                      : "")
              << "\n"
              << "prepares         : " << ss.prepares
              << " (rebinds after schema change: " << ss.plan_rebinds
              << ")\n"
              << "executed         : " << ss.queries_executed
              << " (peak in-flight " << ss.peak_in_flight << ")\n"
              << "snapshot scans   : " << ss.snapshot_scans
              << " (lock-free over the committed prefix)\n"
              << "snapshot joins   : " << ss.snapshot_joins
              << " (lock-free over two pinned prefixes)\n"
              << "view answers     : " << ss.view_hits << " hits / "
              << ss.view_folds
              << " folds (O(1) from materialized aggregates)\n";
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    out << "series,t,value\n";
    for (const auto& q : result->queries) {
      for (size_t i = 0; i < q.l1_error.t.size(); ++i) {
        out << q.name << "_l1," << q.l1_error.t[i] << ","
            << q.l1_error.value[i] << "\n";
      }
      for (size_t i = 0; i < q.qet.t.size(); ++i) {
        out << q.name << "_qet," << q.qet.t[i] << "," << q.qet.value[i]
            << "\n";
      }
    }
    for (size_t i = 0; i < result->logical_gap.t.size(); ++i) {
      out << "gap," << result->logical_gap.t[i] << ","
          << result->logical_gap.value[i] << "\n";
    }
    for (size_t i = 0; i < result->total_mb.t.size(); ++i) {
      out << "total_mb," << result->total_mb.t[i] << ","
          << result->total_mb.value[i] << "\n";
    }
    std::cerr << "series written to " << csv_path << "\n";
  }
  return 0;
}
