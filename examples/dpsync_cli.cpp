/// \file dpsync_cli.cpp
/// Command-line experiment driver: run any strategy/engine combination at
/// any scale and emit the metric series as CSV — the tool a downstream
/// user reaches for before wiring the library into their own system.
///
///   $ ./build/examples/dpsync_cli --strategy=timer --engine=oblidb
///         --eps=0.5 --T=30 --horizon=10080 --records=4300 --csv=out.csv
///   (one command line)
///
/// Flags (all optional; a numeric flag must parse completely, and
/// out-of-range DP-Timer/DP-ANT parameters fail the run):
///   --strategy=sur|oto|set|timer|ant   (default timer)
///   --engine=oblidb|crypte             (default oblidb)
///   --eps=<double>       privacy budget             (default 0.5)
///   --T=<int>            DP-Timer period            (default 30)
///   --theta=<double>     DP-ANT threshold           (default 15)
///   --flush-f=<int>      flush interval             (default 2000)
///   --flush-s=<int>      flush size                 (default 15)
///   --horizon=<int>      time units, 0..1000000     (default 43200)
///   --records=<int>      target yellow records, >= 0 (default 18429,
///                        scaled to the horizon)
///   --interval=<int>     query firing interval, >= 1 (default 360;
///                        Q3 fires every 4 intervals)
///   --seed=<int>         experiment seed            (default 99)
///   --backend=memory|segment  physical table storage (default memory)
///   --shards=<int>       shards per table, >= 1     (default 1)
///   --storage-dir=<path> segment-log root; each run writes a fresh
///                        subdirectory (default: temp, cleaned up)
///   --no-join            skip the second table and Q3
///   --timing             \timing-style per-query stats after the run
///                        (mean QET, executions, plan-cache hit rate)
///   --csv=<path>         also write series to a CSV file
/// A query that never fired within the horizon prints "-" for its L1 and
/// QET cells, and a run too short for a logical-gap sample (the gap is
/// sampled every 720 time units) prints "-" for the mean logical gap.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
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

/// Reads all of `v` as a T: false when `v` is empty, has trailing
/// characters or is out of T's range.
template <typename T>
bool ParseNumber(const std::string& v, T* out) {
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// The longest --horizon accepted, in minutes (about 1.9 years): 23 times
/// the paper's month (43,200) and 7.7 times perfbench's 90 days (129,600).
/// Scaling the default record counts to it stays far inside int64_t.
constexpr int64_t kMaxHorizon = 1'000'000;

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
  bool records_given = false;

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
      if (!ParseNumber(v, &cfg.params.epsilon)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "T", &v)) {
      if (!ParseNumber(v, &cfg.params.timer_period)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "theta", &v)) {
      if (!ParseNumber(v, &cfg.params.ant_threshold)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "flush-f", &v)) {
      if (!ParseNumber(v, &cfg.params.flush_interval)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "flush-s", &v)) {
      if (!ParseNumber(v, &cfg.params.flush_size)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "horizon", &v)) {
      int64_t h = 0;
      if (!ParseNumber(v, &h) || h < 0 || h > kMaxHorizon) {
        return Usage(argv[0]);
      }
      cfg.yellow.horizon_minutes = h;
      cfg.green.horizon_minutes = h;
    } else if (ParseFlag(argv[i], "records", &v)) {
      if (!ParseNumber(v, &cfg.yellow.target_records) ||
          cfg.yellow.target_records < 0) {
        return Usage(argv[0]);
      }
      records_given = true;
    } else if (ParseFlag(argv[i], "interval", &v)) {
      int64_t interval = 0;
      // Q3 fires every 4 intervals, so 4x the interval must fit too.
      if (!ParseNumber(v, &interval) || interval < 1 ||
          interval > std::numeric_limits<int64_t>::max() / 4) {
        return Usage(argv[0]);
      }
      for (auto& q : cfg.queries) {
        q.interval = q.name == "Q3" ? interval * 4 : interval;
      }
    } else if (ParseFlag(argv[i], "seed", &v)) {
      if (!ParseNumber(v, &cfg.seed)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "backend", &v)) {
      if (v == "memory") cfg.backend = edb::StorageBackendKind::kInMemory;
      else if (v == "segment") cfg.backend = edb::StorageBackendKind::kSegmentLog;
      else return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "shards", &v)) {
      if (!ParseNumber(v, &cfg.num_shards) || cfg.num_shards < 1) {
        return Usage(argv[0]);
      }
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

  // The default record counts are the paper's month; scale them to the
  // horizon. An explicit --records stays as given, on either side of
  // --horizon.
  const sim::ExperimentConfig month;
  const int64_t h = cfg.yellow.horizon_minutes;
  cfg.green.target_records = h * month.green.target_records /
                             month.green.horizon_minutes;
  if (!records_given) {
    cfg.yellow.target_records = h * month.yellow.target_records /
                                month.yellow.horizon_minutes;
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

  // A query that never fired has no error or QET to report; zeros would
  // read as a perfect answer.
  auto cell = [](const sim::QueryOutcome& q, double value, int precision) {
    return q.qet.t.empty() ? std::string("-")
                           : TablePrinter::Fmt(value, precision);
  };
  TablePrinter table({"query", "mean L1", "max L1", "mean QET (s)"});
  for (const auto& q : result->queries) {
    table.AddRow({q.name, cell(q, q.mean_l1, 2), cell(q, q.max_l1, 2),
                  cell(q, q.mean_qet, 3)});
  }
  table.Print(std::cout);
  std::cout << "mean logical gap : "
            << (result->logical_gap.t.empty()
                    ? std::string("-")
                    : TablePrinter::Fmt(result->mean_logical_gap))
            << "\n"
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
                 cell(q, q.mean_qet, 4),
                 cell(q, q.qet_measured.Summarize().mean() * 1e3, 3)});
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
