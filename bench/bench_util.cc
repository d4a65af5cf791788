#include "bench_util.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/thread_pool.h"
#include "edb/storage_backend.h"

namespace dpsync::bench {

namespace {

/// Accumulates one pre-rendered JSON object per MustRun call; flushed to
/// BENCH_<name>.json at exit (or via WriteJsonReport).
struct ReportState {
  std::string name;
  std::vector<std::string> entries;
  bool armed = false;
  bool written = false;
};

ReportState& Report() {
  static ReportState state;
  return state;
}

std::string Slug(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? "bench" : out;
}

/// The binary's own name where the platform offers it; else a title slug.
/// (argv[0] via /proc/self/cmdline, NOT /proc/self/comm — the kernel
/// truncates comm to 15 chars, which would misname fig5_privacy_sweep &co.)
std::string BinaryName(const std::string& fallback_title) {
#ifdef __linux__
  std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
  std::string argv0;
  if (cmdline && std::getline(cmdline, argv0, '\0') && !argv0.empty()) {
    size_t slash = argv0.find_last_of('/');
    return Slug(slash == std::string::npos ? argv0 : argv0.substr(slash + 1));
  }
#endif
  return Slug(fallback_title);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan literals
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void RenderQueries(std::ostringstream& os,
                   const std::vector<sim::QueryOutcome>& queries) {
  os << "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    if (i) os << ",";
    os << "{\"name\":\"" << q.name << "\",\"mean_l1\":" << Num(q.mean_l1)
       << ",\"max_l1\":" << Num(q.max_l1)
       << ",\"mean_qet\":" << Num(q.mean_qet) << ",\"mean_qet_measured\":"
       << Num(q.qet_measured.Summarize().mean()) << "}";
  }
  os << "]";
}

void WriteReportAtExit() { WriteJsonReport(); }

/// Renders one experiment as a report entry (shared by MustRun and
/// MustRunAll so sequential and fanned-out sweeps emit identical JSON).
std::string RenderEntry(const sim::ExperimentConfig& config,
                        const sim::ExperimentResult& result, double wall) {
  std::ostringstream os;
  os << "{\"engine\":\"" << result.engine_name << "\",\"strategy\":\""
     << result.strategy_name << "\",\"epsilon\":" << Num(result.epsilon)
     << ",\"backend\":\"" << edb::StorageBackendKindName(config.backend)
     << "\",\"num_shards\":" << config.num_shards
     << ",\"use_oram_index\":" << (config.use_oram_index ? "true" : "false")
     << ",\"horizon_minutes\":" << config.yellow.horizon_minutes
     << ",\"wall_seconds\":" << Num(wall) << ",\"queries\":";
  RenderQueries(os, result.queries);
  os << ",\"mean_logical_gap\":" << Num(result.mean_logical_gap)
     << ",\"final_total_mb\":" << Num(result.final_total_mb)
     << ",\"final_dummy_mb\":" << Num(result.final_dummy_mb)
     << ",\"real_synced\":" << result.real_synced
     << ",\"dummy_synced\":" << result.dummy_synced
     << ",\"updates_posted\":" << result.updates_posted;
  if (result.oram.enabled) {
    // ORAM health rides along so CI artifact diffs catch stash growth or
    // shard imbalance regressions, not just timing drift.
    os << ",\"oram\":{\"max_stash\":" << result.oram.max_stash_size
       << ",\"access_count\":" << result.oram.access_count
       << ",\"shard_accesses\":[";
    for (size_t s = 0; s < result.oram.shard_access_counts.size(); ++s) {
      if (s) os << ",";
      os << result.oram.shard_access_counts[s];
    }
    os << "]}";
  }
  // The v2 query-pipeline counters: experiments prepare each query
  // exactly once (misses == distinct queries, hits == 0).
  const auto& ss = result.server_stats;
  os << ",\"plan_cache\":{\"prepares\":" << ss.prepares
     << ",\"hits\":" << ss.plan_cache_hits
     << ",\"misses\":" << ss.plan_cache_misses
     << ",\"rebinds\":" << ss.plan_rebinds
     << ",\"executed\":" << ss.queries_executed
     << ",\"peak_in_flight\":" << ss.peak_in_flight
     << ",\"snapshot_scans\":" << ss.snapshot_scans
     << ",\"snapshot_joins\":" << ss.snapshot_joins
     << ",\"view_hits\":" << ss.view_hits
     << ",\"view_folds\":" << ss.view_folds
     << ",\"remote_scatters\":" << ss.remote_scatters
     << ",\"remote_partials\":" << ss.remote_partials << "}";
  os << "}";
  return os.str();
}

void DieOnError(const Status& status) {
  if (status.ok()) return;
  std::cerr << "experiment failed: " << status.ToString() << std::endl;
  std::exit(1);
}

}  // namespace

bool FastMode() {
  const char* v = std::getenv("DPSYNC_FAST");
  return v != nullptr && v[0] == '1';
}

void ApplyFastMode(sim::ExperimentConfig* config) {
  if (!FastMode()) return;
  config->yellow.horizon_minutes /= 8;
  config->yellow.target_records /= 8;
  config->green.horizon_minutes /= 8;
  config->green.target_records /= 8;
  config->params.flush_interval /= 4;
}

void PrintSeries(std::ostream& os, const std::string& tag,
                 const Series& series, size_t max_points) {
  size_t n = series.t.size();
  if (n == 0) return;
  size_t stride = n > max_points ? n / max_points : 1;
  for (size_t i = 0; i < n; i += stride) {
    os << tag << "," << series.t[i] << "," << series.value[i] << "\n";
  }
}

sim::ExperimentResult MustRun(const sim::ExperimentConfig& config) {
  auto start = std::chrono::steady_clock::now();
  auto r = sim::RunExperiment(config);
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  DieOnError(r.status());
  Report().entries.push_back(RenderEntry(config, r.value(), wall));
  return std::move(r.value());
}

std::vector<sim::ExperimentResult> MustRunAll(
    const std::vector<sim::ExperimentConfig>& configs) {
  const size_t n = configs.size();
  std::vector<StatusOr<sim::ExperimentResult>> runs(
      n, StatusOr<sim::ExperimentResult>(
             Status::FailedPrecondition("cell did not run")));
  std::vector<double> walls(n, 0.0);
  // One pool task per cell. Each cell's experiment is seeded entirely from
  // its own config (RunExperiment derives every RNG from config.seed), so
  // concurrent cells share no mutable state and the fan-out cannot change
  // any result; nested scan fan-outs inside a cell collapse to the worker
  // thread (see ThreadPool::ParallelFor).
  SharedPool()->ParallelFor(n, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto start = std::chrono::steady_clock::now();
      runs[i] = sim::RunExperiment(configs[i]);
      walls[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    }
  });
  std::vector<sim::ExperimentResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DieOnError(runs[i].status());
    Report().entries.push_back(RenderEntry(configs[i], runs[i].value(),
                                           walls[i]));
    results.push_back(std::move(runs[i].value()));
  }
  return results;
}

void RecordEntry(const std::string& json_object) {
  Report().entries.push_back(json_object);
}

bool WriteJsonReport() {
  ReportState& report = Report();
  if (!report.armed || report.written) return true;
  const char* dir = std::getenv("DPSYNC_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + report.name + ".json"
                         : "BENCH_" + report.name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write bench report " << path << std::endl;
    return false;
  }
  out << "{\"bench\":\"" << report.name
      << "\",\"fast_mode\":" << (FastMode() ? "true" : "false")
      << ",\"experiments\":[";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    if (i) out << ",";
    out << "\n  " << report.entries[i];
  }
  out << "\n]}\n";
  report.written = true;
  return true;
}

void Banner(const std::string& title, const std::string& paper_ref) {
  ReportState& report = Report();
  if (!report.armed) {
    report.name = BinaryName(title);
    report.armed = true;
    std::atexit(WriteReportAtExit);
  }
  std::cout << "==========================================================\n"
            << title << "\n(reproduces " << paper_ref
            << " of DP-Sync, SIGMOD'21)\n"
            << "==========================================================\n";
}

}  // namespace dpsync::bench
