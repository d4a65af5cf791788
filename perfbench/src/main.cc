/// \file main.cc
/// perfbench: the end-to-end benchmark program.
///
///   perfbench --workload <owner_sync|analyst_mix|dist_scan|oram_indexed>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--smoke] [--out-dir <dir>] [--git-sha <sha>]
///
/// Prints a human-readable report (every metric with its unit and sample
/// count, the environment, the deterministic digest) and, as the last line
/// of stdout, one JSON object {correct, attempted, failed, metrics}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// Exits 0 only when every tick succeeded and every answer matched the
/// plaintext oracle.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;  ///< latency sample count (-1: not a distribution)
  /// False for numbers printed in the report but left out of the JSON
  /// result (tail latencies too noisy on a shared host to carry a bound).
  bool in_result = true;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Rounds considered by a metric family: the untraced ones for end-to-end
/// numbers, the traced ones for per-layer numbers.
std::vector<const Round*> Select(const std::vector<Round>& rounds,
                                 bool traced) {
  std::vector<const Round*> out;
  for (const Round& r : rounds) {
    if (r.traced == traced) out.push_back(&r);
  }
  return out;
}

/// The paper's deterministic metrics of one round (every round and every
/// same-seed run repeats them bit for bit).
struct Digest {
  double l1_error_mean = 0;
  double logical_gap_mean = 0;
  double virtual_qet_mean_s = 0;
  int64_t core_syncs = 0;
  int64_t oram_access_count = 0;
  int64_t query_records_scanned = 0;
  uint64_t input_digest = 0;

  bool operator==(const Digest& o) const {
    return std::memcmp(&l1_error_mean, &o.l1_error_mean, sizeof(double)) == 0 &&
           std::memcmp(&logical_gap_mean, &o.logical_gap_mean,
                       sizeof(double)) == 0 &&
           std::memcmp(&virtual_qet_mean_s, &o.virtual_qet_mean_s,
                       sizeof(double)) == 0 &&
           core_syncs == o.core_syncs &&
           oram_access_count == o.oram_access_count &&
           query_records_scanned == o.query_records_scanned &&
           input_digest == o.input_digest;
  }
};

struct PaperMetrics {
  double l1_error_mean = 0;
  double logical_gap_mean = 0;
  double virtual_qet_mean_s = 0;
};

PaperMetrics Paper(const std::vector<const Round*>& rounds) {
  std::vector<double> l1, qet;
  double gap = 0;
  int64_t ticks = 0;
  for (const Round* r : rounds) {
    for (const Request& q : r->requests) {
      if (q.l1 >= 0) l1.push_back(q.l1);
      qet.push_back(q.virtual_s);
    }
    gap += r->gap_sum;
    ticks += r->ticks;
  }
  return {Mean(l1), Ratio(gap, static_cast<double>(ticks)), Mean(qet)};
}

Digest DigestOf(const Round& r) {
  Digest d;
  const PaperMetrics p = Paper({&r});
  d.l1_error_mean = p.l1_error_mean;
  d.logical_gap_mean = p.logical_gap_mean;
  d.virtual_qet_mean_s = p.virtual_qet_mean_s;
  d.core_syncs = r.syncs;
  d.oram_access_count = r.oram.access_count;
  for (const Request& q : r.requests) d.query_records_scanned += q.records_scanned;
  d.input_digest = r.input_digest;
  return d;
}

std::string DigestJson(const Digest& d) {
  std::ostringstream o;
  o << "{\"l1_error_mean\":" << Num(d.l1_error_mean)
    << ",\"logical_gap_mean\":" << Num(d.logical_gap_mean)
    << ",\"virtual_qet_mean_s\":" << Num(d.virtual_qet_mean_s)
    << ",\"core.syncs\":" << d.core_syncs
    << ",\"oram.access_count\":" << d.oram_access_count
    << ",\"query.records_scanned\":" << d.query_records_scanned
    << ",\"input_digest\":\"" << std::hex << d.input_digest << std::dec
    << "\"}";
  return o.str();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPU time per operation in one round (seconds): means over its ticks, its
/// syncs and its requests.
struct RoundCpu {
  double tick = 0;
  double sync = 0;
  double query = 0;
};

RoundCpu CpuOf(const Round& r) {
  double query = 0;
  for (const Request& q : r.requests) query += q.cpu_s;
  return {Ratio(r.tick_cpu_s, static_cast<double>(r.ticks)), Mean(r.sync_cpu_s),
          Ratio(query, static_cast<double>(r.requests.size()))};
}

/// End-to-end metrics over the untraced rounds. The gated times are process
/// CPU times (CpuNs): every workload runs on one benchmark thread, so the CPU
/// time across an operation is its own cost, and unlike wall-clock time it
/// does not grow while a busy host holds the vCPUs (steal) or wakes them
/// late. Each is a mean per round (a median over requests can sit between
/// two query shapes that are issued equally often), reported as the median
/// over rounds, which drops rounds that a burst of host load slowed; set-up
/// is the median over all rounds. The wall-clock numbers are printed in the
/// report but are not part of the result: on a shared host they follow the
/// host's load.
std::vector<Metric> EndToEnd(const std::vector<Round>& all, double peak_rss_mb) {
  const auto rounds = Select(all, /*traced=*/false);
  std::vector<double> setup, setup_wall, sync, latency;
  std::vector<double> tick_cpu, sync_cpu, query_cpu, tick_rate, query_rate;
  int64_t stored = 0, user = 0;
  for (const Round& r : all) {
    setup.push_back(r.setup_cpu_s);
    setup_wall.push_back(r.setup_s);
  }
  for (const Round* r : rounds) {
    sync.insert(sync.end(), r->sync_s.begin(), r->sync_s.end());
    for (const Request& q : r->requests) latency.push_back(q.latency_s);
    const RoundCpu cpu = CpuOf(*r);
    tick_cpu.push_back(cpu.tick);
    sync_cpu.push_back(cpu.sync);
    query_cpu.push_back(cpu.query);
    tick_rate.push_back(Ratio(static_cast<double>(r->ticks), r->measured_s));
    query_rate.push_back(
        Ratio(static_cast<double>(r->requests.size()), r->measured_s));
    stored += r->outsourced_bytes;
    user += r->user_bytes;
  }
  const auto n_setup = static_cast<int64_t>(setup.size());
  const auto n_sync = static_cast<int64_t>(sync.size());
  const auto n_lat = static_cast<int64_t>(latency.size());
  const auto n_rounds = static_cast<int64_t>(rounds.size());
  return {
      {"setup_s", Percentile(setup, 0.5), "s", n_setup},
      {"setup_wall_s", Percentile(setup_wall, 0.5), "s", n_setup, false},
      {"tick_cpu_us", Percentile(tick_cpu, 0.5) * 1e6, "us", n_rounds},
      {"owner_ticks_per_s", Percentile(tick_rate, 0.5), "1/s", n_rounds, false},
      {"sync_cpu_ms", Percentile(sync_cpu, 0.5) * 1e3, "ms", n_sync},
      {"sync_p50_ms", Percentile(sync, 0.50) * 1e3, "ms", n_sync, false},
      {"sync_p99_ms", Percentile(sync, 0.99) * 1e3, "ms", n_sync, false},
      {"query_cpu_ms", Percentile(query_cpu, 0.5) * 1e3, "ms", n_lat},
      {"queries_per_s", Percentile(query_rate, 0.5), "1/s", n_rounds, false},
      {"query_p50_ms", Percentile(latency, 0.50) * 1e3, "ms", n_lat, false},
      {"query_p99_ms", Percentile(latency, 0.99) * 1e3, "ms", n_lat, false},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"storage_bytes_per_user_byte",
       Ratio(static_cast<double>(stored), static_cast<double>(user)), "B/B"},
      {"virtual_qet_mean_s", Paper(rounds).virtual_qet_mean_s, "s"},
  };
}

/// Self time of each `owner.tick` span: its duration minus the union of
/// its `edb.update` children's intervals (clipped to the span).
double CoreSelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "edb.update") == 0 && s.parent != 0) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  int64_t self = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "owner.tick") != 0) continue;
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self += (s.end_ns - s.start_ns) - covered;
  }
  return static_cast<double>(self) * 1e-9;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

/// Rounds per CPU second of the measured phase, for the tracing overhead
/// (every round of a workload does the same work).
double Throughput(const std::vector<const Round*>& rounds) {
  double cpu = 0;
  for (const Round* r : rounds) cpu += r->measured_cpu_s;
  return Ratio(static_cast<double>(rounds.size()), cpu);
}

std::vector<Metric> PerLayer(const std::vector<Round>& all) {
  const auto rounds = Select(all, /*traced=*/true);
  std::vector<Span> spans;
  std::vector<double> engine_us, wait_us, sync_us, request_us;
  std::map<QueryClass, std::vector<double>> class_us;
  double view_free_rows = 0, view_free_s = 0;
  int64_t records_scanned = 0, join_pairs = 0;
  int64_t syncs = 0, real = 0, dummy = 0, update_records = 0;
  int64_t oram_paths = 0, oram_buckets = 0, oram_access = 0;
  double oram_virtual = 0;
  size_t oram_stash = 0;
  int64_t rpc = 0, bytes = 0, replicated = 0, lag = 0;
  dpsync::edb::ServerStats st;
  for (const Round* r : rounds) {
    spans.insert(spans.end(), r->spans.begin(), r->spans.end());
    for (const Request& q : r->requests) {
      request_us.push_back(q.latency_s * 1e6);
      engine_us.push_back(q.engine_s * 1e6);
      wait_us.push_back((q.execute_s - q.engine_s) * 1e6);
      class_us[q.cls].push_back(q.latency_s * 1e6);
      records_scanned += q.records_scanned;
      join_pairs += q.join_pairs;
      oram_paths += q.oram_paths;
      oram_buckets += q.oram_buckets;
      oram_virtual += q.oram_virtual_s;
      if (!q.view_eligible) {
        view_free_rows += static_cast<double>(q.records_scanned);
        view_free_s += q.engine_s;
      }
    }
    for (double l : r->sync_s) sync_us.push_back(l * 1e6);
    syncs += r->syncs;
    real += r->real_synced;
    dummy += r->dummy_synced;
    update_records += r->update_records;
    oram_access += r->oram.access_count;
    oram_stash = std::max(oram_stash, r->oram.max_stash_size);
    rpc += r->rpc_calls;
    bytes += r->bytes_shipped;
    replicated += r->bytes_replicated;
    lag += r->replica_lag_batches;
    const auto& s = r->stats;
    st.plan_cache_hits += s.plan_cache_hits;
    st.plan_cache_misses += s.plan_cache_misses;
    st.queries_executed += s.queries_executed;
    st.queries_rejected += s.queries_rejected + s.deadlines_exceeded;
    st.snapshot_scans += s.snapshot_scans;
    st.snapshot_joins += s.snapshot_joins;
    st.view_hits += s.view_hits;
    st.view_folds += s.view_folds;
    st.remote_partials += s.remote_partials;
    st.failovers += s.failovers;
    st.peak_in_flight = std::max(st.peak_in_flight, s.peak_in_flight);
  }
  const auto ticks_us = SpanMicros(spans, "owner.tick");
  const auto update_us = SpanMicros(spans, "edb.update");
  const auto prepare_us = SpanMicros(spans, "edb.prepare");
  const auto execute_us = SpanMicros(spans, "edb.execute");
  double update_busy = 0;
  for (double u : update_us) update_busy += u * 1e-6;
  const double req = static_cast<double>(request_us.size());
  const double untraced = Throughput(Select(all, false));
  const double traced = Throughput(rounds);
  const PaperMetrics paper = Paper(rounds);
  auto us = [](const char* name, const std::vector<double>& v, double p) {
    return Metric{name, Percentile(v, p), "us", static_cast<int64_t>(v.size())};
  };
  return {
      {"core.ticks", static_cast<double>(ticks_us.size()), "count"},
      {"core.self_s", CoreSelfSeconds(spans), "s"},
      us("core.tick_us_p50", ticks_us, 0.50),
      us("core.tick_us_p99", ticks_us, 0.99),
      {"core.syncs", static_cast<double>(syncs), "count"},
      {"core.real_fraction",
       Ratio(static_cast<double>(real), static_cast<double>(real + dummy)),
       "ratio"},
      {"edb.update_calls", static_cast<double>(update_us.size()), "count"},
      {"edb.update_busy_s", update_busy, "s"},
      us("edb.update_us_p50", update_us, 0.50),
      us("edb.update_us_p99", update_us, 0.99),
      {"edb.records_per_update",
       Ratio(static_cast<double>(update_records), static_cast<double>(syncs)),
       "records"},
      {"edb.view_folds", static_cast<double>(st.view_folds), "count"},
      us("edb.prepare_us_p50", prepare_us, 0.50),
      us("edb.prepare_us_p99", prepare_us, 0.99),
      {"edb.plan_cache_hit_ratio",
       Ratio(static_cast<double>(st.plan_cache_hits),
             static_cast<double>(st.plan_cache_hits + st.plan_cache_misses)),
       "ratio"},
      us("edb.execute_us_p50", execute_us, 0.50),
      us("edb.execute_us_p99", execute_us, 0.99),
      us("edb.engine_us_p50", engine_us, 0.50),
      us("edb.engine_us_p99", engine_us, 0.99),
      us("edb.wait_us_p50", wait_us, 0.50),
      us("edb.wait_us_p99", wait_us, 0.99),
      {"edb.view_hit_ratio",
       Ratio(static_cast<double>(st.view_hits),
             static_cast<double>(st.queries_executed)),
       "ratio"},
      {"edb.snapshot_scans", static_cast<double>(st.snapshot_scans), "count"},
      {"edb.snapshot_joins", static_cast<double>(st.snapshot_joins), "count"},
      {"edb.rejected", static_cast<double>(st.queries_rejected), "count"},
      {"edb.peak_in_flight", static_cast<double>(st.peak_in_flight), "count"},
      {"query.records_scanned", static_cast<double>(records_scanned), "rows"},
      {"query.join_pairs", static_cast<double>(join_pairs), "pairs"},
      {"query.scan_rows_per_s", Ratio(view_free_rows, view_free_s), "rows/s"},
      us("query.dashboard_us_p50", class_us[QueryClass::kDashboard], 0.50),
      us("query.adhoc_us_p50", class_us[QueryClass::kAdhoc], 0.50),
      us("query.adhoc_us_p99", class_us[QueryClass::kAdhoc], 0.99),
      us("query.join_us_p50", class_us[QueryClass::kJoin], 0.50),
      us("query.join_us_p99", class_us[QueryClass::kJoin], 0.99),
      {"oram.paths", static_cast<double>(oram_paths), "count"},
      {"oram.buckets", static_cast<double>(oram_buckets), "count"},
      {"oram.virtual_s", oram_virtual, "s"},
      {"oram.max_stash", static_cast<double>(oram_stash), "blocks"},
      {"oram.access_count", static_cast<double>(oram_access), "count"},
      {"dist.rpc_per_query", Ratio(static_cast<double>(rpc), req), "rpc"},
      {"dist.bytes_per_query", Ratio(static_cast<double>(bytes), req), "B"},
      {"dist.remote_partials", static_cast<double>(st.remote_partials), "count"},
      {"dist.bytes_replicated", static_cast<double>(replicated), "B"},
      {"dist.replica_lag_batches", static_cast<double>(lag), "count"},
      {"dist.failovers", static_cast<double>(st.failovers), "count"},
      us("owner.sync_us_p99", sync_us, 0.99),
      us("analyst.query_us_p99", request_us, 0.99),
      {"paper.l1_error_mean", paper.l1_error_mean, "records"},
      {"paper.logical_gap_mean", paper.logical_gap_mean, "records"},
      {"trace.overhead_pct", (Ratio(untraced, traced) - 1) * 100, "%"},
  };
}

std::string EnvJson(const Options& opts) {
  std::ostringstream o;
  o << "{\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER_ID " " __VERSION__)
    << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"DPSYNC_ENABLE_NATIVE_SIMD\":"
    << (PERFBENCH_NATIVE_SIMD ? "true" : "false") << ",\"seed\":" << opts.seed
    << ",\"git_sha\":\"" << JsonEscape(opts.git_sha) << "\"";
  // The benchmark always measures defaults; these are recorded, not used.
  for (const char* var : {"DPSYNC_FAST", "DPSYNC_VECTORIZED"}) {
    if (const char* v = std::getenv(var)) {
      o << ",\"" << var << "\":\"" << JsonEscape(v) << "\"";
    }
  }
  o << "}";
  return o.str();
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::cout << "# " << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("#   %-30s %16.6g %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples >= 0) std::printf(" (n=%lld)", static_cast<long long>(m.samples));
    if (!m.in_result) std::printf(" [report only]");
    std::printf("\n");
  }
  std::fflush(stdout);
}

int Usage() {
  std::cerr << "usage: perfbench --workload "
               "<owner_sync|analyst_mix|dist_scan|oram_indexed> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>] "
               "[--git-sha <sha>]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--workload" && (v = next())) {
      opts.workload = v;
    } else if (a == "--seed" && (v = next())) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      opts.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      opts.trace = std::string(v) == "1";
    } else if (a == "--out-dir" && (v = next())) {
      opts.out_dir = v;
    } else if (a == "--git-sha" && (v = next())) {
      opts.git_sha = v;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, RoundFn> workloads = {
      {"owner_sync", RunOwnerSync},
      {"analyst_mix", RunAnalystMix},
      {"dist_scan", RunDistScan},
      {"oram_indexed", RunOramIndexed}};
  auto it = workloads.find(opts.workload);
  if (it == workloads.end() || !(opts.seconds > 0)) return Usage();

  // Rounds: at least three (set-up is reported as their median), then more
  // until the measured phases have used the time. With tracing, odd rounds
  // are traced and even rounds give the untraced baseline for the overhead.
  // Peak RSS is read after the third round: later rounds mostly add the
  // benchmark's own per-request records, and how many run depends on the
  // host's speed.
  std::vector<Round> rounds;
  double measured = 0, peak_rss_mb = 0;
  for (int i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    rounds.push_back(it->second(opts, i, traced));
    measured += rounds.back().measured_s;
    const int done = i + 1;
    if (done <= 3) peak_rss_mb = PeakRssMb();
    if (!rounds.back().error.empty()) break;
    const double avg = measured / done;
    if (done >= 3 && measured + 0.5 * avg >= opts.seconds) break;
  }

  // Correctness: owner ticks, oracle checks, and bit-identical deterministic
  // metrics across rounds.
  int64_t attempted = 0, failed = 0, checked = 0, states = 0;
  std::string error;
  for (const Round& r : rounds) {
    attempted += r.ticks + static_cast<int64_t>(r.requests.size());
    failed += r.failed_ticks;
    checked += r.oracle.checked;
    states += r.oracle.states;
    for (const Request& q : r.requests) {
      if (!q.ok || !q.correct) ++failed;
    }
    if (error.empty()) error = r.error;
    if (error.empty()) error = r.oracle.first_error;
  }
  if (attempted == 0) attempted = 1;
  const Digest digest = DigestOf(rounds.front());
  for (const Round& r : rounds) {
    if (r.error.empty() && !(DigestOf(r) == digest) && error.empty()) {
      error = "deterministic metrics differ between rounds";
    }
  }
  const bool correct = failed == 0 && error.empty();

  int traced_rounds = 0;
  for (const Round& r : rounds) traced_rounds += r.traced ? 1 : 0;
  std::cout << "# perfbench workload=" << opts.workload << " seed=" << opts.seed
            << " rounds=" << rounds.size() << " traced_rounds=" << traced_rounds
            << " measured_s=" << measured << "\n";
  std::cout << "# env " << EnvJson(opts) << "\n";
  std::cout << "# deterministic " << DigestJson(digest) << "\n";
  std::cout << "# error_rate " << Num(Ratio(static_cast<double>(failed),
                                             static_cast<double>(attempted)))
            << " (" << failed << " of " << attempted
            << " owner ticks and analyst requests)\n";
  std::cout << "# oracle " << checked << " requests checked, "
            << Num(Ratio(static_cast<double>(states), static_cast<double>(checked)))
            << " committed states tried per request\n";
  if (!error.empty()) std::cout << "# error " << error << "\n";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const RoundCpu cpu = CpuOf(r);
    std::printf("# round %zu%s: setup %.4f s (cpu %.4f s), measured %.4f s "
                "(cpu %.4f s), %lld ticks, %zu requests; cpu per tick %.4f us, "
                "per sync %.5f ms, per request %.5f ms\n",
                i, r.traced ? " (traced)" : "", r.setup_s, r.setup_cpu_s,
                r.measured_s, r.measured_cpu_s,
                static_cast<long long>(r.ticks), r.requests.size(),
                cpu.tick * 1e6, cpu.sync * 1e3, cpu.query * 1e3);
  }
  std::fflush(stdout);

  std::vector<Metric> e2e, layers;
  if (!opts.trace || traced_rounds < static_cast<int>(rounds.size())) {
    e2e = EndToEnd(rounds, peak_rss_mb);
    PrintTable(opts.trace ? "end-to-end (untraced rounds)" : "end-to-end", e2e);
  }
  if (opts.trace) {
    layers = PerLayer(rounds);
    PrintTable("per-layer (traced rounds)", layers);
    std::vector<Span> spans;
    for (const Round& r : rounds) {
      spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    }
    const std::string path = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".csv";
    if (WriteSpansCsv(path, spans)) {
      std::cout << "# spans " << spans.size() << " written to " << path << "\n";
    } else {
      std::cout << "# spans could not be written to " << path << "\n";
    }
  }

  const auto& out = opts.trace ? layers : e2e;
  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
  const char* sep = "";
  for (const Metric& m : out) {
    if (!m.in_result) continue;
    json << sep << "\"" << m.name << "\":{\"value\":" << Num(m.value)
         << ",\"unit\":\"" << m.unit << "\"}";
    sep = ",";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
