/// \file bench.h
/// Shared types of the end-to-end benchmark: run options, what one round
/// of a workload produces, and the workload entry points.
///
/// A run is a sequence of rounds. Each round sets the workload up from the
/// seed (trace generation, server creation, preload Setup, first Prepare —
/// timed as set-up), runs its measured phase, then checks every answer
/// against the plaintext oracle. Rounds of one run are identical in their
/// inputs and do the same work on one benchmark thread, so set-up time is
/// reported as a median over rounds and every round must reproduce the
/// first round's deterministic metrics bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "edb/encrypted_database.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small sizes for the self-test (seconds can then be ~1).
  bool smoke = false;
  /// Where span dumps and segment-log files go.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

/// Everything one round produces.
struct Round {
  bool traced = false;
  double setup_s = 0;        ///< wall-clock
  double setup_cpu_s = 0;    ///< process CPU time (CpuNs)
  double measured_s = 0;     ///< wall-clock
  double measured_cpu_s = 0;
  std::string error;  ///< set-up or owner failure (fails the run)

  // Owner side.
  int64_t ticks = 0;
  int64_t failed_ticks = 0;
  double tick_cpu_s = 0;           ///< summed over every tick
  std::vector<double> sync_s;      ///< ticks that posted a Pi_Update
  std::vector<double> sync_cpu_s;  ///< ... and their process CPU time
  double gap_sum = 0;              ///< sum over ticks of the logical gap
  int64_t syncs = 0;           ///< Pi_Update calls in the measured phase
  int64_t real_synced = 0;     ///< ... and the records they carried
  int64_t dummy_synced = 0;
  int64_t update_records = 0;  ///< records shipped by those updates
  int64_t outsourced_bytes = 0;
  int64_t user_bytes = 0;

  // Analyst side.
  std::vector<Request> requests;
  OracleReport oracle;

  /// Server counters over the measured phase (deltas from after set-up).
  dpsync::edb::ServerStats stats;
  dpsync::edb::OramHealth oram;
  int64_t rpc_calls = 0, bytes_shipped = 0;
  int64_t bytes_replicated = 0, replica_lag_batches = 0;

  /// FNV digest of the generated inputs (self-test: seeds change it).
  uint64_t input_digest = 0;

  std::vector<Span> spans;  ///< traced rounds only
};

/// Runs one round. Every round of a workload does the same fixed work.
using RoundFn = Round (*)(const Options& opts, int round_index, bool traced);

Round RunOwnerSync(const Options& opts, int round_index, bool traced);
Round RunAnalystMix(const Options& opts, int round_index, bool traced);
Round RunDistScan(const Options& opts, int round_index, bool traced);
Round RunOramIndexed(const Options& opts, int round_index, bool traced);

}  // namespace perfbench
