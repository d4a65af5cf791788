/// \file bench_util.h
/// Shared helpers for the figure/table reproduction binaries: environment
/// scaling (DPSYNC_FAST=1 shrinks traces for smoke runs), series printing,
/// and common experiment sweeps.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/experiment.h"

namespace dpsync::bench {

/// True if DPSYNC_FAST=1 is set (CI/smoke mode: shorter traces).
bool FastMode();

/// Applies fast-mode scaling to an experiment config (1/8 horizon and
/// record counts; same parameter ratios so every shape survives).
void ApplyFastMode(sim::ExperimentConfig* config);

/// Prints a named series as "name,t,value" CSV lines, downsampled to at
/// most `max_points` evenly spaced points.
void PrintSeries(std::ostream& os, const std::string& tag,
                 const Series& series, size_t max_points = 60);

/// Runs one experiment and dies with a message on error. Every run is also
/// recorded in the machine-readable report (see WriteJsonReport).
sim::ExperimentResult MustRun(const sim::ExperimentConfig& config);

/// Runs a whole sweep of independent experiment cells, fanned out across
/// the shared thread pool, and dies on the first error. Results, stdout
/// tables and the JSON report entries all come back in input order, and
/// every cell runs from its own config seed — so the output is
/// bit-identical to calling MustRun sequentially, just faster. (Cells on
/// worker threads run their internal scan and join fan-outs as one
/// inline call; that is invisible because both index their partials by a
/// chunk decomposition the query layer computes itself — query/
/// executor.cc, SpanAlignedScanChunks and RunJoinChunks — so the merge
/// tree, FP-sensitive SUM/AVG included, never depends on how the pool
/// schedules the chunks.)
std::vector<sim::ExperimentResult> MustRunAll(
    const std::vector<sim::ExperimentConfig>& configs);

/// Appends one pre-rendered JSON object to the machine-readable report —
/// for benches whose cells are not sim experiments (e.g. the concurrency
/// sweep). The object should carry distinguishing "engine"/"strategy"
/// keys so tools/bench_diff.py can match it across runs.
void RecordEntry(const std::string& json_object);

/// Header banner for a figure binary. Also names and arms the JSON report:
/// when the process exits, every MustRun recorded since is written to
/// `BENCH_<name>.json` (in $DPSYNC_BENCH_JSON_DIR, default the working
/// directory) so CI can archive per-figure numbers and diff them across
/// commits. `name` defaults to the binary name on Linux.
void Banner(const std::string& title, const std::string& paper_ref);

/// Forces the report to disk immediately (exit also triggers this).
/// Returns false (after printing a warning) if the file cannot be written.
bool WriteJsonReport();

}  // namespace dpsync::bench
