/// \file fig2_end_to_end.cpp
/// Reproduces Figure 2 (a-j) and Table 5: end-to-end comparison of the
/// five synchronization strategies on both encrypted database
/// implementations. For every test query it emits the L1-error and QET
/// time series the paper plots, plus a per-strategy summary. Table 5
/// aggregates the same ten runs: per query (Q1/Q2 on Crypt-eps; Q1/Q2/Q3
/// on ObliDB) the mean and max L1 error and mean QET, plus mean logical
/// gap and total/dummy data sizes.
///
/// Output: "fig2,<engine>,<strategy>,<query>,<metric>,t,value" CSV lines
/// followed by the summary tables and Table 5. DPSYNC_FAST=1 shrinks the
/// trace 8x.
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/table_printer.h"

using namespace dpsync;
using namespace dpsync::bench;

namespace {

using EngineResults = std::map<StrategyKind, sim::ExperimentResult>;

/// One Table 5 group: a metric per row, a strategy per column.
void PrintTable5Group(const EngineResults& results) {
  const StrategyKind kOrder[] = {StrategyKind::kSur, StrategyKind::kSet,
                                 StrategyKind::kOto, StrategyKind::kDpTimer,
                                 StrategyKind::kDpAnt};
  const auto& any = results.begin()->second;
  std::cout << "\n=== " << any.engine_name << " group ===\n";
  TablePrinter table({"metric", "SUR", "SET", "OTO", "DP-Timer", "DP-ANT"});
  auto row = [&](const std::string& name, auto getter, int precision) {
    std::vector<std::string> cells = {name};
    for (auto strategy : kOrder) {
      cells.push_back(
          TablePrinter::Fmt(getter(results.at(strategy)), precision));
    }
    table.AddRow(cells);
  };
  for (size_t qi = 0; qi < any.queries.size(); ++qi) {
    const std::string q = any.queries[qi].name;
    row(q + " mean L1 err",
        [qi](const sim::ExperimentResult& r) { return r.queries[qi].mean_l1; },
        2);
    row(q + " max L1 err",
        [qi](const sim::ExperimentResult& r) { return r.queries[qi].max_l1; },
        0);
    row(q + " mean QET (s)",
        [qi](const sim::ExperimentResult& r) { return r.queries[qi].mean_qet; },
        2);
  }
  row("mean logical gap",
      [](const sim::ExperimentResult& r) { return r.mean_logical_gap; }, 2);
  row("total data (Mb)",
      [](const sim::ExperimentResult& r) { return r.final_total_mb; }, 2);
  row("dummy data (Mb)",
      [](const sim::ExperimentResult& r) { return r.final_dummy_mb; }, 2);
  table.Print(std::cout);
}

}  // namespace

int main() {
  Banner("Figure 2 and Table 5: end-to-end L1 error and query execution time",
         "Figure 2(a)-(j) and Table 5");

  // The strategy x engine cells are independent experiments, each seeded
  // from its own config — build them all, fan the sweep out on the shared
  // pool, and print in the original sequential order.
  std::map<sim::EngineKind, EngineResults> results;
  for (auto engine : {sim::EngineKind::kObliDb, sim::EngineKind::kCryptEps}) {
    TablePrinter summary(
        {"engine", "strategy", "query", "mean L1", "max L1", "mean QET (s)"});
    std::vector<sim::ExperimentConfig> cells;
    for (auto strategy : kAllStrategies) {
      sim::ExperimentConfig cfg;
      cfg.engine = engine;
      cfg.strategy = strategy;
      ApplyFastMode(&cfg);
      cells.push_back(cfg);
    }
    auto runs = MustRunAll(cells);
    for (size_t i = 0; i < runs.size(); ++i) {
      const auto& result = runs[i];
      for (const auto& q : result.queries) {
        std::string tag = "fig2," + result.engine_name + "," +
                          result.strategy_name + "," + q.name;
        PrintSeries(std::cout, tag + ",l1_error", q.l1_error);
        PrintSeries(std::cout, tag + ",qet", q.qet);
        summary.AddRow({result.engine_name, result.strategy_name, q.name,
                        TablePrinter::Fmt(q.mean_l1),
                        TablePrinter::Fmt(q.max_l1),
                        TablePrinter::Fmt(q.mean_qet)});
      }
      results[engine].emplace(cells[i].strategy, std::move(runs[i]));
    }
    std::cout << "\n";
    summary.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected shape (paper): OTO errors grow unbounded (>>100x DP "
               "strategies);\nSUR/SET errors ~0 on ObliDB and small-noise on "
               "Crypt-eps; DP strategies'\nerrors bounded (no accumulation); "
               "SET QET >= ~2x DP strategies (>=4x on Q3).\n";

  std::cout << "\nTable 5: aggregated statistics for the comparison "
               "experiment\n";
  for (auto engine : {sim::EngineKind::kCryptEps, sim::EngineKind::kObliDb}) {
    PrintTable5Group(results.at(engine));
  }
  std::cout
      << "\nExpected shape (paper Table 5): OTO mean L1 err is 2-4 orders of "
         "magnitude\nabove every other strategy; SUR/SET errors ~0 (ObliDB) "
         "or small (Crypt-eps);\nDP strategies have small bounded errors, "
         "QET within ~25% of SUR, and SET\noutsources >=2x their data "
         "volume.\n";
  return 0;
}
