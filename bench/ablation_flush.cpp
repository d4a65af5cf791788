/// \file ablation_flush.cpp
/// Ablation A1: the cache-flush mechanism. DESIGN.md calls out the flush
/// as the piece that upgrades "bounded gap w.h.p." to eventual consistency
/// (P3). We run DP-Timer with and without flushing on a bursty stream that
/// stops at the halfway mark, and report (i) how the logical gap drains
/// after the stream ends and (ii) the dummy-volume cost the flush adds.
/// Each table row is also one BENCH_ablation_flush.json entry
/// (`drain_ticks` is null where the gap never drains).
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/dp_timer.h"
#include "core/engine.h"
#include "workload/taxi_generator.h"
#include "workload/trip_record.h"

using namespace dpsync;

namespace {
class CountingBackend : public SogdbBackend {
 public:
  Status Setup(const std::vector<Record>& g) override { return Add(g); }
  Status Update(const std::vector<Record>& g) override { return Add(g); }
  int64_t outsourced_count() const override { return count_; }

 private:
  Status Add(const std::vector<Record>& g) {
    count_ += static_cast<int64_t>(g.size());
    return Status::Ok();
  }
  int64_t count_ = 0;
};
}  // namespace

int main() {
  bench::Banner("Ablation A1: cache flush on/off (DP-Timer)",
                "the P3 eventual-consistency mechanism of Section 5.2");
  const int64_t horizon = bench::FastMode() ? 10000 : 43200;
  const int64_t stop_at = horizon / 2;

  workload::TaxiConfig tc;
  tc.horizon_minutes = horizon;
  tc.target_records = horizon / 3;
  auto trace = workload::GenerateTaxiTrace(tc);

  TablePrinter table({"flush", "gap @ stream end", "drain ticks", "final gap",
                      "dummies", "updates"});
  for (bool flush_on : {false, true}) {
    DpTimerConfig cfg;
    cfg.epsilon = 0.2;  // heavy noise: records get deferred often
    cfg.period = 30;
    cfg.flush_interval = flush_on ? 2000 : 0;
    cfg.flush_size = 15;
    CountingBackend backend;
    DpSyncEngine engine(std::make_unique<DpTimerStrategy>(cfg), &backend,
                        workload::MakeTripDummyFactory(5), 29);
    if (!engine.Setup({}).ok()) return 1;
    int64_t gap_at_stop = 0;
    int64_t drained_at = -1;  // first tick after stop_at with gap == 0
    for (int64_t t = 1; t <= horizon; ++t) {
      std::optional<Record> arrival;
      if (t <= stop_at) {
        const auto& slot = trace.arrivals[static_cast<size_t>(t - 1)];
        if (slot) arrival = slot->ToRecord();
      }
      if (!engine.Tick(arrival).ok()) return 1;
      if (t == stop_at) gap_at_stop = engine.logical_gap();
      if (t > stop_at && drained_at < 0 && engine.logical_gap() == 0) {
        drained_at = t - stop_at;
      }
      if (t % 2000 == 0) {
        std::cout << "ablation_flush," << (flush_on ? "on" : "off") << ","
                  << t << "," << engine.logical_gap() << "\n";
      }
    }
    table.AddRow({flush_on ? "on" : "off", std::to_string(gap_at_stop),
                  drained_at >= 0 ? std::to_string(drained_at) : "never",
                  std::to_string(engine.logical_gap()),
                  std::to_string(engine.counters().dummy_synced),
                  std::to_string(engine.counters().updates_posted)});
    std::ostringstream json;
    json << "{\"engine\":\"none\",\"strategy\":\"DP-Timer\",\"flush\":\""
         << (flush_on ? "on" : "off") << "\",\"gap_at_stream_end\":"
         << gap_at_stop << ",\"drain_ticks\":"
         << (drained_at >= 0 ? std::to_string(drained_at) : "null")
         << ",\"final_gap\":" << engine.logical_gap()
         << ",\"dummies\":" << engine.counters().dummy_synced
         << ",\"updates\":" << engine.counters().updates_posted << "}";
    bench::RecordEntry(json.str());
  }
  std::cout << "\n";
  table.Print(std::cout);
  std::cout << "\nReading the table: with the flush the residual cache is "
               "drained within a\ndeterministic deadline (f * gap / s ticks); "
               "without it, draining relies on the\nDP noise happening to "
               "overfetch — a random walk with no deadline. The flush's\n"
               "price is a small fixed dummy volume (s records every f "
               "ticks).\n";
  return 0;
}
