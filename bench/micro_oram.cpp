/// \file micro_oram.cpp
/// Micro-benchmarks for the oblivious substrates: Path ORAM write/read at
/// several capacities and a whole-index TouchAll — the per-access cost
/// behind the ObliDB "indexed" storage mode — and the oblivious sort-merge
/// COUNT join kernel behind ObliDB's small COUNT joins.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/shard_router.h"
#include "oram/oblivious_join.h"
#include "oram/oram_mirror.h"
#include "oram/path_oram.h"

namespace dpsync::oram {
namespace {

void BM_OramWrite(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = static_cast<size_t>(state.range(0));
  cfg.seed = 1;
  PathOram oram(cfg);
  Bytes payload(92, 0xaa);
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oram.Write(id % (cfg.capacity - 1), payload));
    ++id;
  }
}
BENCHMARK(BM_OramWrite)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_OramRead(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = static_cast<size_t>(state.range(0));
  cfg.seed = 2;
  PathOram oram(cfg);
  Bytes payload(92, 0xbb);
  size_t n = cfg.capacity / 2;
  for (uint64_t i = 0; i < n; ++i) {
    if (!oram.Write(i, payload).ok()) state.SkipWithError("fill failed");
  }
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oram.Read(id % n));
    ++id;
  }
}
BENCHMARK(BM_OramRead)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_OramReadWriteMix(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = 16384;
  cfg.seed = 3;
  PathOram oram(cfg);
  Bytes payload(92, 0xcc);
  for (uint64_t i = 0; i < 8000; ++i) {
    if (!oram.Write(i, payload).ok()) state.SkipWithError("fill failed");
  }
  Rng rng(4);
  for (auto _ : state) {
    uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 7999));
    if (rng.Bernoulli(0.5)) {
      benchmark::DoNotOptimize(oram.Read(id));
    } else {
      benchmark::DoNotOptimize(oram.Write(id, payload));
    }
  }
}
BENCHMARK(BM_OramReadWriteMix);

// One capture's TouchAll at perfbench oram_indexed's geometry: capacity
// 1<<16 over 4 trees, holding range(0) blocks (the indexed table holds
// about 4,400 at the end of its week), so each tree is sparse. An item is
// one oblivious path; the trees run on the shared pool, so time is wall.
void BM_OramTouchAll(benchmark::State& state) {
  OramMirrorConfig cfg;
  cfg.capacity = size_t{1} << 16;
  cfg.master_seed = 6;
  OramMirror mirror(4, cfg);
  ShardRouter router(4);
  const auto blocks = static_cast<size_t>(state.range(0));
  Bytes identity(8, 0);
  std::vector<OramMirror::Entry> entries;
  for (size_t i = 0; i < blocks; ++i) {
    StoreLE64(identity.data(), i);
    entries.push_back({router.Route(identity), Bytes(92, 0xdd)});
  }
  if (!mirror.Append(std::move(entries)).ok()) {
    state.SkipWithError("append failed");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mirror.TouchAll());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(blocks));
}
BENCHMARK(BM_OramTouchAll)->Arg(4400)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The kernel over int keys: range(0) left and range(1) right tags, keys
// drawn from about as many values as there are tags, a quarter of the
// tags filtered out. The sort's cost depends on the tag count alone.
void BM_ObliviousJoinCount(benchmark::State& state) {
  const auto n1 = static_cast<size_t>(state.range(0));
  const auto n2 = static_cast<size_t>(state.range(1));
  Rng rng(5);
  std::vector<JoinTag<int64_t>> tags(n1 + n2);
  for (auto& t : tags) {
    t.key = rng.UniformInt(0, static_cast<int64_t>(n1 + n2));
    t.valid = rng.UniformInt(0, 3) != 0;
  }
  auto compare = [](int64_t a, int64_t b) { return (a > b) - (a < b); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(ObliviousJoinCount(tags, n1, compare));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n1 + n2));
}
BENCHMARK(BM_ObliviousJoinCount)
    ->Args({512, 512})
    ->Args({2048, 2048})
    ->Args({8192, 8192})
    ->Args({32768, 32768})
    ->Args({64, 62500})  // skewed: exactly the default 4M-pair limit
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dpsync::oram
