// Micro-benchmark for the paper's §IV-A hardware-cost claims: Algorithm 1
// runs in a handful of simple operations (≤7 clock cycles on an ASIC) and
// the loop-free MaxIdx victim search is O(log M). We measure the software
// analogue: per-arrival latency of the controller hot path and the two
// victim-search implementations across queue counts.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/dynaq_controller.hpp"
#include "sim/random.hpp"

namespace {

using dynaq::core::DynaQConfig;
using dynaq::core::DynaQController;

DynaQController make_controller(int queues) {
  DynaQConfig cfg;
  cfg.buffer_bytes = 192'000;
  cfg.weights.assign(static_cast<std::size_t>(queues), 1.0);
  return DynaQController(cfg);
}

void BM_OnArrival(benchmark::State& state) {
  const int queues = static_cast<int>(state.range(0));
  auto ctl = make_controller(queues);
  dynaq::sim::Rng rng(1);
  std::vector<std::int64_t> occupancy(static_cast<std::size_t>(queues));
  // Pre-generate occupancy patterns so RNG cost stays out of the loop.
  std::vector<std::vector<std::int64_t>> patterns;
  for (int i = 0; i < 64; ++i) {
    auto& p = patterns.emplace_back(occupancy);
    for (auto& v : p) v = rng.uniform_int(0, 192'000 / queues);
  }
  int p = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.on_arrival(patterns[i++ & 63], p, 1500));
    p = (p + 1) % queues;
  }
}
BENCHMARK(BM_OnArrival)->Arg(2)->Arg(4)->Arg(8)->Arg(64);

void BM_VictimTournament(benchmark::State& state) {
  const int queues = static_cast<int>(state.range(0));
  const auto ctl = make_controller(queues);
  int p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.find_victim_tournament(p));
    p = (p + 1) % queues;
  }
}
BENCHMARK(BM_VictimTournament)->Arg(2)->Arg(4)->Arg(8)->Arg(64);

void BM_VictimLinear(benchmark::State& state) {
  const int queues = static_cast<int>(state.range(0));
  const auto ctl = make_controller(queues);
  int p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.find_victim_linear(p));
    p = (p + 1) % queues;
  }
}
BENCHMARK(BM_VictimLinear)->Arg(2)->Arg(4)->Arg(8)->Arg(64);

void BM_BelowThresholdFastPath(benchmark::State& state) {
  // The common case (line 1 false): queue under threshold, no search.
  auto ctl = make_controller(8);
  const std::vector<std::int64_t> occupancy(8, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.on_arrival(occupancy, 3, 1500));
  }
}
BENCHMARK(BM_BelowThresholdFastPath);

}  // namespace

BENCHMARK_MAIN();
