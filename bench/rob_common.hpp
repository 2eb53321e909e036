// Shared pieces of the robustness sweeps (rob_weight_churn,
// rob_link_flap, rob_controller; DESIGN.md §11, §14): four always-active DRR
// queues on the testbed star under a catalogue scenario timeline, swept
// over scheme x seed.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench/common.hpp"
#include "harness/scenario_cli.hpp"
#include "scenario/scenario.hpp"

namespace dynaq::bench {

constexpr int kRobQueues = 4;

// Two sender hosts per queue (DESIGN.md): the standing queue stays at the
// switch egress port under test.
inline harness::StaticExperimentConfig rob_config(core::SchemeKind kind, Time duration,
                                                  std::uint64_t seed,
                                                  const scenario::Scenario* scn) {
  harness::StaticExperimentConfig cfg;
  cfg.star = testbed_star(kind, /*num_hosts=*/1 + 2 * kRobQueues);
  for (int q = 0; q < kRobQueues; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = 2,
                          .first_src_host = 1 + 2 * q,
                          .num_src_hosts = 2,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = duration;
  // 16 windows per run so the eighth-of-the-run scenario phases resolve.
  cfg.meter_window = std::max(duration / 16, milliseconds(std::int64_t{10}));
  cfg.seed = seed;
  cfg.scenario = scn;
  return cfg;
}

// Mean aggregate throughput over the meter windows in [lo, hi), given as
// fractions of the run.
inline double slice_mean(const stats::ThroughputMeter& meter, double lo, double hi) {
  const std::size_t n = meter.num_windows();
  const auto a = static_cast<std::size_t>(lo * static_cast<double>(n));
  const auto b = std::max(a + 1, static_cast<std::size_t>(hi * static_cast<double>(n)));
  double sum = 0.0;
  for (std::size_t w = a; w < b && w < n; ++w) sum += meter.aggregate_gbps(w);
  return sum / static_cast<double>(std::min(b, n) - a);
}

// The --scenario timeline over `duration`, armed once on a zero-length run
// of `probe`, the config the bench's scenario jobs run. The director then
// rejects a timeline whose targets that config never installs, such as a
// controller fault without the control-plane shim. That, like an unknown
// name, exits 2 naming the flag before any job runs.
inline scenario::Scenario scenario_flag(const harness::Cli& cli, const std::string& fallback,
                                        Time duration, harness::StaticExperimentConfig probe) {
  try {
    scenario::Scenario scn = scenario::make_scenario(
        cli.text("scenario", fallback), {.duration = duration, .num_queues = kRobQueues});
    probe.duration = 0;
    probe.scenario = &scn;
    harness::run_static_experiment(probe);
    return scn;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: --scenario: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace dynaq::bench
