// Result fields every harness run reports; harness::Run (run.hpp) fills
// them when the run finishes. The telemetry summary is the run's one copy
// of its drop, mark, enqueue and scenario-action counts (DESIGN.md §8).
#pragma once

#include <cstdint>

#include "telemetry/summary.hpp"

namespace dynaq::harness {

struct RunResult {
  std::uint64_t events = 0;
  telemetry::TelemetrySummary telemetry;
  std::uint64_t trajectory_hash = 0;  // check::TrajectoryHash (DESIGN.md §10)
};

}  // namespace dynaq::harness
