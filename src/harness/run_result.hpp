// Result fields every harness run reports; harness::Run (run.hpp) fills
// them when the run finishes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/hub.hpp"

namespace dynaq::harness {

struct RunResult {
  std::uint64_t events = 0;
  telemetry::TelemetrySummary telemetry;
  std::vector<telemetry::Event> telemetry_events;  // tail of the event ring
  std::vector<std::string> telemetry_ports;        // observation-point names
  std::uint64_t trajectory_hash = 0;   // check::TrajectoryHash (DESIGN.md §10)
  std::uint64_t scenario_actions = 0;  // timeline mutations applied (DESIGN.md §11)
};

}  // namespace dynaq::harness
