// Shared --list-scenarios handling for the scenario-aware
// bench binaries: prints the scenario::scenario_names() catalogue with the
// one-line descriptions so users can discover timelines without reading
// DESIGN.md §11. Call right after constructing the Cli; a true return means
// the catalogue was printed and the binary should exit 0.
#pragma once

#include <cstdio>
#include <string>

#include "harness/cli.hpp"
#include "scenario/scenario.hpp"

namespace dynaq::harness {

inline bool list_scenarios_requested(const Cli& cli) {
  if (!cli.flag("list-scenarios")) return false;
  std::puts("Scenario catalogue (DESIGN.md §11) — pick one with --scenario=<name>:");
  for (const std::string& name : scenario::scenario_names()) {
    const auto desc = scenario::scenario_description(name);
    std::printf("  %-15s %.*s\n", name.c_str(), static_cast<int>(desc.size()), desc.data());
  }
  return true;
}

}  // namespace dynaq::harness
