// Strict command-line parsing for the benchmark binary. Unlike
// harness::Cli, a malformed or out-of-range value is an error naming the
// flag: a typo must never benchmark seed 0 without saying so.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

struct Options {
  WorkloadKind workload = WorkloadKind::kStarWebsearch;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // measurement window of one run
  bool trace = false;      // per-layer (traced) run instead of end-to-end
  std::string trace_out;   // where the traced run writes spans and counts
  std::string rev = "unknown";  // source revision, recorded in the fingerprint
};

struct ParsedOptions {
  std::optional<Options> options;  // set on success
  std::string error;               // set on failure; starts with the flag name
};

// Accepts --name=value and --name value. Flags: --workload (required),
// --seed (non-negative integer), --seconds (positive number), --trace (0 or
// 1), --trace-out, --rev.
ParsedOptions parse_options(std::span<const std::string_view> args);

}  // namespace perfbench
