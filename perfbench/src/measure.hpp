// The two kinds of benchmark run. An untraced run repeats one figure point
// for the measurement window and reports the end-to-end metrics; a traced
// run adds calls under the recording decorator and the replays, and
// reports the per-layer metrics. Both check every run's outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "options.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;  // harness calls made, setup-only calls included
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // one line per failed check
  std::vector<std::string> notes;     // context lines printed before the metrics
  std::vector<Metric> metrics;
};

RunReport run_untraced(const Options& options, TraceLog& log);
RunReport run_traced(const Options& options, TraceLog& log);

}  // namespace perfbench
