// perfbench: one benchmark run of one workload (README.md in this
// directory). Prints the host/build fingerprint, context lines, every
// metric as "name value unit", and last a one-line JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// bad command line.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "options.hpp"
#include "trace.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  const ParsedOptions parsed = parse_options(args);
  if (!parsed.options) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.error.c_str());
    return 2;
  }
  const Options& options = *parsed.options;
  const Fingerprint fingerprint = host_fingerprint(options.rev);
  std::printf("fingerprint %s\n", to_json(fingerprint).c_str());
  if (!fingerprint.usable) {
    std::fprintf(stderr, "perfbench: warning: %s build%s%s; results are marked unusable\n",
                 fingerprint.build_type.c_str(), fingerprint.sanitize.empty() ? "" : " with ",
                 fingerprint.sanitize.c_str());
  }

  TraceLog log(options.trace);
  RunReport report;
  try {
    report = options.trace ? run_traced(options, log) : run_untraced(options, log);
  } catch (const std::exception& e) {
    report.correct = false;
    report.problems.push_back(std::string("benchmark error: ") + e.what());
  }
  if (options.trace && !options.trace_out.empty() &&
      !write_trace(options.trace_out, fingerprint, log, report.metrics)) {
    report.problems.push_back("cannot write the trace to " + options.trace_out);
    report.correct = false;
  }

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics_json(report.metrics).c_str());
  return report.correct ? 0 : 1;
}
