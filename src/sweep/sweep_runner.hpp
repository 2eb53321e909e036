// Worker-pool executor for SweepSpec grids. Each job runs the caller's
// JobFn at one grid point; the function must build everything the run
// needs (its own sim::Simulator, topology, flows) from the point alone, so
// jobs share no mutable state and results are bit-identical for any worker
// count. A throwing job (check::AuditError, any std::exception) is captured
// into its JobOutcome instead of killing the sweep. Since a job is a pure
// function of its point, a failure is final: rerunning it would throw again.
//
// This is the only directory in src/ that may spawn threads
// (tools/check_conventions.sh enforces it): simulators are single-threaded
// by design, and parallelism lives entirely at the whole-job granularity.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "sweep/result_store.hpp"
#include "sweep/sweep_spec.hpp"

namespace dynaq::sweep {

// A job maps its grid point to named scalar metrics ("avg_overall_ms",
// "jain_min", ...) plus an optional TelemetrySummary (JobResult converts
// implicitly from a bare metrics map). Metric names must not depend on the
// worker count; the ordered map keeps JSON emission deterministic.
using JobFn = std::function<JobResult(const JobPoint&)>;

struct RunnerOptions {
  int jobs = 0;  // workers; <= 0 means hardware_concurrency
};

class SweepRunner {
 public:
  explicit SweepRunner(RunnerOptions options = {}) : options_(options) {}

  // Runs every job in `spec` and returns the filled store. Never throws for
  // job failures — inspect ResultStore::failures().
  ResultStore run(std::string sweep_name, const SweepSpec& spec, const JobFn& fn) const;

  int effective_jobs() const;  // options_.jobs resolved against the hardware

 private:
  RunnerOptions options_;
};

}  // namespace dynaq::sweep
