// Sweep results: per-job records (metrics, telemetry, hash or error)
// stored in job-id order, seed-replica aggregation (mean/p50/p99 + 95%
// confidence interval per metric), and machine-readable emission as JSON
// (schema in DESIGN.md §7). The JSON is a pure function of the spec and
// the job results, so emitted bytes are identical for any worker count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep_spec.hpp"
#include "telemetry/summary.hpp"

namespace dynaq::sweep {

// What a job function hands back: scalar metrics, plus (optionally) the
// experiment's TelemetrySummary so the sweep JSON carries per-job drop
// reasons and queueing-delay percentiles, plus (optionally) the run's
// trajectory hash (DESIGN.md §10). Implicitly constructible from a bare
// metrics map so metrics-only job functions keep working unchanged.
struct JobResult {
  std::map<std::string, double> metrics;
  std::optional<telemetry::TelemetrySummary> telemetry;
  // The experiment's check::TrajectoryHash value; hashes cannot ride
  // `metrics` because JSON doubles lose u64 precision, so they are emitted
  // as "0x…" hex strings instead.
  std::optional<std::uint64_t> trajectory_hash;

  JobResult() = default;
  JobResult(std::map<std::string, double> m) : metrics(std::move(m)) {}
  JobResult(std::map<std::string, double> m, telemetry::TelemetrySummary t)
      : metrics(std::move(m)), telemetry(std::move(t)) {}
};

struct JobOutcome {
  JobPoint point;
  std::map<std::string, double> metrics;  // empty unless ok
  std::optional<telemetry::TelemetrySummary> telemetry;  // when the job returned one
  std::optional<std::uint64_t> trajectory_hash;  // when the job returned one
  bool ok = false;
  std::string error;  // what() of the captured exception, if any
};

// Distribution of one metric across seed replicas.
struct MetricAggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Half-width of the 95% CI of the mean (Student t); 0 when n < 2.
  double ci95_half = 0.0;
};

MetricAggregate aggregate_samples(std::vector<double> samples);

// One aggregate row: the grid point minus the "seed" axis, plus the
// per-metric distributions over the seed replicas that succeeded.
struct AggregateRow {
  std::vector<std::pair<std::string, AxisValue>> coords;
  std::size_t replicas = 0;  // successful jobs folded in
  std::map<std::string, MetricAggregate> metrics;
};

class ResultStore {
 public:
  ResultStore(std::string sweep_name, SweepSpec spec)
      : name_(std::move(sweep_name)), spec_(std::move(spec)) {}

  const std::string& name() const { return name_; }
  const SweepSpec& spec() const { return spec_; }

  // Outcomes arrive from the runner already indexed by job id.
  void set_outcomes(std::vector<JobOutcome> outcomes) { outcomes_ = std::move(outcomes); }
  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }
  const JobOutcome& outcome(std::size_t job_id) const { return outcomes_.at(job_id); }

  std::size_t failures() const;
  bool all_ok() const { return failures() == 0; }

  // Groups successful outcomes by every axis except "seed" (in job order)
  // and aggregates each metric. A spec without a seed axis yields one
  // single-replica row per job.
  std::vector<AggregateRow> aggregate() const;

  // Serialization. write_json returns false when the path cannot be
  // written; the caller reports it.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  std::string name_;
  SweepSpec spec_;
  std::vector<JobOutcome> outcomes_;
};

}  // namespace dynaq::sweep
