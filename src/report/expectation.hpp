// Executable result expectations (DESIGN.md §13): the paper's result
// *shapes* from DESIGN.md §5 coded as a declarative catalogue and evaluated
// against sweep results JSON — never against simulator internals. Each
// Expectation is one assertion with a stable id (cross-referenced from
// DESIGN.md §5); the evaluator turns it into Pass / Fail / Skip, where Skip
// means the inputs to judge it were not among the loaded documents (e.g.
// the CI smoke sweep carries only fig08 with two schemes).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "report/artifacts.hpp"

namespace dynaq::report {

enum class ExpectationKind {
  // mean(metric | scheme_a) / mean(metric | scheme_b) within [lo, hi] at
  // every grid point the two schemes share (seed replicas averaged first).
  kSchemeRatio,
  // mean(metric | scheme_a) within [lo, hi] at every grid point
  // (scheme_a empty = every scheme).
  kMetricBound,
  // mean(metric) / mean(metric_b) within [lo, hi] per scheme and grid point
  // — relates two metrics of the *same* run (e.g. recovered vs pre-fault
  // throughput).
  kMetricPairRatio,
  // The sweep ran clean: failures == 0 and every job ok. A job killed by a
  // check::AuditError (invariant-audit violation, DESIGN.md §6) surfaces
  // here as a failed job, so this is the executable form of "zero audit
  // violations". sweep empty = every loaded document.
  kJobHealth,
};

struct Expectation {
  std::string id;      // stable, dot-separated: "fig08.small_p99_beats_besteffort"
  std::string figure;  // "Fig. 8", "§12", ... — groups the report table
  std::string claim;   // the DESIGN.md §5 prose this executes
  ExpectationKind kind = ExpectationKind::kJobHealth;
  std::string sweep;               // sweep name to match; "" = every document
  std::string metric;              // primary metric (numerator)
  std::string metric_b;            // kMetricPairRatio denominator
  std::string scheme_a;            // subject scheme; "" = every scheme
  std::vector<std::string> scheme_b;  // baselines (kSchemeRatio)
  double lo = 0.0;
  double hi = 0.0;
  bool unbounded_above = false;  // ignore hi
  double min_load = 0.0;         // skip grid points whose "load" coord is below this
};

enum class Status { kPass, kFail, kSkip };

struct Outcome {
  std::string id;
  std::string figure;
  std::string claim;
  Status status = Status::kSkip;
  std::string measured;  // one-line summary of the values judged
  std::string detail;    // failure specifics / skip reason
};

// The shipped catalogue: DESIGN.md §5's prose expectations, executable.
// Ids are stable; DESIGN.md §5 cross-references them.
std::vector<Expectation> default_catalogue();

// Evaluate every expectation against the loaded sweep documents.
// Deterministic: outcome order == catalogue order.
std::vector<Outcome> evaluate(const std::vector<Expectation>& catalogue,
                              const std::vector<SweepDoc>& sweeps);

std::string_view status_name(Status s);

}  // namespace dynaq::report
