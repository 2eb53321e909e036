// Typed views over the repo's machine-readable artifacts (DESIGN.md §13):
// sweep results JSON (schema_version >= 2, DESIGN.md §7) and the
// BENCH_core.json event-engine snapshot (DESIGN.md §9). Loaders copy what
// the report needs out of the parsed json::Value so documents can be
// dropped after loading; unknown fields are ignored (forward-compatible),
// missing optional fields default.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace dynaq::report {

// One job of a sweep document. Grid-point coordinates are split by JSON
// type: labels (e.g. scheme) vs numbers (e.g. load, seed).
struct SweepJob {
  std::int64_t id = 0;
  std::map<std::string, std::string> labels;
  std::map<std::string, double> numbers;
  bool ok = false;
  std::string error;
  std::map<std::string, double> metrics;
  std::string trajectory_hash;
};

struct SweepDoc {
  std::string path;  // provenance, shown in the report's inputs section
  std::int64_t schema_version = 0;
  std::string sweep;
  std::vector<SweepJob> jobs;
  std::int64_t failures = 0;
  // Run-wide perf block (absent under JsonOptions{.include_perf=false}).
  double total_wall_ms = 0.0;
  std::int64_t perf_jobs = 0;

  // Distinct values of a label coordinate, in first-seen job order.
  std::vector<std::string> label_values(const std::string& axis) const;
};

// True when the document has the sweep-results shape (schema_version +
// sweep + jobs) — used to skip events.jsonl and foreign JSON when scanning
// a results directory.
bool looks_like_sweep_doc(const json::Value& root);

// Throws std::runtime_error (with the path) on a structurally unusable
// document; tolerates missing optional blocks.
SweepDoc load_sweep_doc(const json::Value& root, std::string path);

// One workload row of BENCH_core.json (schema dynaq-bench-core-v1).
struct BenchWorkload {
  std::string name;
  double ns_per_event = 0.0;
  double events_per_sec = 0.0;
  std::int64_t heap_fallbacks = 0;
  std::optional<double> budget_ns_per_event;
  std::optional<double> baseline_ns_per_event;
};

struct BenchCoreDoc {
  std::string path;
  std::string schema;
  std::int64_t events_per_pass = 0;
  std::int64_t reps = 0;
  std::vector<BenchWorkload> workloads;  // JSON object order
};

bool looks_like_bench_core_doc(const json::Value& root);
BenchCoreDoc load_bench_core_doc(const json::Value& root, std::string path);

}  // namespace dynaq::report
