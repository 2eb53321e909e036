#include "report/artifacts.hpp"

#include <stdexcept>

namespace dynaq::report {
namespace {

SweepJob load_job(const json::Value& j) {
  SweepJob job;
  job.id = j.integer_or("id", 0);
  if (const json::Value* point = j.find("point"); point != nullptr && point->is_object()) {
    for (const auto& [axis, value] : point->as_object()) {
      if (value.is_string()) {
        job.labels[axis] = value.as_string();
      } else if (value.is_number()) {
        job.numbers[axis] = value.as_number();
      }
    }
  }
  job.ok = j.bool_or("ok", false);
  job.error = j.string_or("error", "");
  if (const json::Value* metrics = j.find("metrics"); metrics != nullptr && metrics->is_object()) {
    for (const auto& [name, value] : metrics->as_object()) {
      if (value.is_number()) job.metrics[name] = value.as_number();
    }
  }
  job.trajectory_hash = j.string_or("trajectory_hash", "");
  return job;
}

}  // namespace

std::vector<std::string> SweepDoc::label_values(const std::string& axis) const {
  std::vector<std::string> out;
  for (const SweepJob& job : jobs) {
    const auto it = job.labels.find(axis);
    if (it == job.labels.end()) continue;
    bool seen = false;
    for (const std::string& v : out) {
      if (v == it->second) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(it->second);
  }
  return out;
}

bool looks_like_sweep_doc(const json::Value& root) {
  if (!root.is_object()) return false;
  const json::Value* version = root.find("schema_version");
  const json::Value* sweep = root.find("sweep");
  const json::Value* jobs = root.find("jobs");
  return version != nullptr && version->is_number() && sweep != nullptr && sweep->is_string() &&
         jobs != nullptr && jobs->is_array();
}

SweepDoc load_sweep_doc(const json::Value& root, std::string path) {
  if (!looks_like_sweep_doc(root)) {
    throw std::runtime_error(path + ": not a sweep results document (schema_version/sweep/jobs)");
  }
  SweepDoc doc;
  doc.path = std::move(path);
  doc.schema_version = root.integer_or("schema_version", 0);
  doc.sweep = root.string_or("sweep", "");
  for (const json::Value& j : root.find("jobs")->as_array()) doc.jobs.push_back(load_job(j));
  doc.failures = root.integer_or("failures", 0);
  if (const json::Value* perf = root.find("perf"); perf != nullptr && perf->is_object()) {
    doc.total_wall_ms = perf->number_or("total_wall_ms", 0.0);
    doc.perf_jobs = perf->integer_or("jobs", 0);
  }
  return doc;
}

bool looks_like_bench_core_doc(const json::Value& root) {
  if (!root.is_object()) return false;
  const json::Value* schema = root.find("schema");
  const json::Value* workloads = root.find("workloads");
  return schema != nullptr && schema->is_string() &&
         schema->as_string().rfind("dynaq-bench-core-", 0) == 0 && workloads != nullptr &&
         workloads->is_object();
}

BenchCoreDoc load_bench_core_doc(const json::Value& root, std::string path) {
  if (!looks_like_bench_core_doc(root)) {
    throw std::runtime_error(path + ": not a BENCH_core.json document (dynaq-bench-core-*)");
  }
  BenchCoreDoc doc;
  doc.path = std::move(path);
  doc.schema = root.string_or("schema", "");
  doc.events_per_pass = root.integer_or("events_per_pass", 0);
  doc.reps = root.integer_or("reps", 0);
  for (const auto& [name, w] : root.find("workloads")->as_object()) {
    if (!w.is_object()) continue;
    BenchWorkload workload;
    workload.name = name;
    workload.ns_per_event = w.number_or("ns_per_event", 0.0);
    workload.events_per_sec = w.number_or("events_per_sec", 0.0);
    workload.heap_fallbacks = w.integer_or("heap_fallbacks", 0);
    if (const json::Value* budget = w.find("budget_ns_per_event");
        budget != nullptr && budget->is_number()) {
      workload.budget_ns_per_event = budget->as_number();
    }
    if (const json::Value* baseline = w.find("baseline_ns_per_event");
        baseline != nullptr && baseline->is_number()) {
      workload.baseline_ns_per_event = baseline->as_number();
    }
    doc.workloads.push_back(std::move(workload));
  }
  return doc;
}

}  // namespace dynaq::report
