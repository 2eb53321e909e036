// Typed view over the repo's machine-readable artifact (DESIGN.md §13):
// sweep results JSON (schema_version >= 2, DESIGN.md §7). The loader
// copies what the report needs out of the parsed json::Value so documents
// can be dropped after loading; unknown fields are ignored
// (forward-compatible), missing optional fields default.
#pragma once

#include <cstdint>
#include <map>
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

}  // namespace dynaq::report
