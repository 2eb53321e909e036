// What a run reports besides its metrics: spans and counts recorded around
// the benchmark's calls into each layer (kept in memory, written once when
// the run ends), the host and build fingerprint, and the JSON formatting
// both share with the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Span {
  std::string name;
  double start_s = 0.0;  // since the log's epoch
  double end_s = -1.0;   // -1 while open
  int parent = -1;       // index into spans(), -1 for a root span
};

class TraceLog {
 public:
  // A log made with record = false keeps nothing. Untraced runs use one:
  // they make thousands of calls, and a span per call would grow the very
  // memory they report.
  explicit TraceLog(bool record = true) : record_(record), epoch_(Clock::now()) {}

  int begin(std::string name, int parent = -1);  // -1 when not recording
  void end(int span);
  void count(const std::string& name, double value) {
    if (record_) counts_[name] = value;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  bool record_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog& log, std::string name, int parent = -1)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  TraceLog& log_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Fingerprint {
  std::string cpu_model;
  long nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string sanitize;   // sanitizer list the binary was built with; empty = none
  std::string cxx_flags;  // optimisation flags of the build type
  std::string rev;        // source revision as given by the caller
  bool usable = false;    // false for Debug and sanitizer builds
};

// Rows from a Debug or sanitizer build measure the tooling, not the code.
bool usable_build(std::string_view build_type, std::string_view sanitize);
Fingerprint host_fingerprint(std::string rev);

// Shortest decimal that reads back as the same double (no digits dropped).
std::string json_number(double v);
std::string json_string(std::string_view s);
std::string to_json(const Fingerprint& f);
std::string metrics_json(const std::vector<Metric>& metrics);

// Writes {"fingerprint", "spans", "counts", "metrics"} to `path`; false if
// the file cannot be written.
bool write_trace(const std::string& path, const Fingerprint& fingerprint, const TraceLog& log,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench
