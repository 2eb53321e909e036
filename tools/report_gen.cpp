// report_gen — render the paper-fidelity report and enforce the regression
// gate (DESIGN.md §13).
//
//   report_gen [--results DIR] [--sweep FILE]... [--bench-core FILE]
//              [--history FILE --rev REV] [--out FILE] [--gate] [--quiet]
//
//   --results DIR      scan DIR/json/*.json for sweep documents and default
//                      --out to DIR/REPORT.md
//   --sweep FILE       add one sweep results JSON explicitly (repeatable;
//                      e.g. the repo-root BENCH_sweep.json smoke snapshot)
//   --bench-core FILE  BENCH_core.json event-engine snapshot (default:
//                      ./BENCH_core.json when present)
//   --history FILE     BENCH_history.jsonl ledger: append/refresh this
//                      run's row (requires --rev) and render the trend
//   --rev REV          git revision recorded in the history row
//   --out FILE         where to write the markdown report
//                      (default results/REPORT.md)
//   --gate             exit 1 when any expectation fails or the bench
//                      comparator finds a regression
//
// The tool links only dynaq_report: it reads serialized artifacts, never a
// simulator (check_conventions.sh rule 13).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "report/artifacts.hpp"
#include "report/bench_history.hpp"
#include "report/expectation.hpp"
#include "report/markdown.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dynaq;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  const fs::path parent = fs::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) fs::create_directories(parent, ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return bool(out);
}

struct Options {
  std::string results;
  std::vector<std::string> sweeps;
  std::string bench_core;
  std::string history;
  std::string rev = "unknown";
  std::string out;
  bool gate = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--results DIR] [--sweep FILE]... [--bench-core FILE]\n"
               "          [--history FILE --rev REV] [--out FILE] [--gate] [--quiet]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--gate") {
      opt->gate = true;
    } else if (arg == "--quiet") {
      opt->quiet = true;
    } else if (arg == "--results") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->results = v;
    } else if (arg == "--sweep") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->sweeps.push_back(v);
    } else if (arg == "--bench-core") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->bench_core = v;
    } else if (arg == "--history") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->history = v;
    } else if (arg == "--rev") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->rev = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->out = v;
    } else {
      std::fprintf(stderr, "report_gen: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage(argv[0]);
  if (opt.out.empty()) {
    opt.out = (opt.results.empty() ? std::string("results") : opt.results) + "/REPORT.md";
  }

  report::ReportInputs inputs;

  // ---- sweep documents: explicit files + results/json scan ------------
  std::vector<std::string> sweep_paths = opt.sweeps;
  if (!opt.results.empty()) {
    const fs::path json_dir = fs::path(opt.results) / "json";
    std::error_code ec;
    std::vector<std::string> scanned;
    for (const auto& entry : fs::directory_iterator(json_dir, ec)) {
      if (entry.path().extension() == ".json") scanned.push_back(entry.path().string());
    }
    std::sort(scanned.begin(), scanned.end());  // directory order is not deterministic
    sweep_paths.insert(sweep_paths.end(), scanned.begin(), scanned.end());
  }
  for (const std::string& path : sweep_paths) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "report_gen: cannot read %s\n", path.c_str());
      return 2;
    }
    try {
      const json::Value doc = json::parse(text);
      if (!report::looks_like_sweep_doc(doc)) {
        if (!opt.quiet) {
          std::fprintf(stderr, "report_gen: %s is not a sweep document, skipping\n",
                       path.c_str());
        }
        continue;
      }
      inputs.sweeps.push_back(report::load_sweep_doc(doc, path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "report_gen: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
  }

  // ---- BENCH_core.json -------------------------------------------------
  report::BenchCoreDoc bench_core;
  bool have_core = false;
  std::string core_path = opt.bench_core;
  if (core_path.empty() && fs::exists("BENCH_core.json")) core_path = "BENCH_core.json";
  if (!core_path.empty()) {
    std::string text;
    if (!read_file(core_path, &text)) {
      std::fprintf(stderr, "report_gen: cannot read %s\n", core_path.c_str());
      return 2;
    }
    try {
      bench_core = report::load_bench_core_doc(json::parse(text), core_path);
      have_core = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "report_gen: %s: %s\n", core_path.c_str(), e.what());
      return 2;
    }
  }
  if (have_core) inputs.bench_core = &bench_core;

  // ---- history ledger --------------------------------------------------
  bool have_ledger_baseline = false;  // prior rows existed to compare against
  if (!opt.history.empty()) {
    std::string existing;
    read_file(opt.history, &existing);  // absent file = empty ledger
    have_ledger_baseline = !existing.empty();
    // The smoke-sweep perf row prefers the doc named like the CI snapshot;
    // otherwise the first loaded sweep carries the wall-clock trend.
    const report::SweepDoc* perf_doc = nullptr;
    for (const report::SweepDoc& doc : inputs.sweeps) {
      if (perf_doc == nullptr || doc.path.find("BENCH_sweep") != std::string::npos) {
        perf_doc = &doc;
      }
    }
    try {
      const std::string updated = report::append_history(
          existing,
          report::make_history_row(opt.rev, have_core ? &bench_core : nullptr, perf_doc));
      if (!write_file(opt.history, updated)) {
        std::fprintf(stderr, "report_gen: cannot write %s\n", opt.history.c_str());
        return 2;
      }
      inputs.history = report::parse_history(updated);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "report_gen: %s: %s\n", opt.history.c_str(), e.what());
      return 2;
    }
  }

  // ---- evaluate + render ----------------------------------------------
  inputs.outcomes = report::evaluate(report::default_catalogue(), inputs.sweeps);
  inputs.bench_findings = report::history_regressions(inputs.history);

  const std::string md = report::render_markdown_report(inputs);
  if (!write_file(opt.out, md)) {
    std::fprintf(stderr, "report_gen: cannot write %s\n", opt.out.c_str());
    return 2;
  }

  std::int64_t pass = 0;
  std::int64_t fail = 0;
  std::int64_t skip = 0;
  for (const report::Outcome& o : inputs.outcomes) {
    if (o.status == report::Status::kPass) ++pass;
    if (o.status == report::Status::kFail) ++fail;
    if (o.status == report::Status::kSkip) ++skip;
  }
  if (!opt.quiet) {
    std::printf("report_gen: %lld pass / %lld fail / %lld skipped -> %s\n",
                static_cast<long long>(pass), static_cast<long long>(fail),
                static_cast<long long>(skip), opt.out.c_str());
    for (const report::Outcome& o : inputs.outcomes) {
      if (o.status != report::Status::kFail) continue;
      std::printf("report_gen: FAILED expectation %s: %s\n", o.id.c_str(), o.detail.c_str());
    }
    for (const std::string& finding : inputs.bench_findings) {
      std::printf("report_gen: BENCH REGRESSION: %s\n", finding.c_str());
    }
  }

  if (opt.gate) {
    if (inputs.sweeps.empty()) {
      std::fprintf(stderr, "report_gen: --gate needs at least one sweep document\n");
      return 2;
    }
    // A gate without a populated ledger still judges expectations, but the
    // bench comparator has no baseline — say so instead of passing silently.
    if (!have_ledger_baseline) {
      if (opt.history.empty()) {
        std::fprintf(stderr, "report_gen: warning: no ledger (--history not given) — "
                             "bench regression check skipped\n");
      } else {
        std::fprintf(stderr,
                     "report_gen: warning: %s missing or empty — no ledger, bench "
                     "regression check skipped\n",
                     opt.history.c_str());
      }
    }
    if (report::gate_failed(inputs)) return 1;
  }
  return 0;
}
