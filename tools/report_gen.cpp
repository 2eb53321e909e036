// report_gen — render the paper-fidelity report and enforce the regression
// gate (DESIGN.md §13).
//
//   report_gen [--results DIR] [--sweep FILE]... [--out FILE] [--gate] [--quiet]
//
//   --results DIR  scan DIR/json/*.json for sweep documents and default
//                  --out to DIR/REPORT.md
//   --sweep FILE   add one sweep results JSON explicitly (repeatable;
//                  e.g. the repo-root BENCH_sweep.json smoke snapshot)
//   --out FILE     where to write the markdown report
//                  (default results/REPORT.md)
//   --gate         exit 1 when any expectation fails
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
  std::string out;
  bool gate = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--results DIR] [--sweep FILE]... [--out FILE] [--gate] [--quiet]\n",
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

  // ---- evaluate + render ----------------------------------------------
  inputs.outcomes = report::evaluate(report::default_catalogue(), inputs.sweeps);

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
  }

  if (opt.gate) {
    if (inputs.sweeps.empty()) {
      std::fprintf(stderr, "report_gen: --gate needs at least one sweep document\n");
      return 2;
    }
    if (report::gate_failed(inputs)) return 1;
  }
  return 0;
}
