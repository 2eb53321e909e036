#include "report/markdown.hpp"

namespace dynaq::report {
namespace {

// Markdown table cells: keep '|' out of free-text fields.
std::string cell(std::string s) {
  for (char& c : s) {
    if (c == '|') c = '/';
  }
  return s;
}

std::string status_badge(Status s) {
  switch (s) {
    case Status::kPass: return "✅ pass";
    case Status::kFail: return "❌ **FAIL**";
    case Status::kSkip: return "⏭ skip";
  }
  return "?";
}

}  // namespace

std::string render_markdown_report(const ReportInputs& in) {
  std::string md;
  md += "# DynaQ paper-fidelity report\n\n";
  md +=
      "Generated by `report_gen` (DESIGN.md §13) from machine-readable run\n"
      "artifacts only — sweep results JSON (DESIGN.md §7). Regenerate with\n"
      "`bench/run_all.sh build results` (full catalogue) or\n"
      "`./ci.sh` (smoke subset, gated).\n\n";

  // ---- expectation table ----------------------------------------------
  std::int64_t pass = 0;
  std::int64_t failed = 0;
  std::int64_t skip = 0;
  for (const Outcome& o : in.outcomes) {
    if (o.status == Status::kPass) ++pass;
    if (o.status == Status::kFail) ++failed;
    if (o.status == Status::kSkip) ++skip;
  }
  md += "## Result expectations (DESIGN.md §5)\n\n";
  md += "**" + std::to_string(pass) + " pass / " + std::to_string(failed) + " fail / " +
        std::to_string(skip) + " skipped** (skipped = the sweep that judges it was not "
        "among the inputs).\n\n";
  md += "| id | figure | expectation | measured | status |\n";
  md += "|---|---|---|---|---|\n";
  for (const Outcome& o : in.outcomes) {
    md += "| `" + o.id + "` | " + cell(o.figure) + " | " + cell(o.claim) + " | " +
          cell(o.measured.empty() ? "—" : o.measured) + " | " + status_badge(o.status) + " |\n";
  }
  bool any_detail = false;
  for (const Outcome& o : in.outcomes) {
    if (o.status != Status::kFail || o.detail.empty()) continue;
    if (!any_detail) {
      md += "\nFailure details:\n\n";
      any_detail = true;
    }
    md += "* `" + o.id + "` — " + o.detail + "\n";
  }
  md += "\n";

  // ---- inputs ----------------------------------------------------------
  md += "## Inputs\n\n";
  if (in.sweeps.empty()) {
    md += "* no sweep documents loaded\n";
  }
  for (const SweepDoc& doc : in.sweeps) {
    md += "* `" + doc.path + "` — sweep `" + doc.sweep + "`, schema_version " +
          std::to_string(doc.schema_version) + ", " + std::to_string(doc.jobs.size()) +
          " jobs, " + std::to_string(doc.failures) + " failures\n";
  }
  return md;
}

bool gate_failed(const ReportInputs& in) {
  for (const Outcome& o : in.outcomes) {
    if (o.status == Status::kFail) return true;
  }
  return false;
}

}  // namespace dynaq::report
