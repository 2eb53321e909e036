#include "report/markdown.hpp"

#include <cstdio>

namespace dynaq::report {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

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
      "artifacts only — sweep results JSON (DESIGN.md §7), `BENCH_core.json`\n"
      "(§9) and `BENCH_history.jsonl`. Regenerate with\n"
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

  // ---- bench trajectory ------------------------------------------------
  if (!in.history.empty() || in.bench_core != nullptr) {
    md += "## Bench trajectory (DESIGN.md §9, `BENCH_history.jsonl`)\n\n";
  }
  if (!in.history.empty()) {
    // Column set = workloads of the newest row, so dropped/renamed
    // workloads render as — in older rows rather than shifting columns.
    const HistoryRow& latest = in.history.back();
    md += "| rev | seq |";
    for (const BenchWorkload& w : latest.core) md += " " + w.name + " ns/ev |";
    md += " heap fallbacks | smoke-sweep wall ms |\n|---|---|";
    for (std::size_t i = 0; i < latest.core.size(); ++i) md += "---|";
    md += "---|---|\n";
    for (const HistoryRow& row : in.history) {
      md += "| `" + row.rev + "` | " + std::to_string(row.seq) + " |";
      std::int64_t fallbacks = 0;
      for (const BenchWorkload& col : latest.core) {
        const BenchWorkload* found = nullptr;
        for (const BenchWorkload& w : row.core) {
          if (w.name == col.name) {
            found = &w;
            break;
          }
        }
        md += found != nullptr ? " " + fmt(found->ns_per_event) + " |" : " — |";
      }
      for (const BenchWorkload& w : row.core) fallbacks += w.heap_fallbacks;
      md += " " + std::to_string(fallbacks) + " |";
      md += row.sweep ? " " + fmt(row.sweep->total_wall_ms) + " |\n" : " — |\n";
    }
    md += "\n";
  }
  if (in.bench_core != nullptr) {
    md += "Current `" + in.bench_core->path + "` snapshot (best of " +
          std::to_string(in.bench_core->reps) + " reps):\n\n";
    md += "| workload | ns/event | budget | baseline | heap fallbacks |\n";
    md += "|---|---|---|---|---|\n";
    for (const BenchWorkload& w : in.bench_core->workloads) {
      md += "| " + w.name + " | " + fmt(w.ns_per_event) + " | " +
            (w.budget_ns_per_event ? fmt(*w.budget_ns_per_event) : std::string("—")) + " | " +
            (w.baseline_ns_per_event ? fmt(*w.baseline_ns_per_event) : std::string("—")) + " | " +
            std::to_string(w.heap_fallbacks) + " |\n";
    }
    md += "\n";
  }
  if (!in.bench_findings.empty()) {
    md += "Bench regressions:\n\n";
    for (const std::string& finding : in.bench_findings) md += "* ❌ " + finding + "\n";
    md += "\n";
  }

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
  if (in.bench_core != nullptr) {
    md += "* `" + in.bench_core->path + "` — schema `" + in.bench_core->schema + "`, " +
          std::to_string(in.bench_core->workloads.size()) + " workloads\n";
  }
  if (!in.history.empty()) {
    md += "* bench history — " + std::to_string(in.history.size()) + " row" +
          (in.history.size() == 1 ? "" : "s") + ", newest rev `" + in.history.back().rev +
          "`\n";
  }
  return md;
}

bool gate_failed(const ReportInputs& in) {
  for (const Outcome& o : in.outcomes) {
    if (o.status == Status::kFail) return true;
  }
  return !in.bench_findings.empty();
}

}  // namespace dynaq::report
