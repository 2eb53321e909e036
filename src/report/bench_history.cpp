#include "report/bench_history.hpp"

#include "json/json.hpp"

namespace dynaq::report {

HistoryRow make_history_row(const std::string& rev, const BenchCoreDoc* core,
                            const SweepDoc* sweep) {
  HistoryRow row;
  row.rev = rev;
  if (core != nullptr) row.core = core->workloads;
  if (sweep != nullptr) {
    HistoryRow::SweepPerf perf;
    perf.sweep = sweep->sweep;
    perf.jobs = static_cast<std::int64_t>(sweep->jobs.size());
    perf.failures = sweep->failures;
    perf.total_wall_ms = sweep->total_wall_ms;
    row.sweep = perf;
  }
  return row;
}

std::vector<HistoryRow> parse_history(std::string_view jsonl) {
  std::vector<HistoryRow> rows;
  const json::Value docs = json::parse_lines(jsonl);
  for (const json::Value& doc : docs.as_array()) {
    HistoryRow row;
    row.schema = doc.string_or("schema", "");
    row.rev = doc.string_or("rev", "unknown");
    row.seq = doc.integer_or("seq", static_cast<std::int64_t>(rows.size()) + 1);
    if (const json::Value* core = doc.find("core"); core != nullptr && core->is_object()) {
      for (const auto& [name, w] : core->as_object()) {
        if (!w.is_object()) continue;
        BenchWorkload workload;
        workload.name = name;
        workload.ns_per_event = w.number_or("ns_per_event", 0.0);
        workload.heap_fallbacks = w.integer_or("heap_fallbacks", 0);
        if (const json::Value* budget = w.find("budget_ns_per_event");
            budget != nullptr && budget->is_number()) {
          workload.budget_ns_per_event = budget->as_number();
        }
        row.core.push_back(std::move(workload));
      }
    }
    if (const json::Value* sweep = doc.find("sweep"); sweep != nullptr && sweep->is_object()) {
      HistoryRow::SweepPerf perf;
      perf.sweep = sweep->string_or("name", "");
      perf.jobs = sweep->integer_or("jobs", 0);
      perf.failures = sweep->integer_or("failures", 0);
      perf.total_wall_ms = sweep->number_or("total_wall_ms", 0.0);
      row.sweep = perf;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_history_row(const HistoryRow& row) {
  json::Value out;
  out.set("schema", row.schema).set("rev", row.rev).set("seq", row.seq);
  if (!row.core.empty()) {
    json::Value core;
    for (const BenchWorkload& w : row.core) {
      json::Value workload;
      workload.set("ns_per_event", w.ns_per_event).set("heap_fallbacks", w.heap_fallbacks);
      if (w.budget_ns_per_event) workload.set("budget_ns_per_event", *w.budget_ns_per_event);
      core.set(w.name, std::move(workload));
    }
    out.set("core", std::move(core));
  }
  if (row.sweep) {
    out.set("sweep", json::Value()
                         .set("name", row.sweep->sweep)
                         .set("jobs", row.sweep->jobs)
                         .set("failures", row.sweep->failures)
                         .set("total_wall_ms", row.sweep->total_wall_ms));
  }
  return out.dump();
}

std::string append_history(const std::string& existing_jsonl, HistoryRow row) {
  std::vector<HistoryRow> rows = parse_history(existing_jsonl);
  if (!rows.empty() && rows.back().rev == row.rev) {
    row.seq = rows.back().seq;
    rows.back() = std::move(row);
  } else {
    row.seq = rows.empty() ? 1 : rows.back().seq + 1;
    rows.push_back(std::move(row));
  }
  std::string out;
  for (const HistoryRow& r : rows) {
    out += render_history_row(r);
    out += '\n';
  }
  return out;
}

std::vector<std::string> history_regressions(const std::vector<HistoryRow>& rows) {
  std::vector<std::string> findings;
  if (rows.empty()) return findings;
  const HistoryRow& latest = rows.back();
  for (const BenchWorkload& w : latest.core) {
    if (w.heap_fallbacks != 0) {
      findings.push_back("bench.heap_fallbacks: " + w.name + " recorded " +
                         std::to_string(w.heap_fallbacks) +
                         " heap fallbacks (hard gate: the event hot path must not allocate)");
    }
    if (w.budget_ns_per_event && w.ns_per_event > *w.budget_ns_per_event) {
      findings.push_back("bench.ns_budget: " + w.name + " at " +
                         json::format_number(w.ns_per_event) +
                         " ns/event exceeds its soft budget of " +
                         json::format_number(*w.budget_ns_per_event));
    }
  }
  if (latest.sweep && latest.sweep->failures != 0) {
    findings.push_back("bench.sweep_failures: " + latest.sweep->sweep + " recorded " +
                       std::to_string(latest.sweep->failures) + " failed jobs");
  }
  return findings;
}

}  // namespace dynaq::report
