// Markdown fidelity report (DESIGN.md §13): renders the expectation
// outcomes and the input inventory into results/REPORT.md. Pure function
// of its inputs (no clocks, no environment) so golden-file tests can assert
// the exact bytes.
#pragma once

#include <string>
#include <vector>

#include "report/artifacts.hpp"
#include "report/expectation.hpp"

namespace dynaq::report {

struct ReportInputs {
  std::vector<SweepDoc> sweeps;
  std::vector<Outcome> outcomes;
};

std::string render_markdown_report(const ReportInputs& inputs);

// True when the gate must fail: any expectation failed.
bool gate_failed(const ReportInputs& inputs);

}  // namespace dynaq::report
