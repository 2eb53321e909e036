// Tests for the fidelity-and-regression report subsystem (DESIGN.md §13).
// Everything here drives src/report through serialized artifacts — fixture
// JSON under tests/data/report plus in-memory documents — never a
// simulator, mirroring how report_gen consumes the build products.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "report/artifacts.hpp"
#include "report/expectation.hpp"
#include "report/markdown.hpp"

namespace json = dynaq::json;
namespace report = dynaq::report;

namespace {

std::string data_path(const std::string& name) {
  return std::string(REPORT_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

report::SweepDoc load_fixture(const std::string& name) {
  return report::load_sweep_doc(json::parse(read_file(data_path(name))), name);
}

const report::Outcome& outcome_of(const std::vector<report::Outcome>& outcomes,
                                  const std::string& id) {
  for (const report::Outcome& o : outcomes) {
    if (o.id == id) return o;
  }
  ADD_FAILURE() << "expectation id not in catalogue: " << id;
  static report::Outcome missing;
  return missing;
}

// A minimal in-memory sweep doc for targeted evaluator tests.
report::SweepDoc make_doc(const std::string& sweep) {
  report::SweepDoc doc;
  doc.path = sweep + ".json";
  doc.schema_version = 5;
  doc.sweep = sweep;
  return doc;
}

report::SweepJob make_job(std::int64_t id, const std::string& scheme, double seed,
                          std::map<std::string, double> metrics) {
  report::SweepJob job;
  job.id = id;
  job.labels["scheme"] = scheme;
  job.numbers["seed"] = seed;
  job.ok = true;
  job.metrics = std::move(metrics);
  return job;
}

// ----------------------------------------------------------- artifacts --

TEST(ReportArtifacts, LoadsSweepFixture) {
  const report::SweepDoc doc = load_fixture("passing_sweep.json");
  EXPECT_EQ(doc.schema_version, 5);
  EXPECT_EQ(doc.sweep, "fig08_fct_non_ecn");
  ASSERT_EQ(doc.jobs.size(), 6u);
  EXPECT_EQ(doc.failures, 0);
  const report::SweepJob& job = doc.jobs[0];
  EXPECT_EQ(job.labels.at("scheme"), "DynaQ");
  EXPECT_DOUBLE_EQ(job.numbers.at("load"), 0.5);
  EXPECT_DOUBLE_EQ(job.numbers.at("seed"), 1.0);
  EXPECT_TRUE(job.ok);
  EXPECT_DOUBLE_EQ(job.metrics.at("p99_small_ms"), 4.0);
  EXPECT_EQ(job.trajectory_hash, "0x1111111111111111");
  EXPECT_EQ(doc.label_values("scheme"),
            (std::vector<std::string>{"DynaQ", "BestEffort", "PQL"}));
}

TEST(ReportArtifacts, SweepDocDetectionRejectsForeignJson) {
  EXPECT_FALSE(report::looks_like_sweep_doc(json::parse(R"({"events":[]})")));
  EXPECT_FALSE(report::looks_like_sweep_doc(json::parse("[1,2,3]")));
  EXPECT_THROW(report::load_sweep_doc(json::parse("{}"), "x.json"), std::runtime_error);
}

// -------------------------------------------------------- expectations --

TEST(Expectations, CatalogueIdsAreUniqueAndStable) {
  const std::vector<report::Expectation> cat = report::default_catalogue();
  ASSERT_EQ(cat.size(), 17u);
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_FALSE(cat[i].id.empty());
    EXPECT_FALSE(cat[i].claim.empty());
    for (std::size_t j = i + 1; j < cat.size(); ++j) {
      EXPECT_NE(cat[i].id, cat[j].id);
    }
  }
}

TEST(Expectations, PassingFixturePassesEveryApplicableExpectation) {
  const std::vector<report::SweepDoc> sweeps = {load_fixture("passing_sweep.json")};
  const auto outcomes = report::evaluate(report::default_catalogue(), sweeps);
  for (const report::Outcome& o : outcomes) {
    EXPECT_NE(o.status, report::Status::kFail) << o.id << ": " << o.detail;
  }
  EXPECT_EQ(outcome_of(outcomes, "fidelity.audit_clean").status, report::Status::kPass);
  EXPECT_EQ(outcome_of(outcomes, "fig08.overall_ties_besteffort").status,
            report::Status::kPass);
  EXPECT_EQ(outcome_of(outcomes, "fig08.small_p99_beats_besteffort").status,
            report::Status::kPass);
  EXPECT_EQ(outcome_of(outcomes, "fig08.large_beats_pql").status, report::Status::kPass);
  // Sweeps not among the inputs are skipped, not failed.
  EXPECT_EQ(outcome_of(outcomes, "fig12.dynaq_fair_share").status, report::Status::kSkip);
  EXPECT_EQ(outcome_of(outcomes, "abl.dynaq_fct_vs_dt").status, report::Status::kSkip);
}

TEST(Expectations, ViolatingFixtureFailsTheNamedExpectationOnly) {
  const std::vector<report::SweepDoc> sweeps = {load_fixture("violating_sweep.json")};
  const auto outcomes = report::evaluate(report::default_catalogue(), sweeps);
  const report::Outcome& bad = outcome_of(outcomes, "fig08.small_p99_beats_besteffort");
  EXPECT_EQ(bad.status, report::Status::kFail);
  // 85/35 ≈ 2.43 > 1.0: the detail names the judged ratio and its bound.
  EXPECT_NE(bad.detail.find("p99_small_ms"), std::string::npos) << bad.detail;
  EXPECT_EQ(outcome_of(outcomes, "fig08.overall_ties_besteffort").status,
            report::Status::kPass);
  EXPECT_EQ(outcome_of(outcomes, "fidelity.audit_clean").status, report::Status::kPass);
}

TEST(Expectations, SchemeRatioAveragesSeedReplicasFirst) {
  report::SweepDoc doc = make_doc("fig08_fct_non_ecn");
  // Per-seed ratios straddle 1.0 (2.0 and 0.1); the seed-replica means
  // (1.5 vs 2.55) do not. The evaluator must judge means, not per-seed.
  doc.jobs = {make_job(0, "DynaQ", 1, {{"p99_small_ms", 2.0}}),
              make_job(1, "DynaQ", 2, {{"p99_small_ms", 1.0}}),
              make_job(2, "BestEffort", 1, {{"p99_small_ms", 1.0}}),
              make_job(3, "BestEffort", 2, {{"p99_small_ms", 4.1}})};
  report::Expectation e;
  e.id = "test.ratio";
  e.kind = report::ExpectationKind::kSchemeRatio;
  e.sweep = "fig08_fct_non_ecn";
  e.metric = "p99_small_ms";
  e.scheme_a = "DynaQ";
  e.scheme_b = {"BestEffort"};
  e.lo = 0.0;
  e.hi = 1.0;
  const auto outcomes = report::evaluate({e}, {doc});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, report::Status::kPass) << outcomes[0].detail;
}

TEST(Expectations, MinLoadGatesLowLoadPoints) {
  report::SweepDoc doc = make_doc("fig08_fct_non_ecn");
  report::SweepJob low = make_job(0, "DynaQ", 1, {{"p99_small_ms", 9.0}});
  low.numbers["load"] = 0.2;  // violating value, but below min_load
  report::SweepJob low_base = make_job(1, "BestEffort", 1, {{"p99_small_ms", 1.0}});
  low_base.numbers["load"] = 0.2;
  doc.jobs = {low, low_base};
  report::Expectation e;
  e.id = "test.min_load";
  e.kind = report::ExpectationKind::kSchemeRatio;
  e.sweep = "fig08_fct_non_ecn";
  e.metric = "p99_small_ms";
  e.scheme_a = "DynaQ";
  e.scheme_b = {"BestEffort"};
  e.hi = 1.0;
  e.min_load = 0.5;
  const auto outcomes = report::evaluate({e}, {doc});
  EXPECT_EQ(outcomes[0].status, report::Status::kSkip);
}

TEST(Expectations, JobHealthFailsOnFailedJobAndRecordedFailures) {
  report::SweepDoc doc = make_doc("anything");
  report::SweepJob dead = make_job(7, "DynaQ", 1, {});
  dead.ok = false;
  dead.error = "audit: threshold sum 9999 != buffer 12000";
  doc.jobs = {make_job(0, "DynaQ", 1, {{"x", 1.0}}), dead};
  doc.failures = 1;
  report::Expectation e;
  e.id = "test.health";
  e.kind = report::ExpectationKind::kJobHealth;
  const auto outcomes = report::evaluate({e}, {doc});
  EXPECT_EQ(outcomes[0].status, report::Status::kFail);
  EXPECT_NE(outcomes[0].detail.find("job 7"), std::string::npos) << outcomes[0].detail;
}

TEST(Expectations, MetricPairRatioRelatesTwoMetricsOfOneRun) {
  report::SweepDoc doc = make_doc("rob_link_flap");
  doc.jobs = {make_job(0, "DynaQ", 1, {{"recovered_gbps", 0.97}, {"pre_gbps", 1.0}}),
              make_job(1, "DT", 1, {{"recovered_gbps", 0.5}, {"pre_gbps", 1.0}})};
  report::Expectation e;
  e.id = "test.pair";
  e.kind = report::ExpectationKind::kMetricPairRatio;
  e.sweep = "rob_link_flap";
  e.metric = "recovered_gbps";
  e.metric_b = "pre_gbps";
  e.lo = 0.9;
  e.unbounded_above = true;
  const auto outcomes = report::evaluate({e}, {doc});
  EXPECT_EQ(outcomes[0].status, report::Status::kFail);  // DT recovered only 50%
  EXPECT_NE(outcomes[0].detail.find("DT"), std::string::npos) << outcomes[0].detail;
}

// ------------------------------------------------------------ markdown --

// Golden-file test: the renderer is a pure function of its inputs, so the
// exact bytes are asserted. Regenerate after an intentional format change:
//   REPORT_TEST_REGEN=1 build/tests/report_test --gtest_filter='Markdown.*'
TEST(Markdown, GoldenReport) {
  report::ReportInputs inputs;
  inputs.sweeps.push_back(load_fixture("passing_sweep.json"));
  inputs.outcomes = report::evaluate(report::default_catalogue(), inputs.sweeps);

  const std::string rendered = report::render_markdown_report(inputs);
  const std::string golden_path = data_path("golden_report.md");
  if (std::getenv("REPORT_TEST_REGEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    out << rendered;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  EXPECT_EQ(rendered, read_file(golden_path))
      << "renderer output changed; if intentional, regenerate with REPORT_TEST_REGEN=1";
}

TEST(Markdown, GateFailsOnFailedExpectation) {
  report::ReportInputs inputs;
  EXPECT_FALSE(report::gate_failed(inputs));
  report::Outcome o;
  o.status = report::Status::kSkip;
  inputs.outcomes.push_back(o);
  EXPECT_FALSE(report::gate_failed(inputs));
  inputs.outcomes[0].status = report::Status::kFail;
  EXPECT_TRUE(report::gate_failed(inputs));
  inputs.outcomes[0].status = report::Status::kPass;
  EXPECT_FALSE(report::gate_failed(inputs));
}

TEST(Markdown, RendersFailureBadgeAndDetails) {
  report::ReportInputs inputs;
  inputs.sweeps.push_back(load_fixture("violating_sweep.json"));
  inputs.outcomes = report::evaluate(report::default_catalogue(), inputs.sweeps);
  const std::string rendered = report::render_markdown_report(inputs);
  EXPECT_NE(rendered.find("❌ **FAIL**"), std::string::npos);
  EXPECT_NE(rendered.find("`fig08.small_p99_beats_besteffort`"), std::string::npos);
  EXPECT_NE(rendered.find("Failure details:"), std::string::npos);
}

}  // namespace
