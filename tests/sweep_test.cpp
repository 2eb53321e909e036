// Sweep-engine tests: grid expansion, worker-pool determinism (byte-
// identical JSON for any --jobs), per-job fault isolation (a throwing job
// is captured, its siblings finish) and seed-replica aggregation.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "check/invariant_auditor.hpp"
#include "sweep/result_store.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"

namespace dynaq {
namespace {

using sweep::Axis;
using sweep::JobPoint;
using sweep::ResultStore;
using sweep::RunnerOptions;
using sweep::SweepRunner;
using sweep::SweepSpec;

SweepSpec scheme_load_seed_grid() {  // 3 x 2 x 2 = 12 jobs
  SweepSpec spec;
  spec.axes = {Axis::labels("scheme", {"DynaQ", "BestEffort", "PQL"}),
               Axis::numeric("load", {0.3, 0.7}), Axis::numeric("seed", {1, 2})};
  return spec;
}

// Deterministic pseudo-experiment: metrics depend only on the point.
std::map<std::string, double> fake_job(const JobPoint& p) {
  const double scheme_bias = static_cast<double>(p.label("scheme").size());
  return {{"fct_ms", scheme_bias * p.number("load") + p.number("seed") / 8.0},
          {"drops", std::floor(10.0 * p.number("load"))}};
}

// ------------------------------------------------------------- spec --

TEST(SweepSpec, CartesianExpandsLastAxisFastest) {
  const auto points = scheme_load_seed_grid().expand();
  ASSERT_EQ(points.size(), 12u);
  EXPECT_EQ(points[0].name(), "scheme=DynaQ load=0.3 seed=1");
  EXPECT_EQ(points[1].name(), "scheme=DynaQ load=0.3 seed=2");
  EXPECT_EQ(points[2].name(), "scheme=DynaQ load=0.7 seed=1");
  EXPECT_EQ(points[4].name(), "scheme=BestEffort load=0.3 seed=1");
  EXPECT_EQ(points[11].name(), "scheme=PQL load=0.7 seed=2");
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].job_id, i);
}

TEST(SweepSpec, RejectsEmptyAndRaggedSpecs) {
  EXPECT_THROW(SweepSpec{}.expand(), std::invalid_argument);
  SweepSpec empty_axis;
  empty_axis.axes = {Axis::numeric("load", {})};
  EXPECT_THROW(empty_axis.expand(), std::invalid_argument);
}

TEST(SweepSpec, PointLookupThrowsOnUnknownAxis) {
  const auto points = scheme_load_seed_grid().expand();
  EXPECT_THROW(points[0].at("nope"), std::out_of_range);
  EXPECT_EQ(points[0].label("scheme"), "DynaQ");
}

// ------------------------------------------------------ determinism --

TEST(SweepRunner, TwelveJobSweepJsonBytesIdenticalForAnyWorkerCount) {
  const auto spec = scheme_load_seed_grid();
  // A little jitter so parallel completion order actually scrambles.
  const auto job = [](const JobPoint& p) {
    std::this_thread::sleep_for(std::chrono::milliseconds((p.job_id * 7) % 13));
    return fake_job(p);
  };
  const auto store1 = SweepRunner(RunnerOptions{.jobs = 1}).run("det", spec, job);
  const auto store4 = SweepRunner(RunnerOptions{.jobs = 4}).run("det", spec, job);
  ASSERT_EQ(store1.outcomes().size(), 12u);
  EXPECT_TRUE(store1.all_ok());
  EXPECT_TRUE(store4.all_ok());
  EXPECT_EQ(store1.to_json(), store4.to_json());

  const std::string p1 = testing::TempDir() + "sweep_j1.json";
  const std::string p4 = testing::TempDir() + "sweep_j4.json";
  ASSERT_TRUE(store1.write_json(p1));
  ASSERT_TRUE(store4.write_json(p4));
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(p1), slurp(p4));
  EXPECT_FALSE(slurp(p1).empty());
}

TEST(SweepRunner, TrajectoryHashesRideJobResultsForAnyWorkerCount) {
  const auto spec = scheme_load_seed_grid();
  // Pseudo-experiment returning a per-point trajectory hash, like
  // bench/fct_common.hpp's run_fct_job does with the harness oracle value.
  const auto job = [](const JobPoint& p) {
    std::this_thread::sleep_for(std::chrono::milliseconds((p.job_id * 5) % 11));
    sweep::JobResult r{fake_job(p)};
    r.trajectory_hash = 0x1000u + p.job_id;
    return r;
  };
  const auto store1 = SweepRunner(RunnerOptions{.jobs = 1}).run("hashes", spec, job);
  const auto store4 = SweepRunner(RunnerOptions{.jobs = 4}).run("hashes", spec, job);
  ASSERT_TRUE(store1.all_ok());
  ASSERT_TRUE(store4.all_ok());
  for (std::size_t i = 0; i < store1.outcomes().size(); ++i) {
    ASSERT_TRUE(store1.outcome(i).trajectory_hash.has_value());
    EXPECT_EQ(store1.outcome(i).trajectory_hash, store4.outcome(i).trajectory_hash);
    EXPECT_EQ(*store1.outcome(i).trajectory_hash, 0x1000u + i);
  }

  // Since schema_version 3, per-job "trajectory_hash" is a canonical hex
  // string (u64 values do not survive JSON doubles), byte-identical across
  // --jobs.
  const std::string json = store1.to_json();
  EXPECT_EQ(json, store4.to_json());
  EXPECT_NE(json.find("\"schema_version\":8"), std::string::npos);
  EXPECT_NE(json.find("\"trajectory_hash\":\"0x0000000000001000\""), std::string::npos);
  EXPECT_NE(json.find("\"trajectory_hash\":\"0x000000000000100b\""), std::string::npos);
}

TEST(ResultStore, OmitsTrajectoryHashWhenJobsDoNotReportOne) {
  const auto spec = scheme_load_seed_grid();
  const auto store = SweepRunner(RunnerOptions{.jobs = 2}).run("nohash", spec, fake_job);
  ASSERT_TRUE(store.all_ok());
  for (const auto& o : store.outcomes()) EXPECT_FALSE(o.trajectory_hash.has_value());
  EXPECT_EQ(store.to_json().find("trajectory_hash"), std::string::npos);
}

// -------------------------------------------------- fault isolation --

TEST(SweepRunner, AuditErrorInOneJobDoesNotAbortSiblings) {
  const auto spec = scheme_load_seed_grid();
  const auto job = [](const JobPoint& p) -> std::map<std::string, double> {
    if (p.label("scheme") == "BestEffort" && p.number("seed") == 2) {
      check::Violation v;
      v.kind = check::ViolationKind::kThresholdSumMismatch;
      v.scheme = "BestEffort";
      v.detail = "injected for the fault-isolation test";
      throw check::AuditError(v);
    }
    return fake_job(p);
  };
  const auto store = SweepRunner(RunnerOptions{.jobs = 4}).run("faulty", spec, job);
  ASSERT_EQ(store.outcomes().size(), 12u);
  EXPECT_EQ(store.failures(), 2u);  // loads 0.3 and 0.7 at (BestEffort, seed 2)
  for (const auto& o : store.outcomes()) {
    const bool should_fail =
        o.point.label("scheme") == "BestEffort" && o.point.number("seed") == 2;
    EXPECT_EQ(o.ok, !should_fail) << o.point.name();
    if (should_fail) {
      EXPECT_NE(o.error.find("injected for the fault-isolation test"), std::string::npos);
    } else {
      EXPECT_FALSE(o.metrics.empty()) << o.point.name();
    }
  }
  // Failed replicas drop out of aggregation: (BestEffort, *) keeps seed 1.
  for (const auto& row : store.aggregate()) {
    std::string scheme;
    for (const auto& [axis, value] : row.coords) {
      if (axis == "scheme") scheme = value.label;
    }
    EXPECT_EQ(row.replicas, scheme == "BestEffort" ? 1u : 2u);
  }
}

// --------------------------------------------------- aggregation --

TEST(ResultStore, AggregatesSeedReplicasWithConfidenceInterval) {
  const auto agg = sweep::aggregate_samples({10.0, 12.0, 14.0, 16.0});
  EXPECT_EQ(agg.n, 4u);
  EXPECT_DOUBLE_EQ(agg.mean, 13.0);
  EXPECT_DOUBLE_EQ(agg.min, 10.0);
  EXPECT_DOUBLE_EQ(agg.max, 16.0);
  EXPECT_DOUBLE_EQ(agg.p50, 13.0);
  EXPECT_NEAR(agg.p99, 16.0, 0.25);
  // sd = sqrt(20/3); ci = t(3df) * sd / 2 = 3.182 * 2.582 / 2.
  EXPECT_NEAR(agg.ci95_half, 3.182 * std::sqrt(20.0 / 3.0) / 2.0, 1e-9);
  const auto one = sweep::aggregate_samples({5.0});
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.ci95_half, 0.0);
}

TEST(ResultStore, AggregateGroupsByNonReplicaAxes) {
  const auto spec = scheme_load_seed_grid();
  const auto store = SweepRunner(RunnerOptions{.jobs = 2}).run("agg", spec, fake_job);
  const auto rows = store.aggregate();
  ASSERT_EQ(rows.size(), 6u);  // 3 schemes x 2 loads
  for (const auto& row : rows) {
    EXPECT_EQ(row.replicas, 2u);
    ASSERT_TRUE(row.metrics.contains("fct_ms"));
    const auto& m = row.metrics.at("fct_ms");
    EXPECT_EQ(m.n, 2u);
    // seeds 1 and 2 contribute bias + 1/8 and bias + 2/8.
    EXPECT_NEAR(m.max - m.min, 0.125, 1e-12);
    EXPECT_NEAR(m.mean, (m.min + m.max) / 2.0, 1e-12);
  }
}

}  // namespace
}  // namespace dynaq
