// Self-tests of the benchmark: strict flag parsing, the build fingerprint,
// and each workload at a small size — traced and untraced runs agree, the
// replay reproduces the recorded port's decisions, and seeds change the
// trajectory but not the shape of the figure point.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string_view>
#include <vector>

#include "options.hpp"
#include "probe.hpp"
#include "recorder.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

ParsedOptions parse(std::initializer_list<std::string_view> args) {
  const std::vector<std::string_view> v(args);
  return parse_options(v);
}

void expect_error(std::initializer_list<std::string_view> args, std::string_view flag) {
  const ParsedOptions p = parse(args);
  EXPECT_FALSE(p.options.has_value());
  EXPECT_TRUE(p.error.starts_with(flag)) << "error: " << p.error;
}

TEST(Options, AcceptsBothValueForms) {
  const ParsedOptions p =
      parse({"--workload", "fabric_mixed", "--seed=7", "--seconds", "2.5", "--trace=1"});
  ASSERT_TRUE(p.options.has_value()) << p.error;
  EXPECT_EQ(p.options->workload, WorkloadKind::kFabricMixed);
  EXPECT_EQ(p.options->seed, 7u);
  EXPECT_DOUBLE_EQ(p.options->seconds, 2.5);
  EXPECT_TRUE(p.options->trace);
}

TEST(Options, RejectsMalformedSeed) {
  for (const std::string_view bad : {"--seed=abc", "--seed=4x", "--seed=-1", "--seed=",
                                     "--seed= 4", "--seed=1e3", "--seed=99999999999999999999"}) {
    expect_error({"--workload=star_websearch", bad}, "--seed");
  }
  expect_error({"--workload=star_websearch", "--seed"}, "--seed");
}

TEST(Options, RejectsNonPositiveSizes) {
  for (const std::string_view bad : {"--seconds=0", "--seconds=-2", "--seconds=nan",
                                     "--seconds=inf", "--seconds=10s"}) {
    expect_error({"--workload=star_websearch", bad}, "--seconds");
  }
}

TEST(Options, RejectsUnknownWorkloadFlagsAndTraceValues) {
  expect_error({"--workload=fig08"}, "--workload");
  expect_error({"--seed=1"}, "--workload");
  expect_error({"--workload=star_websearch", "--seeed=3"}, "--seeed");
  expect_error({"--workload=star_websearch", "--trace=2"}, "--trace");
}

TEST(Fingerprint, DebugAndSanitizerBuildsAreUnusable) {
  EXPECT_TRUE(usable_build("Release", ""));
  EXPECT_TRUE(usable_build("RelWithDebInfo", ""));
  EXPECT_FALSE(usable_build("Debug", ""));
  EXPECT_FALSE(usable_build("", ""));
  EXPECT_FALSE(usable_build("Release", "address,undefined"));
  const Fingerprint f = host_fingerprint("abc123");
  EXPECT_EQ(f.rev, "abc123");
  EXPECT_GT(f.nproc, 0);
  EXPECT_NE(to_json(f).find("\"usable\": "), std::string::npos);
}

TEST(TraceLog, AnUnrecordedLogKeepsNothing) {
  TraceLog log(false);
  {
    const ScopedSpan span(log, "call");
    EXPECT_EQ(span.id(), -1);
  }
  log.count("calls", 1.0);
  EXPECT_TRUE(log.spans().empty());
  EXPECT_TRUE(log.counts().empty());
}

TEST(HostProbe, PassesTakeTimeAndTheTableStaysCounted) {
  HostProbe probe(std::size_t{3} << 20);
  EXPECT_GE(probe.resident_bytes(), std::size_t{4} << 20);  // rounded up to a power of two
  const double first = probe.pass();
  const double second = probe.pass();
  EXPECT_GT(first, 0.0);
  EXPECT_GT(second, 0.0);
}

TEST(SeedChoice, IsAPureFunctionOfTheSeed) {
  const SeedChoice a = choose_harness_seed(WorkloadKind::kStarWebsearch, 5, {});
  const SeedChoice b = choose_harness_seed(WorkloadKind::kStarWebsearch, 5, {});
  EXPECT_EQ(a.harness_seed, b.harness_seed);
  EXPECT_EQ(a.offered_pkts, b.offered_pkts);
  EXPECT_EQ(a.offered_pkts,
            offered_packets(WorkloadKind::kStarWebsearch, a.harness_seed, {}).value());
  const SeedChoice c = choose_harness_seed(WorkloadKind::kStarWebsearch, 6, {});
  EXPECT_NE(a.harness_seed, c.harness_seed);
  EXPECT_NEAR(static_cast<double>(c.offered_pkts), static_cast<double>(a.offered_pkts),
              0.05 * static_cast<double>(a.offered_pkts));
  EXPECT_EQ(choose_harness_seed(WorkloadKind::kStaticManyflows, 9, {}).harness_seed, 9u);
}

// A few percent of the benchmark size: each run takes well under a second.
WorkloadSize tiny(WorkloadKind kind) {
  return {kind == WorkloadKind::kStaticManyflows ? 0.05 : 0.1};
}

RunRequest request(WorkloadKind kind, std::uint64_t seed) {
  RunRequest req;
  req.kind = kind;
  req.size = tiny(kind);
  req.seed = choose_harness_seed(kind, seed, req.size).harness_seed;
  return req;
}

class Workloads : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(Workloads, TracedRunMatchesUntracedAndReplaysExactly) {
  const WorkloadKind kind = GetParam();
  RunRequest req = request(kind, 1);
  const RunOutcome plain = run_workload(req);
  EXPECT_EQ(plain.incomplete, 0u);
  EXPECT_GT(plain.delivered_pkts, 0u);
  if (const auto offered = offered_packets(kind, req.seed, req.size)) {
    EXPECT_EQ(plain.delivered_pkts, *offered);
  }

  TraceLog log;
  Recorder recorder(log, -1);
  req.policy_factory = recorder.factory(port_config(kind).scheme);
  const RunOutcome traced = run_workload(req);
  EXPECT_EQ(traced.trajectory_hash, plain.trajectory_hash);
  EXPECT_EQ(traced.drops, plain.drops);
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(traced.fct.count, plain.fct.count);
  EXPECT_EQ(traced.fct.avg_overall_ms, plain.fct.avg_overall_ms);
  EXPECT_EQ(traced.fct.p99_small_ms, plain.fct.p99_small_ms);
  // The decorator's bookkeeping is not counted, the policies it wraps are:
  // the traced call counts what the plain one does, plus the few copies of
  // the policy factory the harness makes.
  EXPECT_GE(traced.allocations, plain.allocations);
  EXPECT_LE(traced.allocations, plain.allocations + 16);
  const PortCounts totals = recorder.totals();
  EXPECT_GT(totals.admit_calls, 0u);
  EXPECT_EQ(totals.admitted, totals.enqueues + totals.aborted);
  for (const Span& s : log.spans()) EXPECT_GE(s.end_s, s.start_s) << s.name;

  const int busiest = recorder.busiest_port();
  ASSERT_GE(busiest, 0);
  const std::vector<Op>& ops = recorder.ports()[static_cast<std::size_t>(busiest)]->ops;
  ASSERT_FALSE(ops.empty());
  for (const ReplayVariant v :
       {ReplayVariant::kPlain, ReplayVariant::kAudited, ReplayVariant::kTelemetry}) {
    EXPECT_EQ(replay(port_config(kind), ops, v).mismatches, 0u) << variant_name(v);
  }

  // The replay check itself must notice a log that no longer matches.
  std::vector<Op> tampered = ops;
  for (Op& op : tampered) {
    if (op.kind == OpKind::kDequeue) {
      op.flow ^= 1u;
      break;
    }
  }
  EXPECT_GT(replay(port_config(kind), tampered, ReplayVariant::kPlain).mismatches, 0u);
}

TEST_P(Workloads, SeedsChangeTheTrajectoryNotTheShape) {
  const WorkloadKind kind = GetParam();
  const RunOutcome a = run_workload(request(kind, 1));
  const RunOutcome b = run_workload(request(kind, 2));
  EXPECT_NE(a.trajectory_hash, b.trajectory_hash);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.queues, b.queues);
  EXPECT_EQ(a.incomplete + b.incomplete, 0u);
}

TEST_P(Workloads, SetupOnlyCallRunsNoTraffic) {
  RunRequest req = request(GetParam(), 1);
  req.setup_only = true;
  const RunOutcome setup = run_workload(req);
  const RunOutcome again = run_workload(req);
  EXPECT_EQ(setup.trajectory_hash, again.trajectory_hash);
  EXPECT_LT(setup.events, run_workload(request(GetParam(), 1)).events);
}

INSTANTIATE_TEST_SUITE_P(All, Workloads,
                         ::testing::Values(WorkloadKind::kStarWebsearch,
                                           WorkloadKind::kFabricMixed,
                                           WorkloadKind::kStaticManyflows),
                         [](const ::testing::TestParamInfo<WorkloadKind>& info) {
                           return std::string(workload_name(info.param));
                         });

}  // namespace
}  // namespace perfbench
