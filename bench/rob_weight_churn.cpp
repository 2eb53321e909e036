// Robustness: mid-run weight churn (DESIGN.md §11). Four always-active DRR
// queues on the testbed star while a scenario timeline rewrites the queue
// weights every eighth of the run (rotating a 4× promotion, then restoring
// the flat split). DynaQ must rebalance ΣT = B through every update — the
// invariant auditor checks the sum at each rebalance — and track the new
// split without losing aggregate throughput; DT and BestEffort ignore
// weights entirely and serve as the churn-oblivious baselines.
#include "bench/rob_common.hpp"
#include "stats/fairness.hpp"

using namespace dynaq;

namespace {

sweep::JobResult run_job(const sweep::JobPoint& point, Time duration,
                         const scenario::Scenario& scn) {
  const auto kind = core::parse_scheme(point.label("scheme"));
  const auto seed = static_cast<std::uint64_t>(point.number("seed"));
  auto r = harness::run_static_experiment(bench::rob_config(kind, duration, seed, &scn));

  double agg = 0.0;
  std::vector<double> per_queue(bench::kRobQueues, 0.0);
  const auto windows = static_cast<double>(r.meter.num_windows());
  for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
    agg += r.meter.aggregate_gbps(w);
    for (int q = 0; q < bench::kRobQueues; ++q) {
      per_queue[static_cast<std::size_t>(q)] += r.meter.gbps(w, q);
    }
  }
  for (double& x : per_queue) x /= windows;

  std::map<std::string, double> metrics;
  metrics["agg_gbps"] = agg / windows;
  metrics["jain"] = stats::jain_index(per_queue);
  metrics["drops"] = static_cast<double>(bench::switch_drops(r.telemetry));
  metrics["retx"] = static_cast<double>(r.sender_totals.retransmissions);
  metrics["scenario_actions"] = static_cast<double>(r.telemetry.scenario_actions);
  return bench::job_record(std::move(metrics), r);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  if (harness::list_scenarios_requested(cli)) return 0;
  const bool full = cli.flag("full");
  const Time duration = seconds(cli.real("duration-s", full ? 10.0 : 4.0));
  const auto seeds = cli.naturals("seeds", {1, 2, 3});
  const auto schemes = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kDynamicThreshold, core::SchemeKind::kBestEffort});
  const scenario::Scenario scn = bench::scenario_flag(
      cli, "weight_churn", duration,
      bench::rob_config(core::SchemeKind::kDynaQ, duration, 1, nullptr));

  std::printf("Robustness — scenario '%s' over %d DRR queues (testbed star)\n",
              scn.name.c_str(), bench::kRobQueues);
  std::puts("(mid-run actions applied through scenario::ScenarioDirector; ΣT = B audited");
  std::puts(" at every weight rebalance)\n");

  auto run = bench::run_sweep(cli, "rob_weight_churn", bench::scheme_seed_spec(schemes, seeds),
                              [duration, &scn](const sweep::JobPoint& point) {
                                return run_job(point, duration, scn);
                              });

  harness::Table t({"scheme", "agg_gbps", "jain", "drops", "retx", "actions"});
  for (const auto& row : run.store.aggregate()) {
    const auto metric = [&row](const char* name) { return bench::row_mean(row, name); };
    t.row({row.coords.front().second.label, bench::fmt(metric("agg_gbps")),
           bench::fmt(metric("jain")), bench::fmt(metric("drops"), 0),
           bench::fmt(metric("retx"), 0), bench::fmt(metric("scenario_actions"), 0)});
  }
  t.print();
  std::puts("\nexpected shape: DynaQ keeps aggregate ~line rate through every rebalance");
  std::puts("(ΣT = B holds at each update); DT/BestEffort ignore the weight changes");
  return run.exit_code;
}
