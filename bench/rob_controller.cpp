// Robustness: degraded control plane (DESIGN.md §14). Four always-active DRR
// queues on the testbed star while DynaQ's threshold controller runs behind
// the ctrlplane shim (5 ms update period, 1 ms update delay, 40 ms watchdog)
// and the scenario timeline stalls it, crashes it, or drops its updates. The
// watchdog fails the port over to Dynamic Thresholds until the controller
// returns and a reliable re-sync restores Eq. 1 (ΣT = B). DT runs the same
// workload natively as the degraded-mode baseline — it has no controller to
// break, so its jobs carry no scenario. Reported per scheme: pre-fault /
// fault-window / recovered throughput, fault-window retention, and (DynaQ
// only) failover counts plus recovery time vs. the watchdog+re-sync budget.
#include "bench/rob_common.hpp"

using namespace dynaq;

namespace {

ctrlplane::ControlPlaneConfig control_config(std::uint64_t seed) {
  ctrlplane::ControlPlaneConfig cp;
  cp.enabled = true;
  cp.update_period = milliseconds(std::int64_t{5});
  cp.update_delay = milliseconds(std::int64_t{1});
  cp.watchdog_deadline = milliseconds(std::int64_t{40});
  cp.seed = seed;
  return cp;
}

sweep::JobResult run_job(const sweep::JobPoint& point, Time duration,
                         const scenario::Scenario& scn) {
  const auto kind = core::parse_scheme(point.label("scheme"));
  const auto seed = static_cast<std::uint64_t>(point.number("seed"));
  // Controller-fault timelines target "sw.p0.ctrl", which only exists when
  // the scheme actually runs behind the shim — every other scheme is the
  // fault-free baseline.
  const scenario::Scenario* scenario =
      kind == core::SchemeKind::kDynaQ ? &scn : nullptr;
  harness::StaticExperimentConfig cfg = bench::rob_config(kind, duration, seed, scenario);
  cfg.control_plane = control_config(seed);
  auto r = harness::run_static_experiment(cfg);

  // The catalogue's controller timelines put the fault in [3/8, 5/8) of the
  // run (onset at 3/8, duration/4 long); slice the meter windows accordingly.
  std::map<std::string, double> metrics;
  const double pre = bench::slice_mean(r.meter, 0.125, 0.375);    // before the fault
  const double fault = bench::slice_mean(r.meter, 0.375, 0.625);  // controller down / degraded
  metrics["pre_gbps"] = pre;
  metrics["fault_gbps"] = fault;
  metrics["recovered_gbps"] = bench::slice_mean(r.meter, 0.75, 1.0);  // after restore
  // One retention estimator for every scheme so the §14 ratio expectation
  // compares like with like; the event-derived estimate rides the telemetry
  // control block in the JSON.
  metrics["throughput_retention"] = pre > 0.0 ? fault / pre : 0.0;
  metrics["ctrl_updates"] = static_cast<double>(r.telemetry.control.updates);
  metrics["ctrl_updates_lost"] = static_cast<double>(r.telemetry.control.updates_lost);
  metrics["failovers"] = static_cast<double>(r.telemetry.control.failovers);
  metrics["restores"] = static_cast<double>(r.telemetry.control.restores);
  if (r.telemetry.control.failovers > 0) {
    const ctrlplane::ControlPlaneConfig cp = control_config(seed);
    metrics["recovery_time_us"] = static_cast<double>(r.telemetry.control.recovery_us);
    metrics["recovery_budget_us"] = to_microseconds(cp.watchdog_deadline + cp.update_period +
                                                    cp.update_delay);
  }
  metrics["timeouts"] = static_cast<double>(r.sender_totals.timeouts);
  metrics["drops"] = static_cast<double>(bench::switch_drops(r.telemetry));
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
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kDynamicThreshold});
  // Only DynaQ jobs run the timeline, behind the control-plane shim.
  harness::StaticExperimentConfig probe =
      bench::rob_config(core::SchemeKind::kDynaQ, duration, 1, nullptr);
  probe.control_plane = control_config(1);
  const scenario::Scenario scn = bench::scenario_flag(cli, "controller_crash", duration, probe);

  std::printf("Robustness — scenario '%s' against DynaQ's control plane (testbed star)\n",
              scn.name.c_str());
  std::puts("(watchdog fails over to DT; a reliable re-sync restores ΣT = B on return)\n");

  auto run = bench::run_sweep(cli, "rob_controller", bench::scheme_seed_spec(schemes, seeds),
                              [duration, &scn](const sweep::JobPoint& point) {
                                return run_job(point, duration, scn);
                              });

  harness::Table t({"scheme", "pre_gbps", "fault_gbps", "recov_gbps", "retention",
                    "failovers", "recovery_us", "actions"});
  for (const auto& row : run.store.aggregate()) {
    const auto metric = [&row](const char* name) { return bench::row_mean(row, name); };
    t.row({row.coords.front().second.label, bench::fmt(metric("pre_gbps")),
           bench::fmt(metric("fault_gbps")), bench::fmt(metric("recovered_gbps")),
           bench::fmt(metric("throughput_retention")), bench::fmt(metric("failovers"), 0),
           bench::fmt(metric("recovery_time_us"), 0),
           bench::fmt(metric("scenario_actions"), 0)});
  }
  t.print();
  std::puts("\nexpected shape: DynaQ's fault-window retention stays within a few percent");
  std::puts("of the native DT baseline, and recovery_us <= the watchdog+re-sync budget");
  return run.exit_code;
}
