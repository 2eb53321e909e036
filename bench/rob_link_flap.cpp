// Robustness: bottleneck link flaps (DESIGN.md §11). Four always-active DRR
// queues on the testbed star while the scenario timeline takes the receiver
// downlink down and back up twice. link_down cancels the in-flight serialize
// timer through Simulator::cancel (no dead closure fires, the interrupted
// packet is lost); senders see RTOs, retransmit, and must re-fill the pipe
// when the link returns. Reported per scheme: throughput before the first
// flap, the flap-window dip, and post-recovery throughput.
#include "bench/rob_common.hpp"

using namespace dynaq;

namespace {

sweep::JobResult run_job(const sweep::JobPoint& point, Time duration,
                         const scenario::Scenario& scn) {
  const auto kind = core::parse_scheme(point.label("scheme"));
  const auto seed = static_cast<std::uint64_t>(point.number("seed"));
  auto r = harness::run_static_experiment(bench::rob_config(kind, duration, seed, &scn));

  // The catalogue's link_flap timeline puts outages in [2/8, 3/8) and
  // [5/8, 6/8) of the run; slice the meter windows accordingly.
  std::map<std::string, double> metrics;
  metrics["pre_gbps"] = bench::slice_mean(r.meter, 0.125, 0.25);      // before flap 1
  metrics["flap_gbps"] = bench::slice_mean(r.meter, 0.25, 0.375);     // first outage window
  metrics["recovered_gbps"] = bench::slice_mean(r.meter, 0.75, 1.0);  // after the last link_up
  metrics["timeouts"] = static_cast<double>(r.sender_totals.timeouts);
  metrics["retx"] = static_cast<double>(r.sender_totals.retransmissions);
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
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kDynamicThreshold, core::SchemeKind::kBestEffort});
  const scenario::Scenario scn = bench::scenario_flag(
      cli, "link_flap", duration,
      bench::rob_config(core::SchemeKind::kDynaQ, duration, 1, nullptr));

  std::printf("Robustness — scenario '%s' on the bottleneck link (testbed star)\n",
              scn.name.c_str());
  std::puts("(link_down cancels the in-flight serialize timer; senders recover via RTO)\n");

  auto run = bench::run_sweep(cli, "rob_link_flap", bench::scheme_seed_spec(schemes, seeds),
                              [duration, &scn](const sweep::JobPoint& point) {
                                return run_job(point, duration, scn);
                              });

  harness::Table t({"scheme", "pre_gbps", "flap_gbps", "recov_gbps", "timeouts", "retx",
                    "actions"});
  for (const auto& row : run.store.aggregate()) {
    const auto metric = [&row](const char* name) { return bench::row_mean(row, name); };
    t.row({row.coords.front().second.label, bench::fmt(metric("pre_gbps")),
           bench::fmt(metric("flap_gbps")), bench::fmt(metric("recovered_gbps")),
           bench::fmt(metric("timeouts"), 0), bench::fmt(metric("retx"), 0),
           bench::fmt(metric("scenario_actions"), 0)});
  }
  t.print();
  std::puts("\nexpected shape: throughput collapses during the outage windows and");
  std::puts("recovers to the pre-flap level after link_up for every scheme");
  return run.exit_code;
}
