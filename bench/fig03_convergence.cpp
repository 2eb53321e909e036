// Figure 3: throughput convergence of two active DRR queues with equal
// weights. Queue 1 carries 2 flows, queue 2 carries 16 flows (iperf, 10 s);
// only DynaQ converges to an equal split.
#include "bench/common.hpp"

using namespace dynaq;

namespace {

harness::StaticExperimentConfig experiment_config(core::SchemeKind kind, Time duration,
                                         std::uint64_t seed) {
  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(kind, /*num_hosts=*/5);
  cfg.groups = {
      {.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
      {.queue = 1, .num_flows = 16, .first_src_host = 3, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
  };
  cfg.duration = duration;
  cfg.meter_window = milliseconds(std::int64_t{500});
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto duration = seconds(cli.positive("seconds", 10));
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  const auto csv_dir = bench::artifact_dir(cli, "csv");
  cli.reject_unknown();

  std::puts("Figure 3 — throughput convergence of 2 active DRR queues, equal weights");
  std::puts("(queue1: 2 flows, queue2: 16 flows; 4 DRR queues configured)\n");

  const core::SchemeKind kinds[] = {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                                    core::SchemeKind::kDynaQ};
  for (const auto kind : kinds) {
    const auto r = harness::run_static_experiment(experiment_config(kind, duration, seed));
    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    std::vector<std::vector<double>> series;
    for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
      series.push_back({(static_cast<double>(w) + 0.5) * 0.5, r.meter.gbps(w, 0),
                        r.meter.gbps(w, 1), r.meter.aggregate_gbps(w)});
    }
    bench::maybe_write_csv(csv_dir, "fig03_" + std::string(core::scheme_name(kind)),
                           {"time_s", "queue1_gbps", "queue2_gbps", "aggregate"}, series);
    harness::Table t({"time_s", "queue1_Gbps", "queue2_Gbps", "aggregate"});
    for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
      t.row({bench::fmt((static_cast<double>(w) + 0.5) * 0.5, 1), bench::fmt(r.meter.gbps(w, 0)),
             bench::fmt(r.meter.gbps(w, 1)), bench::fmt(r.meter.aggregate_gbps(w))});
    }
    t.print();
    const auto last = r.meter.num_windows();
    std::printf("mean after warmup: q1=%.3f q2=%.3f (ideal 0.5/0.5)\n",
                r.meter.mean_gbps(0, 2, last), r.meter.mean_gbps(1, 2, last));
    std::printf("telemetry: %llu threshold exchanges, %llu drops (%llu policy, %llu nic)\n\n",
                static_cast<unsigned long long>(r.telemetry.threshold_exchanges),
                static_cast<unsigned long long>(r.telemetry.total_drops()),
                static_cast<unsigned long long>(
                    r.telemetry.drops(telemetry::DropReason::kThreshold) +
                    r.telemetry.drops(telemetry::DropReason::kVictimUnsatisfied) +
                    r.telemetry.drops(telemetry::DropReason::kVictimTooSmall)),
                static_cast<unsigned long long>(
                    r.telemetry.drops(telemetry::DropReason::kNicFull)));
  }
  std::puts("paper shape: DynaQ converges to an even split; BestEffort skews to queue2;");
  std::puts("PQL is fairer than BestEffort but still uneven");
  return 0;
}
