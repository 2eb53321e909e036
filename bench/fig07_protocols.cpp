// Figure 7: protocol independence — queues 1,2 use (NewReno) TCP while
// queues 3,4 use CUBIC, same deactivation schedule as Figure 5. DynaQ must
// keep fair sharing regardless of the transport mix.
#include "bench/common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const double scale = full ? 1.0 : 0.4;
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Figure 7 — DynaQ with 2 TCP (queues 1,2) and 2 CUBIC (queues 3,4) senders");
  std::printf("(deactivation schedule as Figure 5, scaled x%.1f)\n\n", scale);

  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(core::SchemeKind::kDynaQ, /*num_hosts=*/9);
  for (int q = 0; q < 4; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = 1 << (q + 1),
                          .first_src_host = 1 + 2 * q,
                          .num_src_hosts = 2,
                          .start = 0,
                          .stop = seconds((25.0 - 5.0 * q) * scale),
                          .cc = q < 2 ? transport::CcKind::kNewReno
                                      : transport::CcKind::kCubic});
  }
  cfg.duration = seconds(25.0 * scale);
  cfg.meter_window = milliseconds(std::int64_t{500});
  cfg.seed = seed;
  const auto r = harness::run_static_experiment(cfg);

  harness::Table t({"time_s", "q1_tcp", "q2_tcp", "q3_cubic", "q4_cubic", "aggregate"});
  for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
    t.row({bench::fmt((static_cast<double>(w) + 0.5) * 0.5, 1), bench::fmt(r.meter.gbps(w, 0)),
           bench::fmt(r.meter.gbps(w, 1)), bench::fmt(r.meter.gbps(w, 2)),
           bench::fmt(r.meter.gbps(w, 3)), bench::fmt(r.meter.aggregate_gbps(w))});
  }
  t.print();

  // Fairness during the all-active phase.
  const auto wps = static_cast<std::size_t>(seconds(10.0 * scale) / cfg.meter_window);
  std::vector<double> means;
  for (int q = 0; q < 4; ++q) means.push_back(r.meter.mean_gbps(q, 2, wps));
  std::printf("\nall-active phase shares: %.2f / %.2f / %.2f / %.2f (ideal 0.25 each)\n",
              stats::share_of(means, 0), stats::share_of(means, 1), stats::share_of(means, 2),
              stats::share_of(means, 3));
  std::puts("paper shape: fair sharing holds across transports; brief aggregate dips at");
  std::puts("deactivation instants are ramp-up, not buffer policy");
  return 0;
}
