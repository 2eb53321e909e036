// Figure 6: bandwidth sharing between 4 DRR queues with weights 4:3:2:1
// (quantums 6/4.5/3/1.5 KB). Queue i still carries 2^i flows; the ideal
// throughput *shares* are 0.4/0.3/0.2/0.1 regardless of flow counts.
#include "bench/common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto duration = seconds(cli.positive("seconds", 10));
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Figure 6 — throughput share with queue weights 4:3:2:1, queue i has 2^i flows\n");

  const core::SchemeKind kinds[] = {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                                    core::SchemeKind::kDynaQ};
  for (const auto kind : kinds) {
    harness::StaticExperimentConfig cfg;
    cfg.star = bench::testbed_star(kind, /*num_hosts=*/9, {4, 3, 2, 1});
    for (int q = 0; q < 4; ++q) {
      cfg.groups.push_back({.queue = q,
                            .num_flows = 1 << (q + 1),
                            .first_src_host = 1 + 2 * q,
                            .num_src_hosts = 2,
                            .start = 0,
                            .stop = 0,
                            .cc = transport::CcKind::kNewReno});
    }
    cfg.duration = duration;
    cfg.meter_window = milliseconds(std::int64_t{500});
    cfg.seed = seed;
    const auto r = harness::run_static_experiment(cfg);

    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    harness::Table t({"time_s", "share_q1", "share_q2", "share_q3", "share_q4"});
    for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
      const auto xs = r.meter.window_gbps(w);
      t.row({bench::fmt((static_cast<double>(w) + 0.5) * 0.5, 1),
             bench::fmt(stats::share_of(xs, 0), 2), bench::fmt(stats::share_of(xs, 1), 2),
             bench::fmt(stats::share_of(xs, 2), 2), bench::fmt(stats::share_of(xs, 3), 2)});
    }
    t.print();
    std::vector<double> means;
    for (int q = 0; q < 4; ++q) means.push_back(r.meter.mean_gbps(q, 2, r.meter.num_windows()));
    std::printf("mean shares after warmup: %.2f / %.2f / %.2f / %.2f (ideal 0.40/0.30/0.20/0.10)\n\n",
                stats::share_of(means, 0), stats::share_of(means, 1), stats::share_of(means, 2),
                stats::share_of(means, 3));
  }
  std::puts("paper shape: BestEffort gives the 16-flow queue4 ~0.35 instead of 0.10;");
  std::puts("PQL and DynaQ both respect the 4:3:2:1 weights (but PQL is not");
  std::puts("work-conserving when queues deactivate, see Figure 5)");
  return 0;
}
