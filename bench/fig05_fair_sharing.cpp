// Figure 5: bandwidth sharing between 4 DRR queues with equal weights.
// Queue i carries 2^i flows; queues deactivate over time (queue 4 at 10 s,
// queue 3 at 15 s, queue 2 at 20 s, queue 1 ends at 25 s). DynaQ alone
// keeps both per-queue fairness and full aggregate throughput.
#include "bench/common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  // Default compresses the paper's 10/15/20/25 s schedule to 4/6/8/10 s —
  // same phases, shorter steady-state stretches.
  const double scale = full ? 1.0 : 0.4;
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Figure 5 — bandwidth sharing, 4 DRR queues, equal weights, queue i has 2^i flows");
  std::printf("(queue4 stops at %.0fs, queue3 at %.0fs, queue2 at %.0fs, end at %.0fs)\n\n",
              10 * scale, 15 * scale, 20 * scale, 25 * scale);

  const core::SchemeKind kinds[] = {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                                    core::SchemeKind::kDynaQ};
  for (const auto kind : kinds) {
    harness::StaticExperimentConfig cfg;
    cfg.star = bench::testbed_star(kind, /*num_hosts=*/9);
    // Two sender hosts per queue keep the standing queue at the switch port
    // even in single-active-queue phases (see DESIGN.md).
    for (int q = 0; q < 4; ++q) {
      cfg.groups.push_back({.queue = q,
                            .num_flows = 1 << (q + 1),
                            .first_src_host = 1 + 2 * q,
                            .num_src_hosts = 2,
                            .start = 0,
                            .stop = seconds((25.0 - 5.0 * q) * scale),
                            .cc = transport::CcKind::kNewReno});
    }
    cfg.duration = seconds(25.0 * scale);
    cfg.meter_window = milliseconds(std::int64_t{500});
    cfg.seed = seed;
    const auto r = harness::run_static_experiment(cfg);

    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    harness::Table t({"time_s", "q1", "q2", "q3", "q4", "aggregate"});
    for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
      t.row({bench::fmt((static_cast<double>(w) + 0.5) * 0.5, 1), bench::fmt(r.meter.gbps(w, 0)),
             bench::fmt(r.meter.gbps(w, 1)), bench::fmt(r.meter.gbps(w, 2)),
             bench::fmt(r.meter.gbps(w, 3)), bench::fmt(r.meter.aggregate_gbps(w))});
    }
    t.print();

    // Phase summaries: mean aggregate during each active-set phase.
    const auto wps = static_cast<std::size_t>(seconds(5.0 * scale) / cfg.meter_window);
    for (int phase = 0; phase < 5; ++phase) {
      const std::size_t from = static_cast<std::size_t>(phase + 1) * wps;
      if (from >= r.meter.num_windows()) break;
      double agg = 0.0;
      std::size_t n = 0;
      for (std::size_t w = from; w < from + wps && w < r.meter.num_windows(); ++w, ++n) {
        agg += r.meter.aggregate_gbps(w);
      }
      if (phase >= 1 && n > 0) {
        std::printf("phase with %d active queue(s): aggregate %.3f Gbps\n", 5 - phase - 1,
                    agg / static_cast<double>(n));
      }
    }
    std::puts("");
  }
  std::puts("paper shape: BestEffort unfair when several queues active (queue4 wins);");
  std::puts("PQL fair but aggregate drops as queues deactivate (0.78 Gbps in the last");
  std::puts("phase); DynaQ fair and work-conserving throughout");
  return 0;
}
