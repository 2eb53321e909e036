// Figure 9: FCT comparison against the ECN-based schemes (TCN, PMSB,
// Per-Queue ECN) running DCTCP, versus DynaQ running plain TCP. Same
// SPQ(1)/DRR(4) + PIAS setup as Figure 8, normalized by DynaQ. The grid
// runs through the sweep engine (--jobs/--seeds/--json, see fig08).
#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  bench::FctSweepConfig sweep;
  sweep.schemes = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kTcn, core::SchemeKind::kPmsb,
            core::SchemeKind::kPerQueueEcn});
  sweep.loads = cli.reals("loads", full ? std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
                                        : std::vector<double>{0.3, 0.5, 0.7});
  sweep.flows = static_cast<std::size_t>(cli.positive("flows", full ? 10'000 : 1'500));
  sweep.seeds = cli.naturals("seeds", {1});

  std::puts("Figure 9 — FCT vs ECN-based schemes (DCTCP senders), SPQ(1)/DRR(4)");
  std::printf("(%zu flows per run, K=30KB, TCN sojourn threshold 240us)\n\n", sweep.flows);

  const auto run = bench::run_fct_sweep(cli, "fig09_fct_ecn", sweep);
  const auto results = bench::fct_results_from_store(run.store);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "(a) average FCT, overall", &stats::FctSummary::avg_overall_ms);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "(b) average FCT, small flows (<=100KB)",
                          &stats::FctSummary::avg_small_ms);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "(c) 99th percentile FCT, small flows",
                          &stats::FctSummary::p99_small_ms);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "(d) average FCT, large flows (>10MB)",
                          &stats::FctSummary::avg_large_ms);
  bench::print_drop_breakdown(run.store);

  std::puts("paper shape: mixed overall results at 30-40% load (TCN up to 0.95x), DynaQ");
  std::puts("ahead elsewhere (1.28x-1.99x); for small flows DynaQ wins across loads,");
  std::puts("most dramatically at 30% load (>12x vs PMSB/Per-Queue ECN)");
  return run.exit_code;
}
