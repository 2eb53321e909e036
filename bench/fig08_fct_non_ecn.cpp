// Figure 8: FCT comparison against the non-ECN schemes (BestEffort, PQL)
// with SPQ(1)/DRR(4), web search workload, PIAS 100 KB demotion, traffic
// load swept 30-80%. All series are normalized by DynaQ as in the paper.
// The (scheme x load x seed) grid runs through the sweep engine: --jobs N
// parallelizes it, --seeds 1,2,3 adds replicas, --json emits the records.
#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  bench::FctSweepConfig sweep;
  sweep.schemes = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kBestEffort, core::SchemeKind::kPql});
  sweep.loads = cli.reals("loads", full ? std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
                                        : std::vector<double>{0.3, 0.5, 0.7});
  sweep.flows = static_cast<std::size_t>(cli.positive("flows", full ? 10'000 : 1'500));
  sweep.seeds = cli.naturals("seeds", {1});

  std::puts("Figure 8 — FCT vs non-ECN schemes, SPQ(1)/DRR(4), web search workload");
  std::printf("(%zu flows per run, PIAS demotion at 100KB, TCP/NewReno)\n\n", sweep.flows);

  const auto run = bench::run_fct_sweep(cli, "fig08_fct_non_ecn", sweep);
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

  std::puts("paper shape: DynaQ ~ BestEffort overall (0.90x-1.02x); DynaQ beats PQL on");
  std::puts("large flows (up to 1.95x); DynaQ clearly best on small-flow avg and p99,");
  std::puts("with BestEffort's p99 exploding at high load (8.4x at 60%)");
  return run.exit_code;
}
