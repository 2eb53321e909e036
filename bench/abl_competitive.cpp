// Ablation: DynaQ against the shared-buffer baselines of the
// competitive-analysis literature (PAPERS.md) on the Fig. 8 star workload
// (SPQ(1)/DRR(4), web search flows, PIAS tagging): classic Dynamic
// Threshold, LQD push-out (Matsakis), Harmonic rank caps (Addanki et al.)
// and BestEffort. Prints the FCT tables normalized by DynaQ and the
// drop-reason breakdown: threshold, victim_unsat and victim_small count the
// packets a policy dropped while the port still had room, port_full the
// drops at a full buffer. (scheme x load x seed) runs through the sweep
// engine: --jobs N parallelizes, --json emits the per-job records.
#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  bench::FctSweepConfig sweep;
  sweep.schemes = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kDynamicThreshold,
            core::SchemeKind::kLongestQueueDrop, core::SchemeKind::kHarmonic,
            core::SchemeKind::kBestEffort});
  sweep.loads = cli.reals("loads", full ? std::vector<double>{0.5, 0.7, 0.9}
                                        : std::vector<double>{0.7});
  sweep.flows = static_cast<std::size_t>(cli.positive("flows", full ? 4'000 : 400));
  sweep.seeds = cli.naturals("seeds", full ? std::vector<double>{1, 2, 3, 4, 5}
                                           : std::vector<double>{1, 2, 3});

  std::puts("Ablation — DynaQ vs DT, LQD, Harmonic and BestEffort, SPQ(1)/DRR(4), web search");
  std::printf("(%zu flows per run, PIAS demotion at 100KB, TCP/NewReno)\n\n", sweep.flows);

  const auto run = bench::run_fct_sweep(cli, "abl_competitive", sweep);
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

  std::puts("expected shape: DynaQ's overall FCT no worse than DT's (abl.dynaq_fct_vs_dt);");
  std::puts("LQD and BestEffort drop only at a full buffer (port_full), the threshold");
  std::puts("schemes also drop early (threshold / victim columns)");
  return run.exit_code;
}
