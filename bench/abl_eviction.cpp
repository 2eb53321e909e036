// Ablation (extension): packet eviction versus packet dropping.
//
// §II-C of the paper argues dropping suffices for service-queue isolation
// and reserves eviction (BarberQ) for microburst absorption. Our
// reproduction found one place where dropping hurts: when heavy queues pin
// the port buffer exactly full, a small-flow burst admitted by DynaQ's
// thresholds can still be rejected by the physical bound and eat an RTO.
// DynaQ+Evict displaces surplus tail packets instead; this bench measures
// what that buys on the Figure 8 small-flow metrics.
#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  bench::FctSweepConfig sweep;
  sweep.schemes = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kDynaQEvict, core::SchemeKind::kPql});
  sweep.loads = cli.reals("loads", {0.3, 0.5, 0.7});
  sweep.flows = static_cast<std::size_t>(cli.positive("flows", 1'500));
  sweep.seeds = cli.naturals("seeds", {1});

  std::puts("Ablation — drop vs evict under the Figure 8 workload (web search,");
  std::puts("SPQ(1)/DRR(4), PIAS): does tail eviction remove the port-full races");
  std::puts("that tail DynaQ's small-flow FCT?\n");

  const auto run = bench::run_fct_sweep(cli, "abl_eviction", sweep);
  const auto results = bench::fct_results_from_store(run.store);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "average FCT, small flows (<=100KB)",
                          &stats::FctSummary::avg_small_ms);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "99th percentile FCT, small flows",
                          &stats::FctSummary::p99_small_ms);
  bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                          "average FCT, large flows (>10MB)",
                          &stats::FctSummary::avg_large_ms);

  std::puts("expected: DynaQ+Evict pulls the small-flow tail toward (or past) PQL's");
  std::puts("while keeping DynaQ's work-conserving large-flow advantage");
  return run.exit_code;
}
