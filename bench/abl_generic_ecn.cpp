// Ablation (extension of §II-B's protocol-dependency argument): the
// ECN-based isolation schemes do not just require *some* ECN transport —
// their latency benefits assume DCTCP-style fraction-proportional backoff.
// Running the same markers under classic RFC 3168 TCP-ECN (halve on any
// mark) shows how much of their performance is really the transport's.
// DynaQ's numbers are identical in both columns by construction: it never
// touches ECN for non-ECN senders.
#include <algorithm>
#include <tuple>

#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto loads = cli.reals("loads", {0.5, 0.7});
  const auto flows = static_cast<std::size_t>(cli.positive("flows", 1'500));
  const auto seeds = cli.naturals("seeds", {1});

  std::puts("Ablation — ECN schemes under DCTCP vs classic RFC 3168 TCP-ECN senders");
  std::printf("(%zu flows per run, web search, SPQ(1)/DRR(4), PIAS)\n\n", flows);

  int exit_code = 0;
  for (const auto& [label, sweep_name, ecn_cc] :
       std::vector<std::tuple<const char*, const char*, transport::CcKind>>{
           {"DCTCP senders", "abl_generic_ecn_dctcp", transport::CcKind::kDctcp},
           {"RFC3168 TCP-ECN senders", "abl_generic_ecn_rfc3168",
            transport::CcKind::kNewRenoEcn}}) {
    bench::FctSweepConfig sweep;
    sweep.schemes = bench::schemes_from_cli(
        cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kTcn, core::SchemeKind::kPmsb});
    sweep.loads = loads;
    sweep.flows = flows;
    sweep.ecn_cc = ecn_cc;
    sweep.seeds = seeds;
    std::printf("=== %s ===\n", label);
    const auto run = bench::run_fct_sweep(cli, sweep_name, sweep);
    exit_code = std::max(exit_code, run.exit_code);
    const auto results = bench::fct_results_from_store(run.store);
    bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                            "average FCT, small flows (<=100KB)",
                            &stats::FctSummary::avg_small_ms);
    bench::print_fct_metric(results, core::SchemeKind::kDynaQ, sweep.loads,
                            "average FCT, large flows (>10MB)",
                            &stats::FctSummary::avg_large_ms);
  }
  std::puts("expected: the markers' relative standing shifts with the ECN transport —");
  std::puts("isolation built on ECN inherits the transport's reaction curve, which is");
  std::puts("exactly the dependency DynaQ avoids");
  return exit_code;
}
