// Figure 13: large-scale dynamic flows on a 12x12 leaf-spine fabric —
// 144 hosts, SPQ(1)/DRR(7), 7 services each with its own workload CDF,
// ECMP, PIAS 100 KB, load swept 30-80%. Reports the average overall FCT
// and the 99th-percentile small-flow FCT, normalized by DynaQ. The
// (scheme x load x seed) grid runs through the sweep engine — this is by
// far the slowest figure, so --jobs N matters most here.
#include <map>

#include "bench/fct_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const auto loads = cli.reals("loads", full ? std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
                                             : std::vector<double>{0.3, 0.5, 0.7});
  const auto flows = static_cast<std::size_t>(cli.positive("flows", full ? 10'000 : 1'200));
  const int leaves = static_cast<int>(cli.positive("leaves", full ? 12 : 6));
  const auto seeds = cli.naturals("seeds", {1});
  const auto kinds = bench::schemes_from_cli(
      cli, {core::SchemeKind::kDynaQ, core::SchemeKind::kBestEffort, core::SchemeKind::kPql});

  std::printf("Figure 13 — leaf-spine fabric (%dx%d, %d hosts), SPQ(1)/DRR(7), ECMP\n", leaves,
              leaves, leaves * leaves);
  std::printf("(%zu flows per run, 7 services cycling the four workload CDFs)\n\n", flows);

  const auto run = bench::run_fct_sweep(
      cli, "fig13_leaf_spine", bench::scheme_load_seed_spec(kinds, loads, seeds),
      [&](const sweep::JobPoint& point) {
        harness::DynamicLeafSpineConfig cfg;
        cfg.fabric.num_leaves = leaves;
        cfg.fabric.num_spines = leaves;
        cfg.fabric.hosts_per_leaf = leaves;
        cfg.fabric.queue_weights.assign(8, 1.0);
        cfg.fabric.scheme.kind = core::parse_scheme(point.label("scheme"));
        cfg.fabric.scheduler = topo::SchedulerKind::kSpqOverDrr;
        cfg.num_flows = flows;
        cfg.load = point.number("load");
        cfg.num_services = 7;
        cfg.seed = static_cast<std::uint64_t>(point.number("seed"));
        auto r = harness::run_dynamic_leaf_spine_experiment(cfg);
        return bench::job_record(bench::fct_metrics(r), r);
      });
  const auto results = bench::fct_results_from_store(run.store);

  for (const auto& [title, metric] :
       std::vector<std::pair<const char*, double stats::FctSummary::*>>{
           {"(a) average FCT, overall", &stats::FctSummary::avg_overall_ms},
           {"(b) 99th percentile FCT, small flows", &stats::FctSummary::p99_small_ms}}) {
    bench::print_fct_metric(results, core::SchemeKind::kDynaQ, loads, title, metric);
  }
  std::puts("paper shape: at 10Gbps the gaps compress — DynaQ ~ BestEffort (0.98x-1.01x");
  std::puts("overall), DynaQ > PQL overall, and p99 small-flow FCTs nearly tie (PQL");
  std::puts("at best 0.98x)");
  return run.exit_code;
}
