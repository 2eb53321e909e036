// Ablation (§II-C related work): classic shared-buffer Dynamic Threshold
// (T = alpha * free buffer, same for every queue) versus DynaQ. DT shares
// the port buffer adaptively but is blind to per-queue weights, so an
// aggressive queue still crowds out a light one.
#include "bench/common.hpp"

using namespace dynaq;

namespace {

struct Outcome {
  double q1;
  double q2;
  double aggregate;
};

Outcome run(core::SchemeKind kind, double alpha, std::uint64_t seed,
            std::vector<double> weights = {1, 1, 1, 1}) {
  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(kind, /*num_hosts=*/5, std::move(weights));
  cfg.star.scheme.dt_alpha = alpha;
  cfg.groups = {
      {.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
      {.queue = 1, .num_flows = 16, .first_src_host = 3, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
  };
  cfg.duration = seconds(std::int64_t{8});
  cfg.seed = seed;
  const auto r = harness::run_static_experiment(cfg);
  const auto last = r.meter.num_windows();
  return {r.meter.mean_gbps(0, 4, last), r.meter.mean_gbps(1, 4, last),
          r.meter.mean_gbps(0, 4, last) + r.meter.mean_gbps(1, 4, last)};
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Ablation — classic Dynamic Threshold vs DynaQ (2 vs 16 flows, equal weights)\n");
  harness::Table t({"scheme", "queue1_Gbps", "queue2_Gbps", "aggregate"});
  for (const auto& [name, kind, alpha] :
       std::vector<std::tuple<const char*, core::SchemeKind, double>>{
           {"DT alpha=1", core::SchemeKind::kDynamicThreshold, 1.0},
           {"DT alpha=0.5", core::SchemeKind::kDynamicThreshold, 0.5},
           {"BestEffort", core::SchemeKind::kBestEffort, 0.0},
           {"DynaQ", core::SchemeKind::kDynaQ, 0.0}}) {
    const auto o = run(kind, alpha, seed);
    t.row({name, bench::fmt(o.q1), bench::fmt(o.q2), bench::fmt(o.aggregate)});
  }
  t.print();

  // DT is blind to queue weights: with DRR weights 3:1 on the first two
  // queues, the buffer partition should track 3:1 occupancy needs; DT's
  // uniform alpha-threshold cannot (§II-C's per-queue fairness argument).
  std::puts("\nweighted case (DRR weights 3:1, 8 flows each; ideal 0.75/0.25):");
  harness::Table wt({"scheme", "share_q1", "share_q2"});
  for (const auto& [name, kind, alpha] :
       std::vector<std::tuple<const char*, core::SchemeKind, double>>{
           {"DT alpha=1", core::SchemeKind::kDynamicThreshold, 1.0},
           {"DynaQ", core::SchemeKind::kDynaQ, 0.0}}) {
    harness::StaticExperimentConfig cfg;
    cfg.star = bench::testbed_star(kind, /*num_hosts=*/5, {3, 1, 1, 1});
    cfg.star.scheme.dt_alpha = alpha;
    cfg.groups = {
        {.queue = 0, .num_flows = 8, .first_src_host = 1, .num_src_hosts = 2,
         .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
        {.queue = 1, .num_flows = 8, .first_src_host = 3, .num_src_hosts = 2,
         .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
    };
    cfg.duration = seconds(std::int64_t{8});
    cfg.seed = seed;
    const auto r = harness::run_static_experiment(cfg);
    std::vector<double> means{r.meter.mean_gbps(0, 4, r.meter.num_windows()),
                              r.meter.mean_gbps(1, 4, r.meter.num_windows())};
    wt.row({name, bench::fmt(stats::share_of(means, 0), 3),
            bench::fmt(stats::share_of(means, 1), 3)});
  }
  wt.print();
  std::puts("\nfinding: per-queue DT does much better than §II-C suggests at this single-");
  std::puts("port operating point — the DRR scheduler provides the weighting as long as");
  std::puts("every queue can hold a window, and alpha*(B - occupied) rarely binds the");
  std::puts("light queue. DT's documented weaknesses (per-port fairness across ports,");
  std::puts("headroom waste) need a multi-port scenario that DynaQ also solves without");
  std::puts("DT's alpha tuning knob");
  return 0;
}
