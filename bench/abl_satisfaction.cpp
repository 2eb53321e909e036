// Ablation (§III-B2, Eq. 3): satisfaction threshold S_i = B·w_i/Σw (the
// paper's choice) versus the theoretically sufficient S_i = WBDP_i. The
// paper reports that WBDP leaves no headroom against threshold
// fluctuation, so weighted fair sharing degrades. The weighted-queue
// scenario (4:3:2:1, uneven flow counts) stresses exactly that: with
// S_i = WBDP_i, aggressive queues can raid a light queue's threshold far
// below the buffer share it needs for a stable weighted rate.
#include "bench/common.hpp"

using namespace dynaq;

namespace {

struct Outcome {
  std::vector<double> shares;
  double abs_err = 0.0;
  double mean_jain_weighted = 0.0;
};

Outcome run(core::SatisfactionRule rule, std::uint64_t seed) {
  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(core::SchemeKind::kDynaQ, /*num_hosts=*/9, {4, 3, 2, 1});
  cfg.star.scheme.dynaq.satisfaction = rule;
  cfg.star.scheme.dynaq.bdp_bytes = 62'500;  // 1 Gbps x 500 us
  for (int q = 0; q < 4; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = 1 << (q + 1),
                          .first_src_host = 1 + 2 * q,
                          .num_src_hosts = 2,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = seconds(std::int64_t{8});
  cfg.seed = seed;
  const auto r = harness::run_static_experiment(cfg);

  Outcome o;
  const double ideal[4] = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> means;
  for (int q = 0; q < 4; ++q) means.push_back(r.meter.mean_gbps(q, 4, r.meter.num_windows()));
  for (int q = 0; q < 4; ++q) {
    o.shares.push_back(stats::share_of(means, static_cast<std::size_t>(q)));
    o.abs_err += std::abs(o.shares.back() - ideal[q]);
  }
  // Weighted Jain index: normalize each queue's rate by its weight first.
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t w = 4; w < r.meter.num_windows(); ++w, ++n) {
    const auto xs = r.meter.window_gbps(w);
    std::vector<double> normalized;
    const double weights[4] = {4, 3, 2, 1};
    for (int q = 0; q < 4; ++q) {
      normalized.push_back(xs[static_cast<std::size_t>(q)] / weights[q]);
    }
    sum += stats::jain_index(normalized);
  }
  o.mean_jain_weighted = sum / static_cast<double>(n);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Ablation — satisfaction threshold rule, DRR weights 4:3:2:1,");
  std::puts("queue i has 2^i flows (ideal shares 0.400/0.300/0.200/0.100)\n");
  harness::Table t({"satisfaction rule", "share_q1", "share_q2", "share_q3", "share_q4",
                    "abs_err", "weighted_jain"});
  for (const auto& [name, rule] :
       std::vector<std::pair<const char*, core::SatisfactionRule>>{
           {"S_i = B*w/Sum(w)  (Eq. 3)", core::SatisfactionRule::kBufferShare},
           {"S_i = WBDP_i      (no headroom)", core::SatisfactionRule::kWeightedBdp}}) {
    const auto o = run(rule, seed);
    t.row({name, bench::fmt(o.shares[0], 3), bench::fmt(o.shares[1], 3),
           bench::fmt(o.shares[2], 3), bench::fmt(o.shares[3], 3), bench::fmt(o.abs_err, 3),
           bench::fmt(o.mean_jain_weighted, 4)});
  }
  t.print();
  std::puts("\npaper's argument: Eq. 3's headroom is needed because with S_i = WBDP_i");
  std::puts("threshold fluctuation destabilizes weighted sharing. In this simulator both");
  std::puts("rules hold weighted fairness (see EXPERIMENTS.md): the instability the");
  std::puts("authors observed appears to be testbed-stack-specific, and Eq. 3 remains");
  std::puts("the safe choice since it never performs worse");
  return 0;
}
