// Ablation (§III-B2): victim selection by largest *extra* buffer (DynaQ)
// versus the strawman largest *threshold*. With unequal weights the
// strawman repeatedly raids the heaviest queue even when it holds only the
// minimum buffer for its share, violating weighted fairness.
#include "bench/common.hpp"

using namespace dynaq;

namespace {

std::vector<double> run(core::VictimSelection victim, std::uint64_t seed) {
  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(core::SchemeKind::kDynaQ, /*num_hosts=*/9, {4, 3, 2, 1});
  cfg.star.scheme.dynaq.victim = victim;
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
  std::vector<double> means;
  for (int q = 0; q < 4; ++q) means.push_back(r.meter.mean_gbps(q, 4, r.meter.num_windows()));
  return means;
}

double share_error(const std::vector<double>& means) {
  const double ideal[4] = {0.4, 0.3, 0.2, 0.1};
  double err = 0.0;
  for (int q = 0; q < 4; ++q) {
    err += std::abs(stats::share_of(means, static_cast<std::size_t>(q)) - ideal[q]);
  }
  return err;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Ablation — victim selection rule, weights 4:3:2:1, queue i has 2^i flows\n");
  harness::Table t({"victim rule", "share_q1", "share_q2", "share_q3", "share_q4", "abs_err"});
  for (const auto& [name, rule] :
       std::vector<std::pair<const char*, core::VictimSelection>>{
           {"largest-extra (DynaQ)", core::VictimSelection::kLargestExtra},
           {"largest-threshold", core::VictimSelection::kLargestThreshold}}) {
    const auto means = run(rule, seed);
    t.row({name, bench::fmt(stats::share_of(means, 0), 3), bench::fmt(stats::share_of(means, 1), 3),
           bench::fmt(stats::share_of(means, 2), 3), bench::fmt(stats::share_of(means, 3), 3),
           bench::fmt(share_error(means), 3)});
  }
  t.print();
  std::puts("\nideal shares 0.400/0.300/0.200/0.100; the largest-extra rule should have");
  std::puts("a smaller absolute share error");
  return 0;
}
