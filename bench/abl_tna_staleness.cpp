// Ablation (§IV-A2): DynaQ on a Tofino-style programmable switch cannot
// read live queue depths in the ingress pipeline; it sees the last
// dequeued packet's deq_qdepth through an extern-register feedback loop.
// The paper *believes* the resulting inaccuracy is tolerable with
// round-robin schedulers and leaves verification to future work — this
// bench performs that verification: DynaQ with live vs stale queue-length
// information on the Fig. 3 and Fig. 6 scenarios.
#include "bench/common.hpp"

using namespace dynaq;

namespace {

struct Outcome {
  std::vector<double> shares;
  double aggregate = 0.0;
};

Outcome run(bool stale, std::vector<double> weights, std::vector<int> flows,
            std::uint64_t seed) {
  const int queues = static_cast<int>(weights.size());
  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(core::SchemeKind::kDynaQ, 1 + 2 * queues, std::move(weights));
  cfg.star.scheme.dynaq.stale_queue_info = stale;
  for (int q = 0; q < queues; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = flows[static_cast<std::size_t>(q)],
                          .first_src_host = 1 + 2 * q,
                          .num_src_hosts = 2,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = seconds(std::int64_t{6});
  cfg.seed = seed;
  const auto r = harness::run_static_experiment(cfg);
  Outcome o;
  std::vector<double> means;
  for (int q = 0; q < queues; ++q) {
    means.push_back(r.meter.mean_gbps(q, 4, r.meter.num_windows()));
    o.aggregate += means.back();
  }
  for (int q = 0; q < queues; ++q) {
    o.shares.push_back(stats::share_of(means, static_cast<std::size_t>(q)));
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Ablation — DynaQ with live vs TNA-stale (deq_qdepth) queue lengths\n");

  std::puts("(a) Fig. 3 scenario: equal weights, 2 vs 16 flows (ideal 0.50/0.50)");
  harness::Table a({"queue info", "share_q1", "share_q2", "aggregate_Gbps"});
  for (const bool stale : {false, true}) {
    const auto o = run(stale, {1, 1}, {2, 16}, seed);
    a.row({stale ? "stale (TNA deq_qdepth)" : "live (ASIC)", bench::fmt(o.shares[0], 3),
           bench::fmt(o.shares[1], 3), bench::fmt(o.aggregate, 3)});
  }
  a.print();

  std::puts("\n(b) Fig. 6 scenario: weights 4:3:2:1, queue i has 2^i flows");
  harness::Table b({"queue info", "share_q1", "share_q2", "share_q3", "share_q4",
                    "aggregate_Gbps"});
  for (const bool stale : {false, true}) {
    const auto o = run(stale, {4, 3, 2, 1}, {2, 4, 8, 16}, seed);
    b.row({stale ? "stale (TNA deq_qdepth)" : "live (ASIC)", bench::fmt(o.shares[0], 3),
           bench::fmt(o.shares[1], 3), bench::fmt(o.shares[2], 3), bench::fmt(o.shares[3], 3),
           bench::fmt(o.aggregate, 3)});
  }
  b.print();
  std::puts("\npaper's conjecture: 'with round-robin based schedulers, some inaccuracy");
  std::puts("is tolerable to isolate service queues' — compare the rows");
  return 0;
}
