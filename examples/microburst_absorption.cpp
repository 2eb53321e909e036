// Microburst absorption: what happens when a latency-sensitive service
// fires a synchronized burst into a port whose buffer is already pinned
// full by bulk traffic — comparing drop-based DynaQ with the eviction
// extension (and PQL's hard reservation).
//
//   microburst_absorption [--burst-flows 12] [--burst-kb 20] [--seed 1]
#include <cstdio>

#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/fct_recorder.hpp"
#include "topo/star.hpp"
#include "transport/host_agent.hpp"

using namespace dynaq;

namespace {

stats::FctSummary run_burst(core::SchemeKind kind, int burst_flows, std::int64_t burst_bytes,
                            std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  topo::StarConfig cfg;
  cfg.num_hosts = 7;
  cfg.link_rate_bps = 1e9;
  cfg.link_delay = microseconds(std::int64_t{125});
  cfg.buffer_bytes = 85'000;
  cfg.queue_weights = {1, 1, 1};  // queue 0: bursty service; 1-2: bulk
  cfg.scheme.kind = kind;
  cfg.scheduler = topo::SchedulerKind::kSpqOverDrr;
  topo::StarTopology topo(sim, cfg);

  // Bulk background: 8 long-lived flows per bulk queue, pinning the buffer.
  std::uint32_t id = 1;
  for (int q = 1; q <= 2; ++q) {
    for (int f = 0; f < 8; ++f) {
      transport::FlowParams params;
      params.id = id++;
      params.src_host = 1 + 2 * (q - 1) + f % 2;
      params.dst_host = 0;
      params.size_bytes = 0;
      params.stop = milliseconds(std::int64_t{400});
      params.service_queue = q;
      params.initial_srtt = microseconds(std::int64_t{525});
      topo.agent(0).add_receiver(params);
      topo.agent(params.src_host).add_sender(params).start();
    }
  }

  // The microburst: `burst_flows` request responses fired within 100 us of
  // each other at t=200 ms, from two hosts, on the high-priority queue.
  stats::FctRecorder fcts;
  for (int f = 0; f < burst_flows; ++f) {
    transport::FlowParams params;
    params.id = id++;
    params.src_host = 5 + f % 2;
    params.dst_host = 0;
    params.size_bytes = burst_bytes;
    params.start = milliseconds(std::int64_t{200}) +
                   static_cast<Time>(rng.uniform() * static_cast<double>(microseconds(
                                                         std::int64_t{100})));
    params.service_queue = 0;
    params.initial_srtt = microseconds(std::int64_t{525});
    auto& rx = topo.agent(0).add_receiver(params);
    rx.on_complete = [&fcts](const transport::FlowReceiver& r) {
      fcts.record(r.params().id, r.params().size_bytes, r.params().start, r.completion_time());
    };
    topo.agent(params.src_host).add_sender(params).start();
  }

  sim.run_until(milliseconds(std::int64_t{450}));
  return fcts.summarize();
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const int burst_flows = static_cast<int>(cli.positive("burst-flows", 6));
  const std::int64_t burst_bytes = cli.positive("burst-kb", 8) * 1000;
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::printf("Microburst: %d x %lld KB responses into a buffer pinned by 16 bulk flows\n",
              burst_flows, static_cast<long long>(burst_bytes / 1000));
  std::puts("(queue 0 = strict-priority burst queue; queues 1-2 = bulk DRR)\n");

  harness::Table t({"scheme", "completed", "avg_ms", "p99_ms"});
  for (const auto kind : {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                          core::SchemeKind::kDynaQ, core::SchemeKind::kDynaQEvict}) {
    const auto s = run_burst(kind, burst_flows, burst_bytes, seed);
    t.row({std::string(core::scheme_name(kind)), std::to_string(s.count),
           harness::Table::num(s.avg_overall_ms, 2), harness::Table::num(s.p99_overall_ms, 2)});
  }
  t.print();
  std::puts("\nSPQ already prioritizes the burst's *service*; the schemes differ in");
  std::puts("whether the burst's packets find *buffer*: BestEffort and plain DynaQ");
  std::puts("race against the pinned port, PQL reserves a quota, and DynaQ+Evict");
  std::puts("displaces bulk tail packets on demand.");
  return 0;
}
