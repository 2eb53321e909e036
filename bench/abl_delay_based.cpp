// Extension experiment (§II-B motivation): delay-based transports are a
// key reason the paper wants protocol independence. A Vegas-style
// delay-based service competes with a loss-based NewReno service:
//
//   (a) mixed into ONE service queue — the classic failure: the loss-based
//       flows keep the queue (and the delay signal) inflated and the
//       delay-based flows back off far below their share;
//   (b) on SEPARATE service queues — the scheduler isolates the delay
//       signal and the buffer policy isolates the memory; the delay-based
//       service gets its share without ECN, with any generic transport —
//       exactly the paper's service-queue-isolation claim.
#include "bench/common.hpp"
#include "transport/host_agent.hpp"

using namespace dynaq;

namespace {

struct Outcome {
  double vegas_gbps = 0.0;
  double reno_gbps = 0.0;
};

Outcome run(core::SchemeKind kind, bool separate_queues, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  topo::StarConfig cfg;
  cfg.num_hosts = 5;
  cfg.link_rate_bps = 1e9;
  cfg.link_delay = microseconds(std::int64_t{125});
  cfg.buffer_bytes = 85'000;
  cfg.queue_weights = {1, 1};
  cfg.scheme.kind = kind;
  cfg.scheduler = topo::SchedulerKind::kDrr;
  topo::StarTopology topo(sim, cfg);

  const Time duration = seconds(std::int64_t{8});
  std::vector<const transport::FlowReceiver*> vegas_rx;
  std::vector<const transport::FlowReceiver*> reno_rx;
  std::uint32_t id = 1;
  auto start = [&](transport::CcKind cc, int src, int queue,
                   std::vector<const transport::FlowReceiver*>& group) {
    transport::FlowParams params;
    params.id = id++;
    params.src_host = src;
    params.dst_host = 0;
    params.size_bytes = 0;
    params.stop = duration;
    params.service_queue = queue;
    params.cc = cc;
    params.start = static_cast<Time>(rng.uniform() *
                                     static_cast<double>(milliseconds(std::int64_t{1})));
    group.push_back(&topo.agent(0).add_receiver(params));
    topo.agent(params.src_host).add_sender(params).start();
  };
  for (int f = 0; f < 4; ++f) start(transport::CcKind::kVegas, 1 + f % 2, 0, vegas_rx);
  for (int f = 0; f < 4; ++f) {
    start(transport::CcKind::kNewReno, 3 + f % 2, separate_queues ? 1 : 0, reno_rx);
  }
  sim.run_until(duration);

  Outcome o;
  for (const auto* rx : vegas_rx) o.vegas_gbps += static_cast<double>(rx->bytes_received());
  for (const auto* rx : reno_rx) o.reno_gbps += static_cast<double>(rx->bytes_received());
  o.vegas_gbps = o.vegas_gbps * 8.0 / to_seconds(duration) / 1e9;
  o.reno_gbps = o.reno_gbps * 8.0 / to_seconds(duration) / 1e9;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Extension — delay-based (Vegas, 4 flows) vs loss-based (NewReno, 4 flows)");
  std::puts("on a 1 Gbps port; ideal split 0.50/0.50\n");

  harness::Table t({"configuration", "vegas_Gbps", "newreno_Gbps"});
  const auto mixed = run(core::SchemeKind::kBestEffort, /*separate_queues=*/false, seed);
  t.row({"one shared queue (no isolation)", bench::fmt(mixed.vegas_gbps),
         bench::fmt(mixed.reno_gbps)});
  for (const auto kind : {core::SchemeKind::kBestEffort, core::SchemeKind::kDynaQ}) {
    const auto o = run(kind, /*separate_queues=*/true, seed);
    t.row({"separate queues + " + std::string(core::scheme_name(kind)),
           bench::fmt(o.vegas_gbps), bench::fmt(o.reno_gbps)});
  }
  t.print();
  std::puts("\nin one queue the loss-based flows inflate the delay signal and Vegas");
  std::puts("collapses; separate service queues restore its share — protocol-");
  std::puts("independent isolation working for a transport that never needs a drop.");
  std::puts("DynaQ additionally keeps the *buffer* split fair when flow counts are");
  std::puts("skewed (see fig03), which BestEffort alone does not.");
  return 0;
}
