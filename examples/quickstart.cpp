// Quickstart: simulate two competing services on one switch port with
// DynaQ, and watch the dynamic thresholds give each service queue the
// buffer it needs.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "core/scheme.hpp"
#include "harness/cli.hpp"
#include "sim/simulator.hpp"
#include "stats/throughput_meter.hpp"
#include "telemetry/hub.hpp"
#include "topo/star.hpp"
#include "transport/host_agent.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  harness::Cli(argc, argv).reject_unknown();
  // 1. A 1 GbE rack: 4 hosts and a switch whose egress ports run DynaQ
  //    over two DRR service queues and an 85 KB shared buffer.
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 4;
  cfg.link_rate_bps = 1e9;
  cfg.link_delay = microseconds(std::int64_t{125});  // ~500 us base RTT
  cfg.buffer_bytes = 85'000;
  cfg.queue_weights = {1, 1};
  cfg.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.scheduler = topo::SchedulerKind::kDrr;
  topo::StarTopology topo(sim, cfg);

  // 2. Two services sending to host 0: service A (queue 0) has 2 flows,
  //    service B (queue 1) has 12 — an aggressive neighbour.
  std::uint32_t flow_id = 1;
  auto start_flow = [&](int src, int queue) {
    transport::FlowParams params;
    params.id = flow_id++;
    params.src_host = src;
    params.dst_host = 0;
    params.size_bytes = 0;  // long-lived
    params.stop = seconds(std::int64_t{3});
    params.service_queue = queue;
    topo.agent(0).add_receiver(params);
    topo.agent(src).add_sender(params).start();
  };
  for (int i = 0; i < 2; ++i) start_flow(1, /*queue=*/0);
  for (int i = 0; i < 12; ++i) start_flow(2 + i % 2, /*queue=*/1);

  // 3. Meter the bottleneck (the switch port facing host 0) through the
  //    telemetry hub's wire taps: a packet starts serializing the moment
  //    the port's queue releases it.
  telemetry::Hub hub(sim);
  topo.fabric().port(0).attach_telemetry(hub, "sw.p0");
  stats::ThroughputMeter meter(2, milliseconds(std::int64_t{250}));
  hub.add_wire_listener([&](const telemetry::WireRecord& w) {
    if (w.transmit && !w.is_ack) meter.record(std::min<int>(w.queue, 1), w.size, w.when);
  });

  sim.run_until(seconds(std::int64_t{3}));

  // 4. Report: both services should converge to ~0.5 Gbps despite the
  //    6x difference in flow count.
  std::puts("time_s  serviceA_Gbps  serviceB_Gbps");
  for (std::size_t w = 0; w < meter.num_windows(); ++w) {
    std::printf("%5.2f   %13.3f  %13.3f\n", (static_cast<double>(w) + 0.5) * 0.25,
                meter.gbps(w, 0), meter.gbps(w, 1));
  }
  const auto thresholds = topo.port_qdisc(0).policy().thresholds();
  std::printf("\nfinal DynaQ drop thresholds: queueA=%lld B, queueB=%lld B (sum=85000)\n",
              static_cast<long long>(thresholds[0]), static_cast<long long>(thresholds[1]));
  std::printf("drops at bottleneck: %llu\n",
              static_cast<unsigned long long>(topo.port_qdisc(0).stats().dropped));
  return 0;
}
