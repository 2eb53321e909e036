// Ablation (§II-C): chip-wide shared buffering vs per-port partitioning.
//
// "Many switches allow a single port to occupy many buffers... It also
// harms per-port fairness by taking excessive buffers that can be assigned
// to the other ports." We build that switch: two egress ports drawing from
// one shared SRAM pool under a chip-wide Dynamic Threshold, against DynaQ
// over a static per-port split of the same total memory. Port A is hammered
// by 16 flows; port B carries 2 flows and just wants its BDP.
#include <algorithm>
#include <memory>

#include "bench/common.hpp"
#include "harness/cli.hpp"
#include "net/shared_memory.hpp"
#include "stats/throughput_meter.hpp"
#include "telemetry/hub.hpp"
#include "transport/host_agent.hpp"

using namespace dynaq;

namespace {

struct Outcome {
  double port_a_gbps = 0.0;
  double port_b_gbps = 0.0;
  std::int64_t port_b_peak_occupancy = 0;
};

Outcome run(bool shared_pool, std::int64_t pool_bytes, int flows_a) {
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 8;  // hosts 0,1 receive; 2-7 send
  cfg.link_rate_bps = 1e9;
  cfg.link_delay = microseconds(std::int64_t{125});
  cfg.queue_weights.assign(8, 1.0);  // 8 service queues per port
  cfg.scheduler = topo::SchedulerKind::kDrr;

  net::SharedMemoryPool pool(pool_bytes);
  if (shared_pool) {
    // Shared-buffer switch: per-port cap = whole pool, chip-wide DT.
    cfg.buffer_bytes = pool_bytes;
    cfg.scheme.kind = core::SchemeKind::kDynamicThreshold;
    cfg.scheme.custom_policy_sim = [&pool](sim::Simulator&) {
      return std::make_unique<core::DynamicThresholdPolicy>(1.0, &pool);
    };
  } else {
    // Partitioned switch: DynaQ over a static 85 KB per port.
    cfg.buffer_bytes = pool_bytes / 2;
    cfg.scheme.kind = core::SchemeKind::kDynaQ;
  }
  topo::StarTopology topo(sim, cfg);
  if (shared_pool) {
    for (int port = 0; port < 8; ++port) topo.port_qdisc(port).attach_memory_pool(&pool);
  }

  // Port A (host 0): 16 flows across queues 0/1 from hosts 2-3.
  // Port B (host 1): 2 flows from hosts 4-5.
  std::uint32_t id = 1;
  auto start = [&](int dst, int src, int queue) {
    transport::FlowParams params;
    params.id = id++;
    params.src_host = src;
    params.dst_host = dst;
    params.size_bytes = 0;
    params.stop = seconds(std::int64_t{5});
    params.service_queue = queue;
    params.initial_srtt = microseconds(std::int64_t{525});
    topo.agent(dst).add_receiver(params);
    topo.agent(src).add_sender(params).start();
  };
  // Port A spreads its flows across all 8 service queues (a busy trunk);
  // port B carries a single flow on one queue.
  for (int f = 0; f < flows_a; ++f) start(0, 2 + f % 2, f % 8);
  start(1, 4, 0);
  start(1, 5, 1);

  // Both ports report to one hub: wire taps meter their departures (a
  // packet starts serializing as its queue releases it), and port B's
  // enqueue events track its peak occupancy.
  telemetry::Hub hub(sim);
  topo.fabric().port(0).attach_telemetry(hub, "sw.p0");
  topo.fabric().port(1).attach_telemetry(hub, "sw.p1");
  stats::ThroughputMeter meter_a(8, milliseconds(std::int64_t{500}));
  stats::ThroughputMeter meter_b(8, milliseconds(std::int64_t{500}));
  hub.add_wire_listener([&](const telemetry::WireRecord& w) {
    if (!w.transmit || w.is_ack) return;
    (w.port == 0 ? meter_a : meter_b).record(std::min<int>(w.queue, 7), w.size, w.when);
  });
  Outcome o;
  const net::MultiQueueQdisc& port_b = topo.port_qdisc(1);
  hub.subscribe([&](const telemetry::Event& e) {
    if (e.port == 1 && e.kind == telemetry::EventKind::kEnqueue) {
      o.port_b_peak_occupancy = std::max(o.port_b_peak_occupancy, port_b.state().port_bytes);
    }
  });

  sim.run_until(seconds(std::int64_t{5}));
  for (int q = 0; q < 8; ++q) {
    o.port_a_gbps += meter_a.mean_gbps(q, 2, meter_a.num_windows());
    o.port_b_gbps += meter_b.mean_gbps(q, 2, meter_b.num_windows());
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // The runs draw no random numbers, so there is no --seed.
  const harness::Cli cli(argc, argv);
  const std::int64_t pool_bytes = cli.positive("pool-kb", 120) * 1000;
  const int flows_a = static_cast<int>(cli.positive("flows-a", 32));
  cli.reject_unknown();

  std::puts("Ablation — shared switch memory (chip-wide DT) vs per-port DynaQ partition");
  std::printf("(%lldKB total; port A receives %d flows, port B receives 2 flows)\n\n",
              static_cast<long long>(pool_bytes / 1000), flows_a);

  harness::Table t({"configuration", "portA_Gbps", "portB_Gbps", "portB_peak_buffer_KB"});
  const auto shared = run(true, pool_bytes, flows_a);
  const auto split = run(false, pool_bytes, flows_a);
  t.row({"shared pool + chip-wide DT", bench::fmt(shared.port_a_gbps),
         bench::fmt(shared.port_b_gbps),
         bench::fmt(static_cast<double>(shared.port_b_peak_occupancy) / 1000.0, 1)});
  t.row({"half-pool/port + DynaQ", bench::fmt(split.port_a_gbps), bench::fmt(split.port_b_gbps),
         bench::fmt(static_cast<double>(split.port_b_peak_occupancy) / 1000.0, 1)});
  t.print();
  std::puts("\n§II-C's argument: the aggressive port can take buffers that would have");
  std::puts("belonged to the other port; DynaQ's per-port partition isolates them");
  return 0;
}
