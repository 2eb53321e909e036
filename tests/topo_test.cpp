// Topology tests: star wiring and routing, leaf-spine ECMP and
// connectivity, egress rate shaping, host queue limits.
#include <gtest/gtest.h>

#include <set>

#include "sim/simulator.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/star.hpp"
#include "transport/host_agent.hpp"

namespace dynaq {
namespace {

TEST(StarTopology, BuildsRequestedShape) {
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 7;
  topo::StarTopology topo(sim, cfg);
  EXPECT_EQ(topo.num_hosts(), 7);
  EXPECT_EQ(topo.fabric().num_ports(), 7);
  for (int h = 0; h < 7; ++h) {
    EXPECT_EQ(topo.host(h).id(), h);
    EXPECT_EQ(topo.port_qdisc(h).state().num_queues(), 4);  // default weights
  }
}

TEST(StarTopology, DeliversBetweenAnyPair) {
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 4;
  topo::StarTopology topo(sim, cfg);
  int received = 0;
  for (int dst = 0; dst < 4; ++dst) {
    topo.host(dst).set_packet_handler([&received](net::Packet&&) { ++received; });
  }
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      topo.host(src).send(net::make_data_packet(1, static_cast<std::uint32_t>(src),
                                                static_cast<std::uint32_t>(dst), 0, 100));
    }
  }
  sim.run();
  EXPECT_EQ(received, 12);
}

TEST(StarTopology, HostQueueLimitDropsBursts) {
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_queue_bytes = 3000;  // two packets
  topo::StarTopology topo(sim, cfg);
  int received = 0;
  topo.host(0).set_packet_handler([&](net::Packet&&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    topo.host(1).send(net::make_data_packet(1, 1, 0, 0, 1460));
  }
  sim.run();
  // One packet in flight immediately + two buffered.
  EXPECT_EQ(received, 3);
}

TEST(LeafSpine, BuildsRequestedShape) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 3;
  cfg.num_spines = 3;
  cfg.hosts_per_leaf = 2;
  topo::LeafSpineTopology topo(sim, cfg);
  EXPECT_EQ(topo.num_hosts(), 6);
  EXPECT_EQ(topo.leaf_of(0), 0);
  EXPECT_EQ(topo.leaf_of(5), 2);
  // Leaf: 2 down + 3 up ports; spine: 3 ports.
  EXPECT_EQ(topo.leaf(0).num_ports(), 5);
  EXPECT_EQ(topo.spine(0).num_ports(), 3);
  // Qdiscs: 6 downlinks + 9 leaf uplinks + 9 spine downlinks.
  EXPECT_EQ(topo.all_qdiscs().size(), 24u);
}

TEST(LeafSpine, AllPairsConnected) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 3;
  cfg.num_spines = 3;
  cfg.hosts_per_leaf = 3;
  topo::LeafSpineTopology topo(sim, cfg);
  const int n = topo.num_hosts();
  std::vector<int> received(static_cast<std::size_t>(n), 0);
  for (int h = 0; h < n; ++h) {
    topo.host(h).set_packet_handler(
        [&received, h](net::Packet&& p) {
          EXPECT_EQ(static_cast<int>(p.dst), h);
          ++received[static_cast<std::size_t>(h)];
        });
  }
  std::uint32_t flow = 1;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      topo.host(src).send(net::make_data_packet(flow++, static_cast<std::uint32_t>(src),
                                                static_cast<std::uint32_t>(dst), 0, 100));
    }
  }
  sim.run();
  for (int h = 0; h < n; ++h) {
    EXPECT_EQ(received[static_cast<std::size_t>(h)], n - 1) << "host " << h;
  }
  for (int l = 0; l < 3; ++l) EXPECT_EQ(topo.leaf(l).routing_drops(), 0u);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(topo.spine(s).routing_drops(), 0u);
}

TEST(LeafSpine, IntraRackTrafficSkipsSpines) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  topo::LeafSpineTopology topo(sim, cfg);
  Time arrival = -1;
  topo.host(1).set_packet_handler([&](net::Packet&&) { arrival = sim.now(); });
  topo.host(0).send(net::make_data_packet(1, 0, 1, 0, 1460));
  sim.run();
  // Two hops (host->leaf, leaf->host): 2 serializations + 2 propagations.
  const Time tx = transmission_time(1500, cfg.link_rate_bps);
  EXPECT_EQ(arrival, 2 * tx + 2 * cfg.link_delay);
}

TEST(LeafSpine, EcmpSpreadsFlowsAcrossSpines) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 4;
  cfg.num_spines = 4;
  cfg.hosts_per_leaf = 2;
  topo::LeafSpineTopology topo(sim, cfg);

  // Count packets traversing each spine for many distinct cross-rack flows.
  std::vector<int> per_spine(4, 0);
  // Spine traversal is observable via the spine's egress qdisc stats; we
  // instead count deliveries grouped by which spine the flow hashes to by
  // sending one packet per flow and tallying spine enqueues.
  for (std::uint32_t flow = 0; flow < 400; ++flow) {
    topo.host(0).send(net::make_data_packet(flow, 0, 7, 0, 100));  // leaf 0 -> leaf 3
  }
  sim.run();
  // Leaf 0's uplink ports are indices 2..5 (after 2 down ports); packets
  // counted by the port's bytes_sent.
  int used_spines = 0;
  std::int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    const auto& port = topo.leaf(0).port(2 + s);
    if (port.packets_sent() > 0) ++used_spines;
    total += static_cast<std::int64_t>(port.packets_sent());
    // No uplink should carry a grossly disproportionate share.
    EXPECT_LT(port.packets_sent(), 200u);
    EXPECT_GT(port.packets_sent(), 40u);
  }
  EXPECT_EQ(used_spines, 4);
  EXPECT_EQ(total, 400);
}

TEST(LeafSpine, EcmpIsFlowSticky) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  topo::LeafSpineTopology topo(sim, cfg);
  // All packets of one flow must use the same spine (no reordering).
  for (int i = 0; i < 50; ++i) {
    topo.host(0).send(net::make_data_packet(/*flow=*/42, 0, 3, 0, 100));
  }
  sim.run();
  int used = 0;
  for (int s = 0; s < 2; ++s) {
    if (topo.leaf(0).port(2 + s).packets_sent() > 0) ++used;
  }
  EXPECT_EQ(used, 1);
}

TEST(LeafSpine, EndToEndFlowAcrossRacks) {
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  topo::LeafSpineTopology topo(sim, cfg);
  transport::FlowParams params;
  params.id = 9;
  params.src_host = 0;
  params.dst_host = 3;
  params.size_bytes = 500'000;
  params.rto_min = milliseconds(std::int64_t{5});
  Time done = -1;
  topo.agent(3).add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  topo.agent(0).add_sender(params).start();
  sim.run_until(seconds(std::int64_t{1}));
  ASSERT_GT(done, 0);
  // 500 KB at ~10 Gbps is ~0.4 ms plus slow start.
  EXPECT_LT(to_milliseconds(done), 5.0);
}

}  // namespace
}  // namespace dynaq
