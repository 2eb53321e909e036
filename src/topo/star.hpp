// Star (single-switch rack) topology — the paper's testbed and the
// 10/100 Gbps static-flow simulations: N hosts on one switch, every switch
// egress port carrying the configured multi-queue buffer scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheme.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "topo/scheduler_factory.hpp"
#include "transport/host_agent.hpp"

namespace dynaq::scenario {
class ScenarioDirector;
}

namespace dynaq::topo {

struct StarConfig {
  int num_hosts = 5;
  double link_rate_bps = 1e9;
  // One-way propagation delay per link. The base RTT is 4× this value
  // (host→switch→host and back) plus serialization.
  Time link_delay = microseconds(std::int64_t{125});
  std::int64_t buffer_bytes = 85'000;        // per switch egress port
  // Finite host NIC queue (Linux txqueuelen-style). Without it, slow-start
  // overshoot accumulates unbounded at the sender and the switch buffer
  // policy under test never sees the standing queue.
  std::int64_t host_queue_bytes = 1'500'000;
  std::vector<double> queue_weights = {1, 1, 1, 1};
  core::SchemeSpec scheme;
  SchedulerKind scheduler = SchedulerKind::kDrr;
  std::int64_t quantum_base = 1500;
};

class StarTopology {
 public:
  StarTopology(sim::Simulator& sim, StarConfig config);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  net::Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  transport::HostAgent& agent(int i) { return *agents_[static_cast<std::size_t>(i)]; }
  net::Switch& fabric() { return *switch_; }

  // Multi-queue egress buffer of the switch port facing host `i` — where
  // the bottleneck lives when host `i` is the receiver.
  net::MultiQueueQdisc& port_qdisc(int i) { return *port_qdiscs_[static_cast<std::size_t>(i)]; }
  const std::vector<net::MultiQueueQdisc*>& all_qdiscs() const { return port_qdiscs_; }

  // Registers every mutable handle with a scenario director (DESIGN.md
  // §11): qdisc and switch-egress link "sw.p<i>", host NIC link "h<i>.nic".
  void register_scenario_handles(scenario::ScenarioDirector& director);

  const StarConfig& config() const { return config_; }

 private:
  sim::Simulator& sim_;
  StarConfig config_;
  std::unique_ptr<net::Switch> switch_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<transport::HostAgent>> agents_;
  std::vector<net::MultiQueueQdisc*> port_qdiscs_;  // owned by the switch ports
};

}  // namespace dynaq::topo
