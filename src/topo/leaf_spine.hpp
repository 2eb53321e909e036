// Non-blocking leaf-spine fabric with per-flow ECMP — the paper's
// large-scale dynamic-flow simulation: 12 leaf switches × 12 spine
// switches, 12 hosts per leaf (144 hosts), all links 10 Gbps.
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

struct LeafSpineConfig {
  int num_leaves = 12;
  int num_spines = 12;
  int hosts_per_leaf = 12;
  double link_rate_bps = 10e9;
  // One-way propagation per link; the inter-rack base RTT spans 8 link
  // traversals (host→leaf→spine→leaf→host and back). The paper's 85.2 µs
  // base RTT gives 10.65 µs per link.
  Time link_delay = nanoseconds(10'650);
  std::int64_t buffer_bytes = 192'000;  // Broadcom Trident+ class, per port
  std::int64_t host_queue_bytes = 1'500'000;  // finite sender NIC queue (see StarConfig)
  std::vector<double> queue_weights = {1, 1, 1, 1, 1, 1, 1, 1};
  core::SchemeSpec scheme;
  SchedulerKind scheduler = SchedulerKind::kSpqOverDrr;
  std::int64_t quantum_base = 1500;
};

class LeafSpineTopology {
 public:
  LeafSpineTopology(sim::Simulator& sim, LeafSpineConfig config);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  net::Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  transport::HostAgent& agent(int i) { return *agents_[static_cast<std::size_t>(i)]; }

  int leaf_of(int host) const { return host / config_.hosts_per_leaf; }
  net::Switch& leaf(int i) { return *leaves_[static_cast<std::size_t>(i)]; }
  net::Switch& spine(int i) { return *spines_[static_cast<std::size_t>(i)]; }

  // The leaf egress buffer facing host `i` (its downlink bottleneck).
  net::MultiQueueQdisc& downlink_qdisc(int host) {
    return *down_qdiscs_[static_cast<std::size_t>(host)];
  }

  // All multi-queue qdiscs in the fabric (for aggregate drop/mark stats).
  const std::vector<net::MultiQueueQdisc*>& all_qdiscs() const { return all_qdiscs_; }

  // Registers every mutable handle with a scenario director (DESIGN.md
  // §11): per-host downlink qdisc and leaf-egress link "down.p<host>",
  // host NIC link "h<host>.nic".
  void register_scenario_handles(scenario::ScenarioDirector& director);

  const LeafSpineConfig& config() const { return config_; }

 private:
  std::unique_ptr<net::MultiQueueQdisc> new_qdisc();
  int ecmp_spine(std::uint32_t flow) const;

  sim::Simulator& sim_;
  LeafSpineConfig config_;
  std::vector<std::unique_ptr<net::Switch>> leaves_;
  std::vector<std::unique_ptr<net::Switch>> spines_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<transport::HostAgent>> agents_;
  std::vector<net::MultiQueueQdisc*> down_qdiscs_;
  std::vector<net::MultiQueueQdisc*> all_qdiscs_;
};

}  // namespace dynaq::topo
