#include "topo/leaf_spine.hpp"

#include <string>

#include "scenario/director.hpp"

namespace dynaq::topo {
namespace {

// splitmix64 finalizer — a cheap, well-mixed per-flow ECMP hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Folded into every flow id before mixing. Changing it moves flows to
// other spines, and with them every leaf-spine trajectory.
constexpr std::uint64_t kEcmpSalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

std::unique_ptr<net::MultiQueueQdisc> LeafSpineTopology::new_qdisc() {
  return core::make_mq_qdisc(sim_, config_.queue_weights, config_.buffer_bytes, config_.scheme,
                             make_scheduler(config_.scheduler, config_.quantum_base));
}

int LeafSpineTopology::ecmp_spine(std::uint32_t flow) const {
  return static_cast<int>(mix64(flow ^ kEcmpSalt) %
                          static_cast<std::uint64_t>(config_.num_spines));
}

LeafSpineTopology::LeafSpineTopology(sim::Simulator& sim, LeafSpineConfig config)
    : sim_(sim), config_(std::move(config)) {
  const int hpl = config_.hosts_per_leaf;

  for (int l = 0; l < config_.num_leaves; ++l) {
    leaves_.push_back(std::make_unique<net::Switch>(sim_, l));
  }
  for (int s = 0; s < config_.num_spines; ++s) {
    spines_.push_back(std::make_unique<net::Switch>(sim_, 1000 + s));
  }

  // Hosts and leaf downlinks. Leaf port h (h < hpl) faces local host h.
  for (int l = 0; l < config_.num_leaves; ++l) {
    for (int h = 0; h < hpl; ++h) {
      const int host_id = l * hpl + h;
      auto nic = std::make_unique<net::Port>(sim_, config_.link_rate_bps, config_.link_delay,
          std::make_unique<net::DropTailQueue>(config_.host_queue_bytes));
      net::Port& nic_ref = *nic;
      hosts_.push_back(std::make_unique<net::Host>(sim_, host_id, std::move(nic)));
      agents_.push_back(std::make_unique<transport::HostAgent>(*hosts_.back()));

      auto qdisc = new_qdisc();
      down_qdiscs_.push_back(qdisc.get());
      all_qdiscs_.push_back(qdisc.get());
      auto port = std::make_unique<net::Port>(sim_, config_.link_rate_bps, config_.link_delay,
                                              std::move(qdisc));
      net::Port& port_ref = *port;
      leaves_[static_cast<std::size_t>(l)]->add_port(std::move(port));
      net::connect(nic_ref, port_ref);
    }
  }

  // Uplinks: leaf port hpl+s faces spine s; spine port l faces leaf l.
  for (int l = 0; l < config_.num_leaves; ++l) {
    for (int s = 0; s < config_.num_spines; ++s) {
      auto up_qdisc = new_qdisc();
      all_qdiscs_.push_back(up_qdisc.get());
      auto up = std::make_unique<net::Port>(sim_, config_.link_rate_bps, config_.link_delay,
                                            std::move(up_qdisc));
      net::Port& up_ref = *up;
      leaves_[static_cast<std::size_t>(l)]->add_port(std::move(up));

      auto down_qdisc = new_qdisc();
      all_qdiscs_.push_back(down_qdisc.get());
      auto down = std::make_unique<net::Port>(sim_, config_.link_rate_bps, config_.link_delay,
                                              std::move(down_qdisc));
      net::Port& down_ref = *down;
      spines_[static_cast<std::size_t>(s)]->add_port(std::move(down));

      net::connect(up_ref, down_ref);
    }
  }

  for (int l = 0; l < config_.num_leaves; ++l) {
    leaves_[static_cast<std::size_t>(l)]->set_router([this, l, hpl](const net::Packet& p) {
      const int dst = static_cast<int>(p.dst);
      if (leaf_of(dst) == l) return dst % hpl;
      return hpl + ecmp_spine(p.flow);
    });
  }
  for (int s = 0; s < config_.num_spines; ++s) {
    spines_[static_cast<std::size_t>(s)]->set_router([this](const net::Packet& p) {
      return leaf_of(static_cast<int>(p.dst));
    });
  }
}

void LeafSpineTopology::register_scenario_handles(scenario::ScenarioDirector& director) {
  // Leaf port (host % hosts_per_leaf) is host's downlink (see constructor).
  for (int i = 0; i < num_hosts(); ++i) {
    const std::string down = "down.p" + std::to_string(i);
    director.register_qdisc(down, downlink_qdisc(i));
    director.register_link(down, leaf(leaf_of(i)).port(i % config_.hosts_per_leaf));
    director.register_link("h" + std::to_string(i) + ".nic", host(i).nic());
  }
}

}  // namespace dynaq::topo
