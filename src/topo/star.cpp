#include "topo/star.hpp"

#include <string>

#include "ctrlplane/control_plane.hpp"
#include "scenario/director.hpp"

namespace dynaq::topo {

StarTopology::StarTopology(sim::Simulator& sim, StarConfig config)
    : sim_(sim), config_(std::move(config)) {
  switch_ = std::make_unique<net::Switch>(sim_, /*id=*/0);

  for (int h = 0; h < config_.num_hosts; ++h) {
    // Host NIC: finite drop-tail (the testbed's qdisc rate-limits just
    // below line rate so host-side buffering never drops).
    auto nic = std::make_unique<net::Port>(
        sim_, config_.link_rate_bps, config_.link_delay,
        std::make_unique<net::DropTailQueue>(config_.host_queue_bytes));
    net::Port& nic_ref = *nic;
    hosts_.push_back(std::make_unique<net::Host>(sim_, h, std::move(nic)));
    agents_.push_back(std::make_unique<transport::HostAgent>(*hosts_.back()));

    // Switch egress port toward host h, with the configured multi-queue
    // buffer scheme.
    auto qdisc = core::make_mq_qdisc(sim_, config_.queue_weights, config_.buffer_bytes,
                                     config_.scheme,
                                     make_scheduler(config_.scheduler, config_.quantum_base));
    port_qdiscs_.push_back(qdisc.get());
    auto port = std::make_unique<net::Port>(sim_, config_.link_rate_bps, config_.link_delay,
                                            std::move(qdisc));
    net::Port& port_ref = *port;
    const int idx = switch_->add_port(std::move(port));
    (void)idx;
    net::connect(nic_ref, port_ref);
  }

  // Port i faces host i, so routing is the identity on the destination.
  switch_->set_router([](const net::Packet& p) { return static_cast<int>(p.dst); });
}

void StarTopology::register_scenario_handles(scenario::ScenarioDirector& director) {
  for (int i = 0; i < num_hosts(); ++i) {
    const std::string sw = "sw.p" + std::to_string(i);
    const std::string nic = "h" + std::to_string(i) + ".nic";
    director.register_qdisc(sw, port_qdisc(i));
    director.register_link(sw, fabric().port(i));
    director.register_link(nic, host(i).nic());
    // Control-plane shim handle (DESIGN.md §14), present only when the
    // scheme installed one (possibly under the audit decorator).
    if (ctrlplane::ControlPlanePolicy* shim =
            ctrlplane::find_control_plane(port_qdisc(i).policy())) {
      director.register_ctrlplane(sw + ".ctrl", *shim);
    }
  }
}

}  // namespace dynaq::topo
