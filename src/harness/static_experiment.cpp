#include "harness/static_experiment.hpp"

#include <optional>
#include <stdexcept>

#include "check/invariant_auditor.hpp"
#include "check/trajectory_hash.hpp"
#include "ctrlplane/recovery_instrument.hpp"
#include "scenario/director.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/host_agent.hpp"

namespace dynaq::harness {

StaticExperimentResult run_static_experiment(const StaticExperimentConfig& config) {
  sim::Simulator sim;
  sim.enable_trajectory_fingerprint(config.fingerprint_trajectory);
  sim::Rng rng(config.seed);
  topo::StarConfig star_config = config.star;
  star_config.scheme.audit = star_config.scheme.audit || config.audit_invariants;
  // Control-plane shim (DESIGN.md §14): wrap DynaQ behind the asynchronous
  // threshold-update/watchdog model on every switch port. The audit
  // decorator still applies on top, so the shim's bounded-staleness
  // contract is verified like any other policy's.
  if (config.control_plane.enabled &&
      star_config.scheme.kind == core::SchemeKind::kDynaQ) {
    const ctrlplane::ControlPlaneConfig cp = config.control_plane;
    const core::DynaQPolicy::Options dynaq_opts = star_config.scheme.dynaq;
    star_config.scheme.custom_policy_sim =
        [cp, dynaq_opts](sim::Simulator& s) -> std::unique_ptr<net::BufferPolicy> {
      return std::make_unique<ctrlplane::ControlPlanePolicy>(s, cp, dynaq_opts);
    };
  }
  topo::StarTopology topo(sim, star_config);

  const int num_queues = static_cast<int>(config.star.queue_weights.size());
  StaticExperimentResult result{
      stats::ThroughputMeter(num_queues, config.meter_window), {}, {}, {}, 0, {}, {}, {}};

  net::MultiQueueQdisc& bottleneck = topo.port_qdisc(config.receiver_host);
  bottleneck.on_dequeue_hook = [&result](int q, const net::Packet& p, Time now) {
    if (!p.is_ack()) result.meter.record(q, p.size, now);
  };

  // One hub per simulator (DESIGN.md §8): the bottleneck switch port and
  // every host NIC report into it; queue_samples ride the hub's series.
  const bool collect = config.collect_telemetry || config.queue_samples > 0;
  telemetry::Hub hub(sim,
                     {.enabled = collect || config.fingerprint_trajectory,
                      .ring_capacity = config.telemetry_ring,
                      .fingerprint = config.fingerprint_trajectory});
  const std::string bottleneck_name = "sw.p" + std::to_string(config.receiver_host);
  if (hub.enabled()) {
    bottleneck.attach_telemetry(hub, bottleneck_name);
    for (int i = 0; i < topo.num_hosts(); ++i) {
      topo.host(i).nic().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
    }
  }
  // Recovery metrics (DESIGN.md §14): failover/restore windows and
  // throughput retention observed off the bottleneck port's event stream.
  std::optional<ctrlplane::RecoveryInstrument> recovery;
  if (config.control_plane.enabled && hub.enabled()) {
    recovery.emplace(hub, hub.register_port(bottleneck_name));
  }
  if (config.queue_samples > 0) {
    hub.enable_queue_sampling(config.queue_samples, config.queue_sample_skip);
  }

  // Scenario timeline (DESIGN.md §11): the director mutates components only
  // through the handles the topology registers; senders register under
  // their group's queue so service_join/leave can find them.
  std::optional<scenario::ScenarioDirector> director;
  if (config.scenario != nullptr) {
    director.emplace(sim);
    if (hub.enabled()) director->attach_telemetry(hub);
    topo.register_scenario_handles(*director);
  }

  std::uint32_t next_flow_id = 1;
  std::vector<transport::FlowSender*> senders;
  for (const SenderGroup& group : config.groups) {
    if (group.queue < 0 || group.queue >= num_queues) {
      throw std::invalid_argument("sender group references unknown queue");
    }
    for (int f = 0; f < group.num_flows; ++f) {
      const int src = group.first_src_host + (f % group.num_src_hosts);
      transport::FlowParams params;
      params.id = next_flow_id++;
      params.src_host = src;
      params.dst_host = config.receiver_host;
      params.size_bytes = 0;  // unbounded
      params.start = group.start +
                     (config.start_jitter > 0
                          ? static_cast<Time>(rng.uniform() *
                                              static_cast<double>(config.start_jitter))
                          : 0);
      params.stop = group.stop > 0 ? group.stop : config.duration;
      params.service_queue = group.queue;
      params.cc = group.cc;
      params.mss = config.mss;
      params.initial_cwnd_packets = config.initial_cwnd_packets;
      params.rto_min = config.rto_min;

      topo.agent(config.receiver_host).add_receiver(params);
      transport::FlowSender& sender = topo.agent(src).add_sender(params);
      senders.push_back(&sender);
      if (director) director->register_sender(group.queue, sender);
      sender.start();
    }
  }

  if (director) {
    director->set_incast_launcher([&topo, &config, &sim, &next_flow_id,
                                   &senders](const scenario::Action& a) {
      // Synchronized fan-in: `count` short flows into the action's queue,
      // sourced round-robin from every non-receiver host, all launched at
      // the burst's timestamp.
      const int others = topo.num_hosts() - 1;
      if (others <= 0) return;
      for (int f = 0; f < a.count; ++f) {
        int src = f % others;
        if (src >= config.receiver_host) ++src;
        transport::FlowParams params;
        params.id = next_flow_id++;
        params.src_host = src;
        params.dst_host = config.receiver_host;
        params.size_bytes = a.bytes;
        params.start = sim.now();
        params.service_queue = a.queue;
        params.mss = config.mss;
        params.initial_cwnd_packets = config.initial_cwnd_packets;
        params.rto_min = config.rto_min;
        topo.agent(config.receiver_host).add_receiver(params);
        transport::FlowSender& sender = topo.agent(src).add_sender(params);
        senders.push_back(&sender);
        sender.start();
      }
    });
    director->arm(*config.scenario);
  }

  sim.run_until(config.duration);
  if (director) result.scenario_actions = director->actions_applied();
  for (const transport::FlowSender* s : senders) {
    result.sender_totals.data_packets += s->stats().data_packets;
    result.sender_totals.retransmissions += s->stats().retransmissions;
    result.sender_totals.partial_ack_retx += s->stats().partial_ack_retx;
    result.sender_totals.goback_retx += s->stats().goback_retx;
    result.sender_totals.fast_retransmits += s->stats().fast_retransmits;
    result.sender_totals.timeouts += s->stats().timeouts;
    result.sender_totals.bytes_sent += s->stats().bytes_sent;
  }
  result.queue_samples = hub.queue_samples();
  result.bottleneck_stats = bottleneck.stats();
  result.events = sim.events_processed();
  if (collect) {
    result.telemetry = hub.summary();
    result.telemetry_events = hub.ring_events();
    result.telemetry_ports = hub.port_names();
    if (recovery) {
      const ctrlplane::RecoveryInstrument::Metrics m = recovery->finalize(config.duration);
      result.telemetry.control.degraded_us = m.degraded_us;
      result.telemetry.control.recovery_us = m.recovery_us;
      result.telemetry.control.throughput_retention = m.throughput_retention;
    }
  }
  if (config.fingerprint_trajectory) {
    check::TrajectoryHash th;
    th.fold(sim).fold(hub);
    // Audit ledgers in ascending port index: a fixed fold order so equal
    // trajectories hash equal regardless of construction details.
    for (int i = 0; i < topo.num_hosts(); ++i) {
      if (const auto* audited = dynamic_cast<const check::AuditedBufferPolicy*>(
              &topo.port_qdisc(i).policy())) {
        th.fold(audited->ledger());
      }
    }
    result.trajectory_hash = th.value();
  }
  return result;
}

}  // namespace dynaq::harness
