#include "harness/static_experiment.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "ctrlplane/recovery_instrument.hpp"
#include "harness/run.hpp"
#include "sim/random.hpp"
#include "transport/host_agent.hpp"

namespace dynaq::harness {

StaticExperimentResult run_static_experiment(const StaticExperimentConfig& config) {
  topo::StarConfig star_config = config.star;
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
  Run<topo::StarTopology> run(std::move(star_config));
  sim::Rng rng(config.seed);

  const int num_queues = static_cast<int>(config.star.queue_weights.size());
  StaticExperimentResult result{
      {}, stats::ThroughputMeter(num_queues, config.meter_window), {}, {}};

  // The bottleneck switch port is the only Port on the hub, so its transmit
  // records are the packets its qdisc dequeues, at the dequeue instant.
  const std::string bottleneck_name = "sw.p" + std::to_string(config.receiver_host);
  run.topo.fabric().port(config.receiver_host).attach_telemetry(run.hub, bottleneck_name);
  run.hub.add_wire_listener([&result, num_queues](const telemetry::WireRecord& w) {
    if (w.transmit && !w.is_ack) {
      // Out-of-range queues ride the last service queue, as in enqueue().
      result.meter.record(std::min<int>(w.queue, num_queues - 1), w.size, w.when);
    }
  });
  run.instrument(config.scenario);
  // Recovery metrics (DESIGN.md §14): failover/restore windows and
  // throughput retention observed off the bottleneck port's event stream.
  std::optional<ctrlplane::RecoveryInstrument> recovery;
  if (config.control_plane.enabled) {
    recovery.emplace(run.hub, run.hub.register_port(bottleneck_name));
  }
  run.hub.enable_queue_sampling(config.queue_samples, config.queue_sample_skip);

  // Every flow runs toward the receiver; senders register under their
  // queue so scenario service_join/leave can find them.
  std::uint32_t next_flow_id = 1;
  std::vector<transport::FlowSender*> senders;
  const auto add_flow = [&](transport::FlowParams params) -> transport::FlowSender& {
    params.id = next_flow_id++;
    params.dst_host = config.receiver_host;
    params.mss = config.mss;
    params.rto_min = config.rto_min;
    run.topo.agent(config.receiver_host).add_receiver(params);
    senders.push_back(&run.topo.agent(params.src_host).add_sender(params));
    return *senders.back();
  };
  for (const SenderGroup& group : config.groups) {
    if (group.queue < 0 || group.queue >= num_queues) {
      throw std::invalid_argument("sender group references unknown queue");
    }
    for (int f = 0; f < group.num_flows; ++f) {
      const Time jitter = config.start_jitter > 0
                              ? static_cast<Time>(rng.uniform() *
                                                  static_cast<double>(config.start_jitter))
                              : 0;
      transport::FlowSender& sender =
          add_flow({.src_host = group.first_src_host + (f % group.num_src_hosts),
                    .start = group.start + jitter,
                    .stop = group.stop > 0 ? group.stop : config.duration,
                    .service_queue = group.queue,
                    .cc = group.cc});
      if (run.director) run.director->register_sender(group.queue, sender);
      sender.start();
    }
  }

  if (run.director) {
    run.director->set_incast_launcher([&run, &config, &add_flow](const scenario::Action& a) {
      // Synchronized fan-in: `count` short flows into the action's queue,
      // sourced round-robin from every non-receiver host, all launched at
      // the burst's timestamp.
      const int others = run.topo.num_hosts() - 1;
      if (others <= 0) return;
      for (int f = 0; f < a.count; ++f) {
        int src = f % others;
        if (src >= config.receiver_host) ++src;
        add_flow({.src_host = src,
                  .size_bytes = a.bytes,
                  .start = run.sim.now(),
                  .service_queue = a.queue})
            .start();
      }
    });
  }

  run.run_until(config.duration);
  run.finish(result);
  for (const transport::FlowSender* s : senders) {
    result.sender_totals.data_packets += s->stats().data_packets;
    result.sender_totals.retransmissions += s->stats().retransmissions;
    result.sender_totals.partial_ack_retx += s->stats().partial_ack_retx;
    result.sender_totals.goback_retx += s->stats().goback_retx;
    result.sender_totals.fast_retransmits += s->stats().fast_retransmits;
    result.sender_totals.timeouts += s->stats().timeouts;
    result.sender_totals.bytes_sent += s->stats().bytes_sent;
  }
  result.queue_samples = run.hub.queue_samples();
  if (recovery) {
    const ctrlplane::RecoveryInstrument::Metrics m = recovery->finalize(config.duration);
    result.telemetry.control.degraded_us = m.degraded_us;
    result.telemetry.control.recovery_us = m.recovery_us;
    result.telemetry.control.throughput_retention = m.throughput_retention;
  }
  return result;
}

}  // namespace dynaq::harness
