#include "harness/dynamic_experiment.hpp"

#include <optional>
#include <stdexcept>

#include "check/invariant_auditor.hpp"
#include "check/trajectory_hash.hpp"
#include "scenario/director.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/host_agent.hpp"
#include "workload/flow_generator.hpp"

namespace dynaq::harness {
namespace {

// Builds and arms a scenario director over the topology's handles when the
// config carries a timeline (DESIGN.md §11). The director is emplaced into
// the caller's optional (it is pinned: scheduled closures capture `this`).
template <typename TopoT>
void arm_scenario(std::optional<dynaq::scenario::ScenarioDirector>& director,
                  sim::Simulator& sim, telemetry::Hub& hub, TopoT& topo,
                  const dynaq::scenario::Scenario* scenario) {
  if (scenario == nullptr) return;
  director.emplace(sim);
  if (hub.enabled()) director->attach_telemetry(hub);
  topo.register_scenario_handles(*director);
  director->arm(*scenario);
}

// Folds one qdisc's audit ledger when the port runs under the auditor —
// part of the per-run trajectory hash (DESIGN.md §10).
void fold_ledger(check::TrajectoryHash& th, const net::MultiQueueQdisc& qdisc) {
  if (const auto* audited =
          dynamic_cast<const check::AuditedBufferPolicy*>(&qdisc.policy())) {
    th.fold(audited->ledger());
  }
}

// Wires one finite request flow (sender at src, receiver at dst) and
// records its completion into `result`.
template <typename TopoT>
void install_flow(TopoT& topo, const transport::FlowParams& params,
                  DynamicExperimentResult& result, std::size_t& outstanding) {
  transport::FlowReceiver& rx = topo.agent(params.dst_host).add_receiver(params);
  rx.on_complete = [&result, &outstanding](const transport::FlowReceiver& r) {
    result.fcts.record(r.params().id, r.params().size_bytes, r.params().start,
                       r.completion_time());
    --outstanding;
  };
  topo.agent(params.src_host).add_sender(params).start();
}

}  // namespace

DynamicExperimentResult run_dynamic_star_experiment(const DynamicStarConfig& config) {
  if (config.dist == nullptr) throw std::invalid_argument("dist must be set");
  const int num_queues = static_cast<int>(config.star.queue_weights.size());
  if (config.first_service_queue >= num_queues) {
    throw std::invalid_argument("no dedicated service queues configured");
  }

  sim::Simulator sim;
  sim.enable_trajectory_fingerprint(config.fingerprint_trajectory);
  sim::Rng rng(config.seed);
  topo::StarConfig star_config = config.star;
  star_config.scheme.audit = star_config.scheme.audit || config.audit_invariants;
  topo::StarTopology topo(sim, star_config);

  Time initial_srtt = config.initial_srtt;
  if (initial_srtt == 0) initial_srtt = 4 * config.star.link_delay + microseconds(std::int64_t{25});
  if (initial_srtt < 0) initial_srtt = 0;

  DynamicExperimentResult result;
  std::size_t outstanding = config.num_flows;

  telemetry::Hub hub(sim, {.enabled = config.collect_telemetry ||
                                      config.fingerprint_trajectory,
                           .ring_capacity = config.telemetry_ring,
                           .fingerprint = config.fingerprint_trajectory});
  if (hub.enabled()) {
    topo.port_qdisc(config.client_host)
        .attach_telemetry(hub, "sw.p" + std::to_string(config.client_host));
    for (int i = 0; i < topo.num_hosts(); ++i) {
      topo.host(i).nic().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
    }
  }

  const double rate = workload::arrival_rate_for_load(
      config.load, config.star.link_rate_bps, config.dist->mean_bytes());
  const int dedicated = num_queues - config.first_service_queue;
  const auto flows = workload::generate_poisson_flows(
      config.num_flows, rate, *config.dist, rng,
      [&](std::size_t, workload::FlowRequest& req) {
        req.src_host = 1 + static_cast<int>(rng.uniform_int(0, config.num_servers - 1));
        req.dst_host = config.client_host;
        req.service_queue =
            config.first_service_queue + static_cast<int>(rng.uniform_int(0, dedicated - 1));
      });

  std::uint32_t next_id = 1;
  for (const workload::FlowRequest& req : flows) {
    transport::FlowParams params;
    params.id = next_id++;
    params.src_host = req.src_host;
    params.dst_host = req.dst_host;
    params.size_bytes = req.size_bytes;
    params.start = req.start;
    params.service_queue = req.service_queue;
    params.cc = config.cc;
    params.mss = config.mss;
    params.initial_cwnd_packets = config.initial_cwnd_packets;
    params.rto_min = config.rto_min;
    params.initial_srtt = initial_srtt;
    params.pias = config.pias;
    params.pias_threshold_bytes = config.pias_threshold_bytes;
    params.pias_high_queue = config.pias_high_queue;
    install_flow(topo, params, result, outstanding);
  }

  std::optional<dynaq::scenario::ScenarioDirector> director;
  arm_scenario(director, sim, hub, topo, config.scenario);

  sim.run_until(config.max_sim_time);
  if (director) result.scenario_actions = director->actions_applied();
  result.incomplete = outstanding;
  result.events = sim.events_processed();
  result.drops = topo.port_qdisc(config.client_host).stats().dropped;
  result.marks = topo.port_qdisc(config.client_host).stats().marked;
  result.bottleneck = topo.port_qdisc(config.client_host).stats();
  if (config.collect_telemetry) {
    result.telemetry = hub.summary();
    result.telemetry_events = hub.ring_events();
    result.telemetry_ports = hub.port_names();
  }
  if (config.fingerprint_trajectory) {
    check::TrajectoryHash th;
    th.fold(sim).fold(hub);
    for (int i = 0; i < topo.num_hosts(); ++i) fold_ledger(th, topo.port_qdisc(i));
    result.trajectory_hash = th.value();
  }
  return result;
}

DynamicExperimentResult run_dynamic_leaf_spine_experiment(
    const DynamicLeafSpineConfig& config) {
  // Services occupy dedicated queues 1..num_services; queue 0 is shared SPQ.
  const int num_queues = static_cast<int>(config.fabric.queue_weights.size());
  if (config.num_services > num_queues - 1) {
    throw std::invalid_argument("more services than dedicated queues");
  }

  sim::Simulator sim;
  sim.enable_trajectory_fingerprint(config.fingerprint_trajectory);
  sim::Rng rng(config.seed);
  topo::LeafSpineConfig fabric_config = config.fabric;
  fabric_config.scheme.audit = fabric_config.scheme.audit || config.audit_invariants;
  topo::LeafSpineTopology topo(sim, fabric_config);
  const int num_hosts = topo.num_hosts();

  Time initial_srtt = config.initial_srtt;
  if (initial_srtt == 0) initial_srtt = 8 * config.fabric.link_delay + microseconds(std::int64_t{5});
  if (initial_srtt < 0) initial_srtt = 0;

  DynamicExperimentResult result;
  std::size_t outstanding = config.num_flows;

  telemetry::Hub hub(sim, {.enabled = config.collect_telemetry || config.fingerprint_trajectory,
                           .ring_capacity = config.telemetry_ring,
                           .fingerprint = config.fingerprint_trajectory});
  if (hub.enabled()) {
    const auto& qdiscs = topo.all_qdiscs();
    for (std::size_t i = 0; i < qdiscs.size(); ++i) {
      qdiscs[i]->attach_telemetry(hub, "sw.p" + std::to_string(i));
    }
    for (int i = 0; i < num_hosts; ++i) {
      topo.host(i).nic().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
    }
  }

  // Per-service flow-size distributions, cycling through the four
  // production workloads (paper: "Different services use different traffic
  // distributions in Figure 2").
  const auto workloads = workload::all_workloads();
  std::vector<const workload::FlowSizeDistribution*> service_dist;
  double mean_size = 0.0;
  for (int s = 0; s < config.num_services; ++s) {
    service_dist.push_back(workloads[static_cast<std::size_t>(s) % workloads.size()]);
    mean_size += service_dist.back()->mean_bytes();
  }
  mean_size /= static_cast<double>(config.num_services);

  // Offered load is defined against a single access link: with uniformly
  // random destinations, each host downlink sees total_rate/num_hosts flows
  // on average, so total_rate = load · C · num_hosts / (8 · mean).
  const double total_rate =
      workload::arrival_rate_for_load(config.load, config.fabric.link_rate_bps, mean_size) *
      static_cast<double>(num_hosts);

  std::uint32_t next_id = 1;
  double t_seconds = 0.0;
  for (std::size_t i = 0; i < config.num_flows; ++i) {
    t_seconds += rng.exponential(1.0 / total_rate);
    const int service = static_cast<int>(rng.uniform_int(0, config.num_services - 1));

    transport::FlowParams params;
    params.id = next_id++;
    params.src_host = static_cast<int>(rng.uniform_int(0, num_hosts - 1));
    do {
      params.dst_host = static_cast<int>(rng.uniform_int(0, num_hosts - 1));
    } while (params.dst_host == params.src_host);
    params.size_bytes = service_dist[static_cast<std::size_t>(service)]->sample(rng);
    params.start = seconds(t_seconds);
    params.service_queue = 1 + service;  // queue 0 is the shared SPQ queue
    params.cc = config.cc;
    params.mss = config.mss;
    params.initial_cwnd_packets = config.initial_cwnd_packets;
    params.rto_min = config.rto_min;
    params.initial_srtt = initial_srtt;
    params.pias = config.pias;
    params.pias_threshold_bytes = config.pias_threshold_bytes;
    params.pias_high_queue = 0;
    install_flow(topo, params, result, outstanding);
  }

  std::optional<dynaq::scenario::ScenarioDirector> director;
  arm_scenario(director, sim, hub, topo, config.scenario);

  sim.run_until(config.max_sim_time);
  if (director) result.scenario_actions = director->actions_applied();
  result.incomplete = outstanding;
  result.events = sim.events_processed();
  for (const net::MultiQueueQdisc* q : topo.all_qdiscs()) {
    result.drops += q->stats().dropped;
    result.marks += q->stats().marked;
  }
  if (config.collect_telemetry) {
    result.telemetry = hub.summary();
    result.telemetry_events = hub.ring_events();
    result.telemetry_ports = hub.port_names();
  }
  if (config.fingerprint_trajectory) {
    check::TrajectoryHash th;
    th.fold(sim).fold(hub);
    // all_qdiscs() enumerates ports in a construction-fixed order, so the
    // ledger fold order is identical across same-seed runs.
    for (const net::MultiQueueQdisc* q : topo.all_qdiscs()) fold_ledger(th, *q);
    result.trajectory_hash = th.value();
  }
  return result;
}

}  // namespace dynaq::harness
