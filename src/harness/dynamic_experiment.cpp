#include "harness/dynamic_experiment.hpp"

#include <stdexcept>

#include "harness/run.hpp"
#include "sim/random.hpp"
#include "transport/host_agent.hpp"
#include "workload/flow_generator.hpp"

namespace dynaq::harness {
namespace {

// RTOmin of the two setups (the initial SRTTs follow their link delays).
constexpr Time kStarRtoMin = milliseconds(std::int64_t{10});
constexpr Time kFabricRtoMin = milliseconds(std::int64_t{5});

// Wires one finite request flow (sender at src, receiver at dst) and
// records its completion into `result`, which starts with every flow
// counted incomplete.
template <typename TopoT>
void install_flow(TopoT& topo, const transport::FlowParams& params,
                  DynamicExperimentResult& result) {
  transport::FlowReceiver& rx = topo.agent(params.dst_host).add_receiver(params);
  rx.on_complete = [&result](const transport::FlowReceiver& r) {
    result.fcts.record(r.params().id, r.params().size_bytes, r.params().start,
                       r.completion_time());
    --result.incomplete;
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

  Run<topo::StarTopology> run(config.star);
  sim::Rng rng(config.seed);
  net::MultiQueueQdisc& bottleneck = run.topo.port_qdisc(config.client_host);
  bottleneck.attach_telemetry(run.hub, "sw.p" + std::to_string(config.client_host));
  run.instrument(config.scenario);

  const Time initial_srtt = 4 * config.star.link_delay + microseconds(std::int64_t{25});
  DynamicExperimentResult result;
  result.incomplete = config.num_flows;

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
    install_flow(run.topo,
                 {.id = next_id++, .src_host = req.src_host, .dst_host = req.dst_host,
                  .size_bytes = req.size_bytes, .start = req.start,
                  .service_queue = req.service_queue, .cc = config.cc, .mss = config.mss,
                  .rto_min = kStarRtoMin, .initial_srtt = initial_srtt, .pias = config.pias,
                  .pias_threshold_bytes = config.pias_threshold_bytes},
                 result);
  }

  run.run_until(config.max_sim_time);
  run.finish(result);
  result.drops = bottleneck.stats().dropped;
  result.marks = bottleneck.stats().marked;
  result.bottleneck = bottleneck.stats();
  return result;
}

DynamicExperimentResult run_dynamic_leaf_spine_experiment(
    const DynamicLeafSpineConfig& config) {
  // Services occupy dedicated queues 1..num_services; queue 0 is shared SPQ.
  const int num_queues = static_cast<int>(config.fabric.queue_weights.size());
  if (config.num_services > num_queues - 1) {
    throw std::invalid_argument("more services than dedicated queues");
  }

  Run<topo::LeafSpineTopology> run(config.fabric);
  sim::Rng rng(config.seed);
  const auto& qdiscs = run.topo.all_qdiscs();
  for (std::size_t i = 0; i < qdiscs.size(); ++i) {
    qdiscs[i]->attach_telemetry(run.hub, "sw.p" + std::to_string(i));
  }
  run.instrument(config.scenario);
  const int num_hosts = run.topo.num_hosts();
  // Every flow needs a destination other than its source.
  if (num_hosts < 2) throw std::invalid_argument("leaf-spine fabric has fewer than two hosts");

  const Time initial_srtt = 8 * config.fabric.link_delay + microseconds(std::int64_t{5});
  DynamicExperimentResult result;
  result.incomplete = config.num_flows;

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
    const int src = static_cast<int>(rng.uniform_int(0, num_hosts - 1));
    int dst = src;
    while (dst == src) dst = static_cast<int>(rng.uniform_int(0, num_hosts - 1));
    // Braced initializers run in order: the size draw follows the hosts'.
    install_flow(run.topo,
                 {.id = next_id++, .src_host = src, .dst_host = dst,
                  .size_bytes = service_dist[static_cast<std::size_t>(service)]->sample(rng),
                  .start = seconds(t_seconds),
                  .service_queue = 1 + service,  // queue 0 is the shared SPQ queue
                  .cc = config.cc, .mss = config.mss, .rto_min = kFabricRtoMin,
                  .initial_srtt = initial_srtt, .pias = config.pias,
                  .pias_threshold_bytes = config.pias_threshold_bytes},
                 result);
  }

  run.run_until(config.max_sim_time);
  run.finish(result);
  for (const net::MultiQueueQdisc* q : qdiscs) {
    result.drops += q->stats().dropped;
    result.marks += q->stats().marked;
  }
  return result;
}

}  // namespace dynaq::harness
