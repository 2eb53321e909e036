#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "workload/flow_generator.hpp"
#include "workload/flow_size_distribution.hpp"

namespace perfbench {
namespace {

using namespace dynaq;

// Benchmark sizes of the three figure points (README.md, "Noise and sizing").
constexpr double kStarFlows = 250;
constexpr int kStarServers = 4;
constexpr double kFabricFlows = 150;
constexpr int kFabricLeaves = 12;
constexpr int kFabricServices = 7;
constexpr double kStaticDurationMs = 700;

// Seed conditioning (README.md, "Seeds"): a dynamic figure point runs the
// first candidate harness seed whose flows offer this many data packets per
// flow, crossing this many switches per packet, both within
// kOfferedTolerance. The targets are the medians over candidate seeds.
struct OfferedTarget {
  double pkts_per_flow;
  double hops_per_pkt;
};
constexpr OfferedTarget kStarTarget = {1135, 1.0};  // one switch on a star
constexpr OfferedTarget kFabricTarget = {1176, 2.94};
constexpr double kOfferedTolerance = 0.02;
constexpr int kMaxCandidates = 4096;

// Fig. 12 senders: queue i (1-based) is fed by 2^(3+i) single-flow hosts.
constexpr int kStaticQueues = 8;

// Times one harness call and counts its allocations, including the
// destruction of its result (the run's teardown), which happens inside
// `call`.
template <typename Call>
RunOutcome timed(Call call) {
  const std::uint64_t allocations = alloc::count();
  const auto start = std::chrono::steady_clock::now();
  RunOutcome out = call();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.allocations = alloc::count() - allocations;
  return out;
}

core::SchemeSpec dynaq_scheme() {
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQ;
  return spec;
}

// Fig. 8 testbed star: 1 GbE, 85 KB Broadcom-class buffer, SPQ(1)/DRR(4).
topo::StarConfig testbed_star() {
  topo::StarConfig star;
  star.num_hosts = 5;
  star.link_rate_bps = 1e9;
  star.link_delay = microseconds(std::int64_t{125});
  star.buffer_bytes = 85'000;
  star.queue_weights = {1, 1, 1, 1, 1};
  star.scheme = dynaq_scheme();
  star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  star.quantum_base = 1500;
  return star;
}

// Fig. 13 fabric: 12x12 leaf-spine at 10 Gbps, SPQ(1)/DRR(7).
topo::LeafSpineConfig paper_fabric() {
  topo::LeafSpineConfig fabric;
  fabric.num_leaves = kFabricLeaves;
  fabric.num_spines = kFabricLeaves;
  fabric.hosts_per_leaf = kFabricLeaves;
  fabric.queue_weights.assign(8, 1.0);
  fabric.scheme = dynaq_scheme();
  fabric.scheduler = topo::SchedulerKind::kSpqOverDrr;
  return fabric;
}

// Fig. 12 star: 100 Gbps, Trident 3 class 1 MB buffer, 8 WRR queues.
topo::StarConfig highspeed_star() {
  topo::StarConfig star;
  star.link_rate_bps = 100e9;
  star.link_delay = microseconds(std::int64_t{10});
  star.buffer_bytes = 1'000'000;
  star.queue_weights.assign(kStaticQueues, 1.0);
  star.scheme = dynaq_scheme();
  star.scheduler = topo::SchedulerKind::kWrr;
  star.quantum_base = 9000;
  star.host_queue_bytes = 4'000'000;
  return star;
}

std::size_t scaled_flows(double flows, const WorkloadSize& size) {
  return static_cast<std::size_t>(std::max(1.0, std::round(flows * size.scale)));
}

std::uint64_t packets_of(std::int64_t bytes, std::int32_t mss) {
  return static_cast<std::uint64_t>((bytes + mss - 1) / mss);
}

// What a candidate's flows offer: data packets, and packet-switch hops (each
// packet counted once per switch it crosses), the two quantities the work
// of a dynamic figure point follows.
struct Offered {
  std::uint64_t pkts = 0;
  std::uint64_t pkt_hops = 0;
};

// The flow sizes run_dynamic_star_experiment draws for `seed`: the same
// generator call with the same placement draws, in the same order.
Offered star_offered(std::uint64_t seed, std::size_t flows) {
  const topo::StarConfig star = testbed_star();
  const workload::FlowSizeDistribution& dist = workload::web_search_workload();
  sim::Rng rng(seed);
  const int dedicated = static_cast<int>(star.queue_weights.size()) - 1;
  const auto requests = workload::generate_poisson_flows(
      flows, workload::arrival_rate_for_load(0.5, star.link_rate_bps, dist.mean_bytes()), dist,
      rng, [&](std::size_t, workload::FlowRequest&) {
        rng.uniform_int(0, kStarServers - 1);
        rng.uniform_int(0, dedicated - 1);
      });
  Offered offered;
  for (const workload::FlowRequest& r : requests) {
    offered.pkts += packets_of(r.size_bytes, net::kDefaultMss);
  }
  offered.pkt_hops = offered.pkts;  // every packet crosses the one switch
  return offered;
}

// The flows run_dynamic_leaf_spine_experiment draws for `seed`. A flow
// within one leaf crosses one switch; any other crosses leaf, spine, leaf.
Offered fabric_offered(std::uint64_t seed, std::size_t flows) {
  const auto dists = workload::all_workloads();
  const std::int64_t hosts = std::int64_t{kFabricLeaves} * kFabricLeaves;
  sim::Rng rng(seed);
  Offered offered;
  for (std::size_t i = 0; i < flows; ++i) {
    rng.exponential(1.0);  // the arrival gap: one engine draw whatever its mean
    const auto service = static_cast<std::size_t>(rng.uniform_int(0, kFabricServices - 1));
    const std::int64_t src = rng.uniform_int(0, hosts - 1);
    std::int64_t dst = src;
    while (dst == src) dst = rng.uniform_int(0, hosts - 1);
    const std::uint64_t pkts =
        packets_of(dists[service % dists.size()]->sample(rng), net::kDefaultMss);
    offered.pkts += pkts;
    offered.pkt_hops += pkts * (src / kFabricLeaves == dst / kFabricLeaves ? 1 : 3);
  }
  return offered;
}

Offered offered_work(WorkloadKind kind, std::uint64_t seed, const WorkloadSize& size) {
  if (kind == WorkloadKind::kStarWebsearch) {
    return star_offered(seed, scaled_flows(kStarFlows, size));
  }
  return fabric_offered(seed, scaled_flows(kFabricFlows, size));
}

void install_policy(core::SchemeSpec& scheme, const PolicyFactory& factory) {
  if (factory) scheme.custom_policy_sim = factory;
}

RunOutcome from_dynamic(const harness::DynamicExperimentResult& r, std::int32_t mss, int queues) {
  RunOutcome out;
  out.events = r.events;
  for (const stats::FlowRecord& f : r.fcts.records()) {
    out.delivered_pkts += packets_of(f.size_bytes, mss);
  }
  out.trajectory_hash = r.trajectory_hash;
  out.flows = r.fcts.count();
  out.incomplete = r.incomplete;
  out.queues = queues;
  out.drops = r.telemetry.total_drops();
  out.fct = r.fcts.summarize();
  out.telemetry = r.telemetry;
  return out;
}

RunOutcome run_star_websearch(const RunRequest& req) {
  harness::DynamicStarConfig cfg;
  cfg.star = testbed_star();
  install_policy(cfg.star.scheme, req.policy_factory);
  cfg.client_host = 0;
  cfg.num_servers = kStarServers;
  cfg.num_flows = scaled_flows(kStarFlows, req.size);
  cfg.load = 0.5;
  cfg.dist = &workload::web_search_workload();
  cfg.cc = transport::CcKind::kNewReno;
  cfg.pias = true;
  cfg.pias_threshold_bytes = 100'000;
  cfg.first_service_queue = 1;
  cfg.seed = req.seed;
  if (req.setup_only) cfg.max_sim_time = 0;
  return timed([&cfg] {
    return from_dynamic(harness::run_dynamic_star_experiment(cfg), cfg.mss,
                        static_cast<int>(cfg.star.queue_weights.size()));
  });
}

RunOutcome run_fabric_mixed(const RunRequest& req) {
  harness::DynamicLeafSpineConfig cfg;
  cfg.fabric = paper_fabric();
  install_policy(cfg.fabric.scheme, req.policy_factory);
  cfg.num_flows = scaled_flows(kFabricFlows, req.size);
  cfg.load = 0.5;
  cfg.num_services = kFabricServices;
  cfg.cc = transport::CcKind::kNewReno;
  cfg.pias = true;
  cfg.seed = req.seed;
  if (req.setup_only) cfg.max_sim_time = 0;
  return timed([&cfg] {
    return from_dynamic(harness::run_dynamic_leaf_spine_experiment(cfg), cfg.mss,
                        static_cast<int>(cfg.fabric.queue_weights.size()));
  });
}

RunOutcome run_static_manyflows(const RunRequest& req) {
  harness::StaticExperimentConfig cfg;
  cfg.star = highspeed_star();
  install_policy(cfg.star.scheme, req.policy_factory);
  const Time duration = milliseconds(kStaticDurationMs * req.size.scale);
  int next_host = 1;
  int flows = 0;
  for (int q = 0; q < kStaticQueues; ++q) {
    const int senders = 1 << (4 + q);
    // Queue 1 runs to the end; queues 2..8 stop every 50 ms from 200 ms
    // (scaled with the duration).
    const Time stop =
        q == 0 ? duration : milliseconds((200.0 + 50.0 * (q - 1)) * req.size.scale);
    cfg.groups.push_back({.queue = q,
                          .num_flows = senders,
                          .first_src_host = next_host,
                          .num_src_hosts = senders,
                          .start = 0,
                          .stop = stop,
                          .cc = transport::CcKind::kNewReno});
    next_host += senders;
    flows += senders;
  }
  cfg.star.num_hosts = next_host;
  cfg.receiver_host = 0;
  cfg.duration = req.setup_only ? 0 : duration;
  cfg.meter_window = milliseconds(std::int64_t{10});
  cfg.start_jitter = milliseconds(std::int64_t{1});
  cfg.mss = net::kJumboMss;
  cfg.rto_min = milliseconds(std::int64_t{5});
  cfg.seed = req.seed;
  return timed([&cfg, flows] {
    const harness::StaticExperimentResult r = harness::run_static_experiment(cfg);
    // The meter reports Gbps per 10 ms window; its bytes are whole data
    // packets of mss + header bytes.
    const double window_s = to_seconds(r.meter.window());
    std::int64_t metered = 0;
    for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
      for (int q = 0; q < r.meter.num_queues(); ++q) {
        metered += std::llround(r.meter.gbps(w, q) * 1e9 * window_s / 8.0);
      }
    }
    RunOutcome out;
    out.events = r.events;
    out.delivered_pkts = static_cast<std::uint64_t>(metered / (cfg.mss + net::kHeaderBytes));
    out.trajectory_hash = r.trajectory_hash;
    out.flows = static_cast<std::size_t>(flows);
    out.queues = kStaticQueues;
    out.drops = r.telemetry.total_drops();
    out.telemetry = r.telemetry;
    out.senders = r.sender_totals;
    return out;
  });
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (name == kWorkloadNames[i]) return static_cast<WorkloadKind>(i);
  }
  return std::nullopt;
}

std::string_view workload_name(WorkloadKind kind) {
  return kWorkloadNames[static_cast<std::size_t>(kind)];
}

RunOutcome run_workload(const RunRequest& request) {
  switch (request.kind) {
    case WorkloadKind::kStarWebsearch: return run_star_websearch(request);
    case WorkloadKind::kFabricMixed: return run_fabric_mixed(request);
    case WorkloadKind::kStaticManyflows: return run_static_manyflows(request);
  }
  throw std::logic_error("unknown workload kind");
}

PortConfig port_config(WorkloadKind kind) {
  PortConfig port;
  switch (kind) {
    case WorkloadKind::kStarWebsearch: {
      const topo::StarConfig star = testbed_star();
      port = {star.queue_weights, star.buffer_bytes, star.scheduler, star.quantum_base,
              star.scheme};
      break;
    }
    case WorkloadKind::kFabricMixed: {
      const topo::LeafSpineConfig fabric = paper_fabric();
      port = {fabric.queue_weights, fabric.buffer_bytes, fabric.scheduler, fabric.quantum_base,
              fabric.scheme};
      break;
    }
    case WorkloadKind::kStaticManyflows: {
      const topo::StarConfig star = highspeed_star();
      port = {star.queue_weights, star.buffer_bytes, star.scheduler, star.quantum_base,
              star.scheme};
      break;
    }
  }
  return port;
}

std::optional<std::uint64_t> offered_packets(WorkloadKind kind, std::uint64_t seed,
                                            const WorkloadSize& size) {
  if (kind == WorkloadKind::kStaticManyflows) return std::nullopt;
  return offered_work(kind, seed, size).pkts;
}

SeedChoice choose_harness_seed(WorkloadKind kind, std::uint64_t seed,
                               const WorkloadSize& size) {
  if (kind == WorkloadKind::kStaticManyflows) return {seed, 0, 0};
  const bool star = kind == WorkloadKind::kStarWebsearch;
  const OfferedTarget& target = star ? kStarTarget : kFabricTarget;
  const double pkts = target.pkts_per_flow *
                      static_cast<double>(scaled_flows(star ? kStarFlows : kFabricFlows, size));
  const double pkt_hops = pkts * target.hops_per_pkt;
  sim::Rng picker(seed);
  SeedChoice best{};
  double best_error = 0.0;
  for (int i = 1; i <= kMaxCandidates; ++i) {
    const std::uint64_t candidate = picker.next_u64();
    const Offered offered = offered_work(kind, candidate, size);
    const double error =
        std::max(std::abs(static_cast<double>(offered.pkts) / pkts - 1.0),
                 std::abs(static_cast<double>(offered.pkt_hops) / pkt_hops - 1.0));
    if (i == 1 || error < best_error) {
      best = {candidate, offered.pkts, i};
      best_error = error;
    }
    if (error <= kOfferedTolerance) break;
  }
  return best;
}

std::uint64_t telemetry_events(const telemetry::TelemetrySummary& s) {
  return s.enqueues + s.total_drops() + s.evictions + s.threshold_exchanges + s.ecn_marks +
         s.scenario_actions + s.control.updates + s.control.updates_lost +
         s.control.failovers + s.control.restores;
}

}  // namespace perfbench
