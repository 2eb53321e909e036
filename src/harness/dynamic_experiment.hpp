// Dynamic-flow experiments: open-loop Poisson request workloads with FCT
// collection — the setup behind Figs. 8, 9 (testbed star) and 13
// (leaf-spine fabric).
#pragma once

#include <cstdint>

#include "harness/run_result.hpp"
#include "scenario/scenario.hpp"
#include "stats/fct_recorder.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/star.hpp"
#include "transport/flow.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq::harness {

// Fig. 8/9 scenario: `num_servers` servers send Poisson-arriving responses
// (sizes from `dist`) to one client over a star; the client downlink is the
// bottleneck whose load is swept. Each flow lands on a uniformly random
// dedicated service queue, with PIAS promoting its first 100 KB to the
// strict-priority queue when enabled. Flows run on persistent connections:
// RTOmin 10 ms, initial SRTT 4 x link delay + 25 us (about the base RTT).
struct DynamicStarConfig {
  topo::StarConfig star;
  int client_host = 0;
  int num_servers = 4;
  std::size_t num_flows = 2000;
  double load = 0.5;  // fraction of the client link capacity
  const workload::FlowSizeDistribution* dist = nullptr;
  transport::CcKind cc = transport::CcKind::kNewReno;
  bool pias = true;
  std::int64_t pias_threshold_bytes = 100'000;
  int first_service_queue = 1;  // dedicated queues [first, num_queues)
  std::int32_t mss = net::kDefaultMss;
  std::uint64_t seed = 1;
  Time max_sim_time = seconds(std::int64_t{3600});
  // Optional mid-run timeline (DESIGN.md §11). Dynamic runs register only
  // topology handles (no per-queue sender lists, no incast launcher), so
  // arm() rejects service_join/leave and incast_burst actions here.
  const scenario::Scenario* scenario = nullptr;
};

// The hub observes the measured switch ports — star: the client downlink;
// leaf-spine: every switch port — and every host NIC, so the telemetry
// summary's drops other than nic_full are the switch drops.
struct DynamicExperimentResult : RunResult {
  stats::FctRecorder fcts;
  std::size_t incomplete = 0;  // flows unfinished at max_sim_time (should be 0)
};

DynamicExperimentResult run_dynamic_star_experiment(const DynamicStarConfig& config);

// Fig. 13 scenario: all-to-all Poisson traffic over the leaf-spine fabric,
// `num_services` services on dedicated DRR queues (1..7), each service
// drawing sizes from its own workload distribution (cycled through the four
// production CDFs), PIAS promoting small flows to the shared SPQ queue.
// RTOmin 5 ms, initial SRTT 8 x link delay + 5 us (about the base RTT).
struct DynamicLeafSpineConfig {
  topo::LeafSpineConfig fabric;
  std::size_t num_flows = 2000;
  double load = 0.5;  // fraction of per-host access capacity
  int num_services = 7;
  transport::CcKind cc = transport::CcKind::kNewReno;
  bool pias = true;
  std::int64_t pias_threshold_bytes = 100'000;
  std::int32_t mss = net::kDefaultMss;
  std::uint64_t seed = 1;
  Time max_sim_time = seconds(std::int64_t{3600});
  const scenario::Scenario* scenario = nullptr;  // see DynamicStarConfig
};

DynamicExperimentResult run_dynamic_leaf_spine_experiment(const DynamicLeafSpineConfig& config);

}  // namespace dynaq::harness
