// Static-flow experiments: long-lived (iperf-style) senders toward one
// receiver on a star topology, measuring per-queue throughput and queue
// evolution at the bottleneck — the setup behind Figs. 1, 3-7, 10-12.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrlplane/control_plane.hpp"
#include "harness/run_result.hpp"
#include "scenario/scenario.hpp"
#include "stats/throughput_meter.hpp"
#include "telemetry/hub.hpp"
#include "topo/star.hpp"
#include "transport/flow.hpp"
#include "transport/flow_sender.hpp"

namespace dynaq::harness {

// A group of identical long-lived flows feeding one service queue. The
// group's flows originate round-robin from `num_src_hosts` hosts starting
// at `first_src_host` (the 10/100 Gbps simulations give every sender its
// own host; the testbed uses one host per queue).
struct SenderGroup {
  int queue = 0;
  int num_flows = 1;
  int first_src_host = 1;
  int num_src_hosts = 1;
  Time start = 0;
  Time stop = 0;  // 0 = run until the experiment ends
  transport::CcKind cc = transport::CcKind::kNewReno;
};

struct StaticExperimentConfig {
  topo::StarConfig star;
  std::vector<SenderGroup> groups;
  int receiver_host = 0;
  Time duration = seconds(std::int64_t{10});
  Time meter_window = milliseconds(std::int64_t{500});
  // Flows within a group start uniformly inside [start, start + jitter),
  // emulating the few-RTT skew of real iperf process launches.
  Time start_jitter = milliseconds(std::int64_t{1});
  std::int32_t mss = net::kDefaultMss;
  Time rto_min = milliseconds(std::int64_t{10});
  std::size_t queue_samples = 0;  // >0: record per-op queue length samples
  std::size_t queue_sample_skip = 0;
  std::uint64_t seed = 1;
  // Control-plane model (DESIGN.md §14): when enabled and the scheme is
  // kDynaQ, every switch port runs its DynaQ policy behind a
  // ctrlplane::ControlPlanePolicy shim (async threshold updates, watchdog
  // failover to DT, scenario-drivable faults), and a RecoveryInstrument on
  // the bottleneck port derives degraded-time / recovery-time / throughput-
  // retention metrics into the result's TelemetrySummary. Other schemes
  // ignore this (they have no controller to degrade).
  ctrlplane::ControlPlaneConfig control_plane;
  // Optional mid-run timeline (DESIGN.md §11): a ScenarioDirector is built
  // over the topology's registered handles, every sender is registered
  // under its group's queue, and incast bursts spawn short flows toward
  // the receiver. The Scenario must outlive the run call.
  const scenario::Scenario* scenario = nullptr;
};

struct StaticExperimentResult : RunResult {
  stats::ThroughputMeter meter;  // bottleneck data bytes, per queue and window
  std::vector<telemetry::QueueSample> queue_samples;
  transport::SenderStats sender_totals;  // summed over all flows
};

StaticExperimentResult run_static_experiment(const StaticExperimentConfig& config);

}  // namespace dynaq::harness
