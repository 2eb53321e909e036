// Static-flow experiments: long-lived (iperf-style) senders toward one
// receiver on a star topology, measuring per-queue throughput and queue
// evolution at the bottleneck — the setup behind Figs. 1, 3-7, 10-12.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "ctrlplane/control_plane.hpp"
#include "net/multi_queue_qdisc.hpp"
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
  double initial_cwnd_packets = 10.0;
  std::size_t queue_samples = 0;  // >0: record per-op queue length samples
  std::size_t queue_sample_skip = 0;
  std::uint64_t seed = 1;
  // Run every switch-port buffer policy under check::AuditedBufferPolicy,
  // throwing AuditError at the first contract violation (DESIGN.md §6). On
  // by default so the whole test suite runs audited; disable for
  // paper-scale perf runs.
  bool audit_invariants = true;
  // Attach a telemetry::Hub (DESIGN.md §8) to the bottleneck port and every
  // host NIC: typed events, drop reasons, per-queue queueing-delay
  // histograms, and the queue_samples time series all flow through it.
  bool collect_telemetry = true;
  std::size_t telemetry_ring = 4096;  // newest events kept in the result
  // Fold the run into a check::TrajectoryHash (DESIGN.md §10): event-engine
  // pop stream + telemetry event bus + per-port audit ledgers. Equal seeds
  // must yield equal hashes; ci.sh diffs them across repeat/jobs/seed runs.
  bool fingerprint_trajectory = true;
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

struct StaticExperimentResult {
  stats::ThroughputMeter meter;
  std::vector<telemetry::QueueSample> queue_samples;
  net::MqStats bottleneck_stats;
  transport::SenderStats sender_totals;  // summed over all flows
  std::uint64_t events = 0;
  telemetry::TelemetrySummary telemetry;         // empty when collection is off
  std::vector<telemetry::Event> telemetry_events;  // tail of the event ring
  std::vector<std::string> telemetry_ports;        // observation-point names
  std::uint64_t trajectory_hash = 0;  // 0 when fingerprint_trajectory is off
  std::uint64_t scenario_actions = 0;  // timeline mutations applied (DESIGN.md §11)
};

StaticExperimentResult run_static_experiment(const StaticExperimentConfig& config);

}  // namespace dynaq::harness
