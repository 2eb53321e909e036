// The benchmark's three workloads: one paper figure point per run builder
// of the harness (dynamic star, leaf-spine, static star), each run through
// the library's public entry point with the harness defaults (audit,
// telemetry and trajectory fingerprint all on).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.hpp"
#include "net/buffer_policy.hpp"
#include "sim/simulator.hpp"
#include "stats/fct_recorder.hpp"
#include "telemetry/summary.hpp"
#include "topo/scheduler_factory.hpp"
#include "transport/flow_sender.hpp"

namespace perfbench {

using dynaq::Time;

enum class WorkloadKind { kStarWebsearch, kFabricMixed, kStaticManyflows };

// Names as BENCHMARK.json lists them.
inline constexpr std::string_view kWorkloadNames[] = {"star_websearch", "fabric_mixed",
                                                      "static_manyflows"};

std::optional<WorkloadKind> parse_workload(std::string_view name);
std::string_view workload_name(WorkloadKind kind);

// The size of one figure point. `scale` multiplies the default flow count
// (dynamic workloads) or simulated duration (static workload); the
// self-tests run at a small fraction of the benchmark size.
struct WorkloadSize {
  double scale = 1.0;
};

// Everything a replay needs to rebuild one switch port's egress buffer.
struct PortConfig {
  std::vector<double> weights;
  std::int64_t buffer_bytes = 0;
  dynaq::topo::SchedulerKind scheduler = dynaq::topo::SchedulerKind::kDrr;
  std::int64_t quantum_base = 1500;
  dynaq::core::SchemeSpec scheme;  // audit off, no custom policy
};

using PolicyFactory =
    std::function<std::unique_ptr<dynaq::net::BufferPolicy>(dynaq::sim::Simulator&)>;

struct RunRequest {
  WorkloadKind kind = WorkloadKind::kStarWebsearch;
  std::uint64_t seed = 1;
  WorkloadSize size;
  // Simulated horizon zero: the call only builds, installs, summarizes and
  // tears down (the setup_s measurement).
  bool setup_only = false;
  // When set, every switch port's buffer policy comes from this factory
  // (installed through SchemeSpec::custom_policy_sim, so the harness's audit
  // wrapper stays outermost).
  PolicyFactory policy_factory;
};

// One harness call, reduced to what the benchmark measures and checks.
struct RunOutcome {
  double wall_s = 0.0;  // the whole harness call, steady clock
  std::uint64_t allocations = 0;  // counted operator new calls during the call
  std::uint64_t events = 0;
  std::uint64_t delivered_pkts = 0;  // see delivered-packet rule in README.md
  std::uint64_t trajectory_hash = 0;
  std::size_t flows = 0;        // flows completed (dynamic) / configured (static)
  std::size_t incomplete = 0;   // dynamic flows unfinished at the horizon
  int queues = 0;               // service queues per switch port
  std::uint64_t drops = 0;      // telemetry drops, all reasons
  dynaq::stats::FctSummary fct;                 // dynamic workloads only
  dynaq::telemetry::TelemetrySummary telemetry;
  std::optional<dynaq::transport::SenderStats> senders;  // static workload only
};

// Runs one figure point through the matching harness entry point. Throws
// whatever the harness throws (e.g. check::AuditError).
RunOutcome run_workload(const RunRequest& request);

PortConfig port_config(WorkloadKind kind);

// Data packets the flows of a dynamic workload offer under harness seed
// `seed` (flow bytes / MSS, rounded up per flow), computed by drawing the
// flows exactly as the harness does, without simulating. nullopt for the
// static workload, whose senders are unbounded.
std::optional<std::uint64_t> offered_packets(WorkloadKind kind, std::uint64_t seed,
                                            const WorkloadSize& size);

// The harness seed a figure point runs for workload seed `seed`. A dynamic
// workload's work is set by its heavy-tailed flow sizes and, in the fabric,
// by how many switches its largest flows cross, so the benchmark draws
// candidate harness seeds from `seed` and keeps the first whose flows offer
// the workload's target packet and packet-hop counts (README.md, "Seeds").
// The static workload runs `seed` itself.
struct SeedChoice {
  std::uint64_t harness_seed = 0;
  std::uint64_t offered_pkts = 0;  // 0 for the static workload
  int candidates = 0;              // candidates drawn
};
SeedChoice choose_harness_seed(WorkloadKind kind, std::uint64_t seed, const WorkloadSize& size);

// Events the telemetry summary counted: every event-bus emission.
std::uint64_t telemetry_events(const dynaq::telemetry::TelemetrySummary& s);

}  // namespace perfbench
