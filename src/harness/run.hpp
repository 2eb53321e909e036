// The one run assembly behind the three harness run builders, private to
// src/harness (DESIGN.md §2). A Run owns what every harness run wires the
// same way: the simulator with its pop fingerprint on, the topology built
// from an audited copy of its config (§6), one fingerprinting telemetry hub
// (§8), the optional scenario director (§11), and the finish step that
// fills RunResult and folds the trajectory hash (§10). A builder adds its
// observed switch points, its traffic and its own result fields.
#pragma once

#include <optional>
#include <string>

#include "check/trajectory_hash.hpp"
#include "harness/run_result.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "scenario/director.hpp"
#include "sim/simulator.hpp"
#include "telemetry/hub.hpp"

namespace dynaq::harness {

template <typename Topology>
class Run {
 public:
  template <typename Config>
  explicit Run(Config config) : topo(sim, audited(std::move(config))) {
    sim.enable_trajectory_fingerprint();
  }

  // Call after the builder attached its switch points: attaches every host
  // NIC (through its queue, so only the builder's ports emit wire records),
  // then, given a timeline, builds the director over the topology's handles.
  void instrument(const scenario::Scenario* scenario) {
    for (int i = 0; i < topo.num_hosts(); ++i) {
      topo.host(i).nic().qdisc().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
    }
    if (scenario == nullptr) return;
    scenario_ = scenario;
    director.emplace(sim);
    director->attach_telemetry(hub);
    topo.register_scenario_handles(*director);
  }

  // Arms the timeline once the traffic is installed, then simulates.
  void run_until(Time end) {
    if (director) director->arm(*scenario_);
    sim.run_until(end);
  }

  // The hash folds the pop stream, the event bus and every switch port's
  // audit ledger, in the topology's fixed construction order.
  void finish(RunResult& out) const {
    out.events = sim.events_processed();
    out.telemetry = hub.summary();
    check::TrajectoryHash th;
    th.fold(sim).fold(hub);
    for (const net::MultiQueueQdisc* q : topo.all_qdiscs()) {
      if (const auto* a = dynamic_cast<const check::AuditedBufferPolicy*>(&q->policy())) {
        th.fold(a->ledger());
      }
    }
    out.trajectory_hash = th.value();
  }

  sim::Simulator sim;
  telemetry::Hub hub{sim, {.fingerprint = true}};
  Topology topo;
  std::optional<scenario::ScenarioDirector> director;

 private:
  template <typename Config>
  static Config audited(Config config) {
    config.scheme.audit = true;
    return config;
  }

  const scenario::Scenario* scenario_ = nullptr;
};

}  // namespace dynaq::harness
