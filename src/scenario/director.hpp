// ScenarioDirector (DESIGN.md §11): replays a Scenario against a running
// simulation. Components are mutated only through handles registered by
// name — the director never reaches into queue internals (conventions rule
// 11), so every mutation goes through the same audited entry points tests
// and operators use (MultiQueueQdisc::set_weights / resize_buffer,
// Port::set_link_down / set_link_up / set_rate, FlowSender::pause /
// resume, ControlPlanePolicy's fault handles).
//
// Determinism: arm() schedules one inline closure per action at its fixed
// timestamp through the allocation-free event engine; ties against model
// events resolve by the engine's (time, sequence) order, which depends
// only on arming order — itself fixed by the Scenario value. Every applied
// action is also emitted on the telemetry bus as a kScenarioAction event,
// folding the timeline into the run's trajectory hash.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace dynaq::ctrlplane {
class ControlPlanePolicy;
}
namespace dynaq::net {
class MultiQueueQdisc;
class Port;
}  // namespace dynaq::net
namespace dynaq::transport {
class FlowSender;
}
namespace dynaq::telemetry {
class Hub;
}

namespace dynaq::scenario {

class ScenarioDirector {
 public:
  explicit ScenarioDirector(sim::Simulator& sim) : sim_(sim) {}

  ScenarioDirector(const ScenarioDirector&) = delete;
  ScenarioDirector& operator=(const ScenarioDirector&) = delete;

  // Registers the director's own observation point ("scenario") on the hub;
  // every applied action then emits one kScenarioAction event. The hub must
  // outlive the director.
  void attach_telemetry(telemetry::Hub& hub);

  // ---- handle registration (before arm) ---------------------------------
  // Names are free-form; topologies register under their telemetry port
  // names ("sw.p0", "h1.nic", ...) so scenarios and dashboards agree.
  void register_qdisc(const std::string& name, net::MultiQueueQdisc& qdisc);
  void register_link(const std::string& name, net::Port& port);
  // Control-plane shims (DESIGN.md §14): controller_stall / controller_crash
  // / control_loss_window act only through the shim's fault handles —
  // detlint's ctrlplane-bypass rule bans any other controller mutation path.
  void register_ctrlplane(const std::string& name, ctrlplane::ControlPlanePolicy& shim);
  // Senders are grouped by the service queue they feed; service_join /
  // service_leave act on every sender of the named queue.
  void register_sender(int queue, transport::FlowSender& sender);
  // kIncastBurst delegates flow creation to the harness (it owns hosts and
  // flow-id allocation); the callback runs at the burst's timestamp.
  void set_incast_launcher(std::function<void(const Action&)> launcher);

  // Validates every action against the registered handles (throwing
  // std::invalid_argument with the offending index on any unresolvable
  // target or malformed field) and schedules the timeline. May be called
  // once; a kControlLossWindow action schedules both its start and its end.
  void arm(const Scenario& scenario);

  const std::string& scenario_name() const { return name_; }
  std::size_t actions_armed() const { return actions_.size(); }
  // Mutations applied so far (a control loss window counts twice: raise +
  // restore).
  std::uint64_t actions_applied() const { return applied_; }

 private:
  void validate(const Action& a, std::size_t idx) const;
  void apply(std::size_t idx);
  void end_control_loss_window(std::size_t idx);
  void emit(const Action& a, std::size_t idx, std::int64_t payload);
  [[noreturn]] void reject(const Action& a, std::size_t idx, const std::string& why) const;

  sim::Simulator& sim_;
  telemetry::Hub* hub_ = nullptr;
  std::int16_t tel_port_ = -1;
  std::string name_;
  bool armed_ = false;
  std::vector<Action> actions_;  // the armed timeline; closures index into it
  // Lookup-only registries (populated before arm, read at apply): ordered
  // maps keep error listings and any future iteration deterministic.
  std::map<std::string, net::MultiQueueQdisc*> qdiscs_;
  std::map<std::string, net::Port*> links_;
  std::map<std::string, ctrlplane::ControlPlanePolicy*> ctrlplanes_;
  std::map<int, std::vector<transport::FlowSender*>> senders_;
  std::function<void(const Action&)> launch_incast_;
  std::uint64_t applied_ = 0;
};

}  // namespace dynaq::scenario
