#include <sstream>
#include <stdexcept>

#include "scenario/scenario.hpp"

namespace dynaq::scenario {
namespace {

// The star harness's bottleneck, the switch egress port facing host 0: its
// qdisc and link register under kPort, its control-plane shim (DESIGN.md
// §14) under kCtrl.
constexpr const char* kPort = "sw.p0";
constexpr const char* kCtrl = "sw.p0.ctrl";
constexpr std::int64_t kBufferBytes = 85'000;  // the testbed star's B
constexpr int kIncastFanin = 16;
constexpr std::int64_t kIncastBytes = 20'000;

// The catalogue lays timelines out on eighths of the run: long enough for
// flows to reach steady state before the first disturbance, with a quiet
// final eighth so post-fault recovery shows up in the aggregate metrics.
Action at(Time when, ActionKind kind) {
  Action a;
  a.at = when;
  a.kind = kind;
  return a;
}

Scenario weight_churn(const ScenarioParams& p) {
  // Every eighth of the run, promote one queue (rotating) to 4× weight;
  // restore the flat split for the final quarter. Each update rebalances
  // ΣT = B through the audited set_weights path.
  Scenario s{"weight_churn", {}};
  const Time t8 = p.duration / 8;
  for (int step = 1; step <= 5; ++step) {
    Action a = at(t8 * step, ActionKind::kWeightUpdate);
    a.target = kPort;
    a.weights.assign(static_cast<std::size_t>(p.num_queues), 1.0);
    a.weights[static_cast<std::size_t>((step - 1) % p.num_queues)] = 4.0;
    s.actions.push_back(std::move(a));
  }
  Action restore = at(t8 * 6, ActionKind::kWeightUpdate);
  restore.target = kPort;
  restore.weights.assign(static_cast<std::size_t>(p.num_queues), 1.0);
  s.actions.push_back(std::move(restore));
  return s;
}

Scenario link_flap(const ScenarioParams& p) {
  // Two down/up cycles on the bottleneck link, one eighth of the run each:
  // long enough (vs the RTO floor) that senders hit timeouts and must
  // recover, short enough that the run ends in steady state again.
  Scenario s{"link_flap", {}};
  const Time t8 = p.duration / 8;
  for (const int down_at : {2, 5}) {
    Action down = at(t8 * down_at, ActionKind::kLinkDown);
    down.target = kPort;
    s.actions.push_back(std::move(down));
    Action up = at(t8 * (down_at + 1), ActionKind::kLinkUp);
    up.target = kPort;
    s.actions.push_back(std::move(up));
  }
  return s;
}

Scenario service_churn(const ScenarioParams& p) {
  // One service leaves a quarter into the run and rejoins at 5/8 — the
  // dynamic-services story of the paper's title: the remaining queues
  // should absorb the freed buffer and give it back on rejoin.
  Scenario s{"service_churn", {}};
  const Time t8 = p.duration / 8;
  const int q = p.num_queues - 1;
  Action leave = at(t8 * 2, ActionKind::kServiceLeave);
  leave.queue = q;
  s.actions.push_back(std::move(leave));
  Action join = at(t8 * 5, ActionKind::kServiceJoin);
  join.queue = q;
  s.actions.push_back(std::move(join));
  return s;
}

Scenario incast(const ScenarioParams& p) {
  // A synchronized fan-in of short flows into queue 0 at mid-run.
  Scenario s{"incast", {}};
  Action burst = at(p.duration / 2, ActionKind::kIncastBurst);
  burst.queue = 0;
  burst.count = kIncastFanin;
  burst.bytes = kIncastBytes;
  s.actions.push_back(std::move(burst));
  return s;
}

Scenario buffer_squeeze(const ScenarioParams& p) {
  // Halve the bottleneck buffer at 3/8, restore at 6/8 — §III-B3's resize
  // path exercised mid-run in both directions.
  Scenario s{"buffer_squeeze", {}};
  Action shrink = at(p.duration * 3 / 8, ActionKind::kBufferResize);
  shrink.target = kPort;
  shrink.bytes = kBufferBytes / 2;
  s.actions.push_back(std::move(shrink));
  Action grow = at(p.duration * 6 / 8, ActionKind::kBufferResize);
  grow.target = kPort;
  grow.bytes = kBufferBytes;
  s.actions.push_back(std::move(grow));
  return s;
}

Scenario mixed(const ScenarioParams& p) {
  // Weight churn, a link flap and an incast in one run — the kitchen-sink
  // robustness scenario the rob_* benches default to for the "everything
  // at once" column.
  Scenario s{"mixed", {}};
  const Time t8 = p.duration / 8;
  Action favor = at(t8 * 2, ActionKind::kWeightUpdate);
  favor.target = kPort;
  favor.weights.assign(static_cast<std::size_t>(p.num_queues), 1.0);
  favor.weights[0] = 4.0;
  s.actions.push_back(std::move(favor));
  Action down = at(t8 * 4, ActionKind::kLinkDown);
  down.target = kPort;
  s.actions.push_back(std::move(down));
  Action up = at(t8 * 4 + t8 / 2, ActionKind::kLinkUp);
  up.target = kPort;
  s.actions.push_back(std::move(up));
  Action burst = at(t8 * 6, ActionKind::kIncastBurst);
  burst.queue = 0;
  burst.count = kIncastFanin;
  burst.bytes = kIncastBytes;
  s.actions.push_back(std::move(burst));
  Action restore = at(t8 * 7, ActionKind::kWeightUpdate);
  restore.target = kPort;
  restore.weights.assign(static_cast<std::size_t>(p.num_queues), 1.0);
  s.actions.push_back(std::move(restore));
  return s;
}

Scenario controller_stall(const ScenarioParams& p) {
  // The controller goes unresponsive (state intact) at 3/8 for a quarter of
  // the run: stale thresholds stay enforced, the watchdog fails over to DT,
  // and the restore path needs no re-sync.
  Scenario s{"controller_stall", {}};
  Action a = at(p.duration * 3 / 8, ActionKind::kControllerStall);
  a.target = kCtrl;
  a.duration = p.duration / 4;
  s.actions.push_back(std::move(a));
  return s;
}

Scenario controller_crash(const ScenarioParams& p) {
  // Same window, but the controller loses its state: in-flight updates are
  // voided and recovery requires the full Eq. 1 re-sync (ΣT = B re-checked
  // by the auditor the moment DynaQ enforcement resumes).
  Scenario s{"controller_crash", {}};
  Action a = at(p.duration * 3 / 8, ActionKind::kControllerCrash);
  a.target = kCtrl;
  a.duration = p.duration / 4;
  s.actions.push_back(std::move(a));
  return s;
}

Scenario control_loss_window(const ScenarioParams& p) {
  // The controller stays healthy but its updates stop arriving: the channel
  // drops every one for a quarter of the run from 3/8. The commit stream
  // goes quiet and the watchdog fails over exactly as for a stall.
  Scenario s{"control_loss_window", {}};
  Action a = at(p.duration * 3 / 8, ActionKind::kControlLossWindow);
  a.target = kCtrl;
  a.loss_rate = 1.0;
  a.duration = p.duration / 4;
  s.actions.push_back(std::move(a));
  return s;
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"none",           "weight_churn",     "link_flap",
          "service_churn",  "incast",           "buffer_squeeze",
          "mixed",          "controller_stall", "controller_crash",
          "control_loss_window"};
}

std::string_view scenario_description(std::string_view name) {
  if (name == "none") return "empty timeline — scenario machinery armed but idle (baseline)";
  if (name == "weight_churn")
    return "rotate a 4x weight promotion across queues every eighth; flat split restored at 6/8";
  if (name == "link_flap") return "two down/up outage cycles on the bottleneck link (eighths 2 and 5)";
  if (name == "service_churn") return "one service queue leaves at 2/8 and rejoins at 5/8";
  if (name == "incast") return "synchronized fan-in of short flows into queue 0 at mid-run";
  if (name == "buffer_squeeze") return "halve the bottleneck buffer at 3/8, restore it at 6/8";
  if (name == "mixed") return "kitchen sink: weight favor, link flap and incast in one run";
  if (name == "controller_stall")
    return "control plane unresponsive (state kept) for a quarter of the run from 3/8";
  if (name == "controller_crash")
    return "control plane down with state loss for a quarter of the run from 3/8";
  if (name == "control_loss_window")
    return "control channel drops threshold updates for a quarter of the run from 3/8";
  return "unknown scenario";
}

Scenario make_scenario(std::string_view name, const ScenarioParams& params) {
  if (params.duration <= 0) throw std::invalid_argument("scenario duration must be positive");
  if (params.num_queues <= 0) throw std::invalid_argument("scenario needs at least one queue");
  if (name == "none") return Scenario{"none", {}};
  if (name == "weight_churn") return weight_churn(params);
  if (name == "link_flap") return link_flap(params);
  if (name == "service_churn") return service_churn(params);
  if (name == "incast") return incast(params);
  if (name == "buffer_squeeze") return buffer_squeeze(params);
  if (name == "mixed") return mixed(params);
  if (name == "controller_stall") return controller_stall(params);
  if (name == "controller_crash") return controller_crash(params);
  if (name == "control_loss_window") return control_loss_window(params);
  std::ostringstream os;
  os << "unknown scenario '" << name << "' (known:";
  for (const std::string& known : scenario_names()) os << " " << known;
  os << ")";
  throw std::invalid_argument(os.str());
}

}  // namespace dynaq::scenario
