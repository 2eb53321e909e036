// Declarative mid-run timelines (DESIGN.md §11): a Scenario is a list of
// timestamped actions — weight rebalances, service churn, link faults,
// buffer resizes, incast bursts, control-plane faults — that a
// ScenarioDirector replays against registered component handles while an
// experiment runs.
// Scenarios are plain data: building one performs no side effects, so the
// same Scenario value can drive any number of simulator instances.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dynaq::scenario {

enum class ActionKind : std::uint8_t {
  kWeightUpdate = 0,    // rewrite a qdisc's per-queue weights (ΣT = B rebalance)
  kServiceJoin = 1,     // resume every registered sender of a service queue
  kServiceLeave = 2,    // pause every registered sender of a service queue
  kLinkRateChange = 3,  // rewrite a link's line rate
  kLinkDown = 4,        // cut a link (cancels the in-flight serialization)
  kLinkUp = 5,          // restore a cut link
  kBufferResize = 6,    // rewrite a qdisc's buffer size B
  kIncastBurst = 7,     // launch N synchronized short flows into one queue
  // Value 8 is retired. ScenarioDirector::emit folds each kind's value into
  // the trajectory hash, so the kinds below keep their numbers.
  // Control-plane faults (dynaq::ctrlplane, DESIGN.md §14); targets are
  // registered ControlPlanePolicy handles ("sw.p0.ctrl").
  kControllerStall = 9,     // controller unresponsive for `duration` (state kept)
  kControllerCrash = 10,    // controller down for `duration` (state lost)
  kControlLossWindow = 11,  // raise control-channel loss for a bounded window
};

constexpr std::string_view action_kind_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kWeightUpdate: return "weight_update";
    case ActionKind::kServiceJoin: return "service_join";
    case ActionKind::kServiceLeave: return "service_leave";
    case ActionKind::kLinkRateChange: return "link_rate_change";
    case ActionKind::kLinkDown: return "link_down";
    case ActionKind::kLinkUp: return "link_up";
    case ActionKind::kBufferResize: return "buffer_resize";
    case ActionKind::kIncastBurst: return "incast_burst";
    case ActionKind::kControllerStall: return "controller_stall";
    case ActionKind::kControllerCrash: return "controller_crash";
    case ActionKind::kControlLossWindow: return "control_loss_window";
  }
  return "unknown";
}

// One timeline entry. Only the fields its kind reads are meaningful; the
// director rejects under-specified actions at arm() time, not mid-run.
struct Action {
  Time at = 0;                  // absolute simulation time
  ActionKind kind = ActionKind::kWeightUpdate;
  std::string target;           // registered handle name (qdisc / link / ctrl)
  int queue = -1;               // service queue (join/leave/incast)
  std::vector<double> weights;  // weight_update: one positive weight per queue
  double rate_bps = 0.0;        // link_rate_change
  std::int64_t bytes = 0;       // buffer_resize: new B; incast_burst: flow size
  int count = 0;                // incast_burst: number of synchronized flows
  double loss_rate = 0.0;       // control_loss_window: probability
  Time duration = 0;            // controller faults: window length
};

struct Scenario {
  std::string name;
  std::vector<Action> actions;
  bool empty() const { return actions.empty(); }
};

// Knobs for the named catalogue below. The timelines target the star
// harness's bottleneck: the switch egress port facing host 0.
struct ScenarioParams {
  Time duration = seconds(std::int64_t{10});  // experiment length the timeline spans
  int num_queues = 4;
};

// Builds one of the named scenarios ("none", "weight_churn", "link_flap",
// "service_churn", "incast", "buffer_squeeze", "mixed",
// "controller_stall", "controller_crash", "control_loss_window").
// Throws std::invalid_argument listing the known names when `name` is not
// one of them — bench binaries surface that as a clean usage error.
Scenario make_scenario(std::string_view name, const ScenarioParams& params);

// The catalogue's names, in a fixed order (for --help text and error messages).
std::vector<std::string> scenario_names();

// One-line human description of a catalogue entry (what the timeline does
// and when), for --list-scenarios output. Unknown names get a fixed
// "unknown scenario" string rather than a throw — listing is diagnostics,
// not validation.
std::string_view scenario_description(std::string_view name);

}  // namespace dynaq::scenario
