#include "scenario/director.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "ctrlplane/control_plane.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/port.hpp"
#include "telemetry/hub.hpp"
#include "transport/flow_sender.hpp"

namespace dynaq::scenario {
namespace {

template <typename MapT>
std::string known_keys(const MapT& map) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [key, value] : map) {
    (void)value;
    if (!first) os << ", ";
    os << key;
    first = false;
  }
  return first ? std::string("<none registered>") : os.str();
}

std::int32_t clamp_payload(std::int64_t value) {
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(
      value, 0, std::numeric_limits<std::int32_t>::max()));
}

}  // namespace

void ScenarioDirector::attach_telemetry(telemetry::Hub& hub) {
  hub_ = &hub;
  tel_port_ = static_cast<std::int16_t>(hub.register_port("scenario"));
}

void ScenarioDirector::register_qdisc(const std::string& name, net::MultiQueueQdisc& qdisc) {
  qdiscs_[name] = &qdisc;
}

void ScenarioDirector::register_link(const std::string& name, net::Port& port) {
  links_[name] = &port;
}

void ScenarioDirector::register_ctrlplane(const std::string& name,
                                          ctrlplane::ControlPlanePolicy& shim) {
  ctrlplanes_[name] = &shim;
}

void ScenarioDirector::register_sender(int queue, transport::FlowSender& sender) {
  senders_[queue].push_back(&sender);
}

void ScenarioDirector::set_incast_launcher(std::function<void(const Action&)> launcher) {
  launch_incast_ = std::move(launcher);
}

void ScenarioDirector::reject(const Action& a, std::size_t idx, const std::string& why) const {
  std::ostringstream os;
  os << "scenario";
  if (!name_.empty()) os << " '" << name_ << "'";
  os << " action #" << idx << " (" << action_kind_name(a.kind) << "): " << why;
  throw std::invalid_argument(os.str());
}

void ScenarioDirector::validate(const Action& a, std::size_t idx) const {
  if (a.at < 0) reject(a, idx, "timestamp is negative");
  switch (a.kind) {
    case ActionKind::kWeightUpdate:
    case ActionKind::kBufferResize: {
      const auto it = qdiscs_.find(a.target);
      if (it == qdiscs_.end()) {
        reject(a, idx, "unknown qdisc '" + a.target + "' (known: " + known_keys(qdiscs_) + ")");
      }
      if (a.kind == ActionKind::kWeightUpdate) {
        if (static_cast<int>(a.weights.size()) != it->second->num_service_queues()) {
          reject(a, idx, "needs one weight per service queue");
        }
        for (const double w : a.weights) {
          if (w <= 0.0) reject(a, idx, "weights must be positive");
        }
      } else if (a.bytes <= 0) {
        reject(a, idx, "new buffer size must be positive");
      }
      break;
    }
    case ActionKind::kServiceJoin:
    case ActionKind::kServiceLeave: {
      const auto it = senders_.find(a.queue);
      if (it == senders_.end() || it->second.empty()) {
        reject(a, idx, "no senders registered for queue " + std::to_string(a.queue));
      }
      break;
    }
    case ActionKind::kLinkRateChange:
    case ActionKind::kLinkDown:
    case ActionKind::kLinkUp: {
      if (!links_.contains(a.target)) {
        reject(a, idx, "unknown link '" + a.target + "' (known: " + known_keys(links_) + ")");
      }
      if (a.kind == ActionKind::kLinkRateChange && a.rate_bps <= 0.0) {
        reject(a, idx, "link rate must be positive");
      }
      break;
    }
    case ActionKind::kIncastBurst: {
      if (!launch_incast_) reject(a, idx, "no incast launcher installed");
      if (a.count <= 0) reject(a, idx, "incast flow count must be positive");
      if (a.bytes <= 0) reject(a, idx, "incast flow size must be positive");
      if (a.queue < 0) reject(a, idx, "incast needs a target service queue");
      break;
    }
    case ActionKind::kControllerStall:
    case ActionKind::kControllerCrash:
    case ActionKind::kControlLossWindow: {
      if (!ctrlplanes_.contains(a.target)) {
        reject(a, idx, "unknown control plane '" + a.target +
                        "' (known: " + known_keys(ctrlplanes_) + ")");
      }
      if (a.kind == ActionKind::kControlLossWindow &&
          (a.loss_rate < 0.0 || a.loss_rate > 1.0)) {
        reject(a, idx, "loss rate must be in [0, 1]");
      }
      if (a.duration <= 0) reject(a, idx, "controller fault needs a positive duration");
      break;
    }
  }
}

void ScenarioDirector::arm(const Scenario& scenario) {
  if (armed_) throw std::logic_error("ScenarioDirector::arm called twice");
  // Validate the whole timeline before touching any director state: a
  // reject must leave nothing armed and nothing scheduled, so a re-arm
  // with a corrected Scenario starts from a clean slate.
  for (std::size_t i = 0; i < scenario.actions.size(); ++i) validate(scenario.actions[i], i);
  armed_ = true;
  name_ = scenario.name;
  actions_ = scenario.actions;

  // One closure per action; ties at equal timestamps fire in arming order.
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    sim_.schedule_at(actions_[i].at, [this, i] { apply(i); });
    if (actions_[i].kind == ActionKind::kControlLossWindow) {
      sim_.schedule_at(actions_[i].at + actions_[i].duration,
                       [this, i] { end_control_loss_window(i); });
    }
  }
}

void ScenarioDirector::apply(std::size_t idx) {
  const Action& a = actions_[idx];
  std::int64_t payload = 0;
  switch (a.kind) {
    case ActionKind::kWeightUpdate:
      // Audited entry point: the qdisc notifies its buffer policy, whose
      // auditor re-checks ΣT = B the instant the rebalance returns.
      qdiscs_.at(a.target)->set_weights(a.weights);
      break;
    case ActionKind::kServiceJoin:
      for (transport::FlowSender* s : senders_.at(a.queue)) s->resume();
      payload = static_cast<std::int64_t>(senders_.at(a.queue).size());
      break;
    case ActionKind::kServiceLeave:
      for (transport::FlowSender* s : senders_.at(a.queue)) s->pause();
      payload = static_cast<std::int64_t>(senders_.at(a.queue).size());
      break;
    case ActionKind::kLinkRateChange:
      links_.at(a.target)->set_rate(a.rate_bps);
      payload = static_cast<std::int64_t>(a.rate_bps / 1e3);  // kbps fits int32
      break;
    case ActionKind::kLinkDown:
      links_.at(a.target)->set_link_down();
      break;
    case ActionKind::kLinkUp:
      links_.at(a.target)->set_link_up();
      break;
    case ActionKind::kBufferResize:
      qdiscs_.at(a.target)->resize_buffer(a.bytes);
      payload = a.bytes;
      break;
    case ActionKind::kIncastBurst:
      launch_incast_(a);
      payload = a.count;
      break;
    case ActionKind::kControllerStall:
      ctrlplanes_.at(a.target)->stall_for(a.duration);
      payload = static_cast<std::int64_t>(to_microseconds(a.duration));
      break;
    case ActionKind::kControllerCrash:
      ctrlplanes_.at(a.target)->crash_for(a.duration);
      payload = static_cast<std::int64_t>(to_microseconds(a.duration));
      break;
    case ActionKind::kControlLossWindow:
      ctrlplanes_.at(a.target)->set_update_loss(a.loss_rate);
      payload = static_cast<std::int64_t>(a.loss_rate * 1e6);
      break;
  }
  ++applied_;
  emit(a, idx, payload);
}

void ScenarioDirector::end_control_loss_window(std::size_t idx) {
  const Action& a = actions_[idx];
  ctrlplane::ControlPlanePolicy* shim = ctrlplanes_.at(a.target);
  shim->set_update_loss(shim->base_update_loss());
  ++applied_;
  emit(a, idx, 0);
}

void ScenarioDirector::emit(const Action& a, std::size_t idx, std::int64_t payload) {
  if (hub_ == nullptr || !hub_->enabled()) return;
  // other_queue carries the action kind and flow the timeline index, so the
  // hub's event fingerprint distinguishes both what ran and when — the
  // scenario becomes part of the trajectory hash (DESIGN.md §10).
  hub_->emit({.kind = telemetry::EventKind::kScenarioAction,
              .port = tel_port_,
              .queue = static_cast<std::int16_t>(a.queue),
              .other_queue = static_cast<std::int16_t>(a.kind),
              .bytes = clamp_payload(payload),
              .flow = static_cast<std::uint32_t>(idx)});
}

}  // namespace dynaq::scenario
