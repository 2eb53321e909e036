#include "telemetry/hub.hpp"

#include "sim/fingerprint.hpp"

namespace dynaq::telemetry {

Hub::Hub(sim::Simulator& sim, HubConfig config)
    : sim_(sim),
      enabled_(config.enabled),
      fingerprint_events_(config.fingerprint),
      fingerprint_(sim::kFnv1aOffset) {}

int Hub::register_port(const std::string& name) {
  const auto [it, added] = port_ids_.try_emplace(name, static_cast<int>(port_names_.size()));
  if (added) port_names_.push_back(name);
  return it->second;
}

void Hub::emit(Event e) {
  e.when = sim_.now();
  if (fingerprint_events_) {
    // Pack the discriminating fields into two u64 folds: the stamp, then
    // (kind, reason, port, queue, other_queue) and (bytes, flow). Any
    // nondeterministic drop victim, exchange partner or flow choice lands
    // in the digest even when event timing happens to coincide.
    const std::uint64_t tagged =
        (static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)) << 56) |
        (static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.reason)) << 48) |
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.port)) << 32) |
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.queue)) << 16) |
        static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.other_queue));
    const std::uint64_t payload =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.bytes)) << 32) |
        static_cast<std::uint64_t>(e.flow);
    fingerprint_ = sim::fnv1a_u64(fingerprint_, static_cast<std::uint64_t>(e.when));
    fingerprint_ = sim::fnv1a_u64(sim::fnv1a_u64(fingerprint_, tagged), payload);
  }
  switch (e.kind) {
    case EventKind::kEnqueue:
      ++enqueues_;
      break;
    case EventKind::kDrop:
      ++drops_by_reason_[static_cast<std::size_t>(e.reason)];
      break;
    case EventKind::kEvict:
      ++evictions_;
      break;
    case EventKind::kThresholdExchange:
      ++threshold_exchanges_;
      exchanged_bytes_ += e.bytes;
      break;
    case EventKind::kEcnMark:
      ++ecn_marks_;
      break;
    case EventKind::kScenarioAction:
      ++scenario_actions_;
      break;
    case EventKind::kControlUpdate:
      ++control_updates_;
      break;
    case EventKind::kControlUpdateLost:
      ++control_updates_lost_;
      break;
    case EventKind::kControlFailover:
      ++control_failovers_;
      break;
    case EventKind::kControlRestore:
      ++control_restores_;
      break;
  }
  for (const auto& fn : subscribers_) fn(e);
}

void Hub::emit_wire(WireRecord w) {
  w.when = sim_.now();
  for (const auto& fn : wire_listeners_) fn(w);
}

void Hub::record_queue_delay(int queue, Time delay) {
  constexpr std::size_t kMaxDelayQueues = 64;
  const auto q = static_cast<std::size_t>(queue);
  if (queue < 0 || q >= kMaxDelayQueues) return;
  if (q >= delay_hist_.size()) delay_hist_.resize(q + 1);
  delay_hist_[q].record(delay);
}

void Hub::sample(Time when, std::span<const std::int64_t> occupancy,
                 std::vector<std::int64_t> thresholds) {
  series_.record(when, {occupancy.begin(), occupancy.end()}, std::move(thresholds));
}

TelemetrySummary Hub::summary() const {
  TelemetrySummary s;
  s.drops_by_reason = drops_by_reason_;
  s.enqueues = enqueues_;
  s.evictions = evictions_;
  s.threshold_exchanges = threshold_exchanges_;
  s.exchanged_bytes = exchanged_bytes_;
  s.ecn_marks = ecn_marks_;
  s.scenario_actions = scenario_actions_;
  s.control.updates = control_updates_;
  s.control.updates_lost = control_updates_lost_;
  s.control.failovers = control_failovers_;
  s.control.restores = control_restores_;
  s.queue_delay.reserve(delay_hist_.size());
  for (const LogHistogram& h : delay_hist_) {
    QueueDelaySummary q;
    q.count = h.count();
    // Sojourn times are recorded in picoseconds; report microseconds.
    q.p50_us = static_cast<double>(h.percentile(50)) / 1e6;
    q.p99_us = static_cast<double>(h.percentile(99)) / 1e6;
    q.max_us = static_cast<double>(h.max()) / 1e6;
    s.queue_delay.push_back(q);
  }
  return s;
}

}  // namespace dynaq::telemetry
