#include "net/multi_queue_qdisc.hpp"

#include <stdexcept>
#include <utility>

namespace dynaq::net {

MultiQueueQdisc::MultiQueueQdisc(sim::Simulator& sim, std::vector<double> weights,
                                 std::int64_t buffer_bytes,
                                 std::unique_ptr<BufferPolicy> policy,
                                 std::unique_ptr<SchedulerPolicy> scheduler,
                                 std::unique_ptr<EcnMarker> marker)
    : sim_(sim),
      policy_(std::move(policy)),
      scheduler_(std::move(scheduler)),
      marker_(std::move(marker)) {
  if (weights.empty()) throw std::invalid_argument("MultiQueueQdisc needs >= 1 queue");
  if (buffer_bytes <= 0) throw std::invalid_argument("buffer size must be positive");
  state_.queues.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) throw std::invalid_argument("queue weights must be positive");
    state_.queues[i].weight = weights[i];
  }
  state_.buffer_bytes = buffer_bytes;
  policy_->attach(state_);
  scheduler_->attach(state_);
  if (marker_) marker_->attach(state_);
}

void MultiQueueQdisc::attach_telemetry(telemetry::Hub& hub, const std::string& name) {
  hub_ = &hub;
  tel_port_ = static_cast<std::int16_t>(hub.register_port(name));
  // Policies that emit their own events (the control-plane shim) observe
  // at the same point as the qdisc that hosts them.
  policy_->attach_telemetry(hub, tel_port_);
}

void MultiQueueQdisc::emit_packet_event(telemetry::Hub& hub, telemetry::EventKind kind,
                                        int queue, const Packet& p,
                                        telemetry::DropReason reason, int other_queue) const {
  hub.emit({.kind = kind,
            .reason = reason,
            .port = tel_port_,
            .queue = static_cast<std::int16_t>(queue),
            .other_queue = static_cast<std::int16_t>(other_queue),
            .bytes = p.size,
            .flow = p.flow});
}

void MultiQueueQdisc::sample_queues(telemetry::Hub& hub) const {
  std::vector<std::int64_t> occupancy;
  occupancy.reserve(state_.queues.size());
  for (const ServiceQueue& q : state_.queues) occupancy.push_back(q.bytes);
  hub.sample(sim_.now(), occupancy, policy_->thresholds());
}

bool MultiQueueQdisc::enqueue(Packet&& p) {
  const int q = p.queue < state_.queues.size() ? p.queue : state_.num_queues() - 1;
  telemetry::Hub* const tel_hub = tel();

  // The buffer-management policy decides admission (DynaQ adjusts its
  // thresholds inside admit()); the physical port-buffer bound — and the
  // chip-wide pool, when attached — acts as a safety net on top. Under
  // DynaQ's threshold-enforced semantics the physical check binds only in
  // the rare transient where a victimized queue sits above its reduced
  // threshold (see DESIGN.md §4).
  const bool policy_ok = policy_->admit(state_, q, p);
  bool fits = state_.port_bytes + p.size <= state_.buffer_bytes &&
              (pool_ == nullptr || pool_->free_bytes() >= p.size);

  // Eviction (BarberQ-style): an admitted arrival that does not physically
  // fit may displace buffered tail packets of queues the policy names.
  while (policy_ok && !fits) {
    const int victim = policy_->evict_candidate(state_, q, p);
    if (victim < 0 || victim == q) break;
    ServiceQueue& vq = state_.queue(victim);
    if (vq.empty()) break;
    Packet evicted = std::move(vq.packets.back());
    vq.packets.pop_back();
    vq.bytes -= evicted.size;
    state_.port_bytes -= evicted.size;
    if (pool_ != nullptr) pool_->release(evicted.size);
    ++stats_.evicted;
    policy_->on_dequeue(state_, victim, evicted);
    if (tel_hub != nullptr) {
      emit_packet_event(*tel_hub, telemetry::EventKind::kEvict, victim, evicted,
                        telemetry::DropReason::kThreshold, q);
    }
    fits = state_.port_bytes + p.size <= state_.buffer_bytes &&
           (pool_ == nullptr || pool_->free_bytes() >= p.size);
  }

  if (policy_ok && !fits) policy_->on_admit_aborted(state_, q, p);
  if (!policy_ok || !fits) {
    ++stats_.dropped;
    if (!policy_ok) {
      ++stats_.dropped_by_policy;
    } else {
      ++stats_.dropped_port_full;
    }
    if (tel_hub != nullptr) {
      emit_packet_event(*tel_hub, telemetry::EventKind::kDrop, q, p,
                        policy_ok ? telemetry::DropReason::kPortFull
                                  : policy_->last_drop_reason());
      if (tel_hub->sampling_active()) sample_queues(*tel_hub);
    }
    return false;
  }

  if (marker_ && p.has(kFlagEct) && marker_->mark_on_enqueue(state_, q, p)) {
    p.set(kFlagCe);
    ++stats_.marked;
    if (tel_hub != nullptr) {
      emit_packet_event(*tel_hub, telemetry::EventKind::kEcnMark, q, p,
                        telemetry::DropReason::kThreshold);
    }
  }

  p.enqueued_at = sim_.now();
  if (pool_ != nullptr) pool_->reserve(p.size);
  state_.port_bytes += p.size;
  ServiceQueue& sq = state_.queue(q);
  sq.bytes += p.size;
  sq.packets.push_back(std::move(p));
  ++stats_.enqueued;
  const Packet& queued = sq.packets.back();
  policy_->on_enqueue(state_, q, queued);
  scheduler_->on_enqueue(state_, q);
  if (tel_hub != nullptr) {
    // The exchange behind this admission (if any) is reported only once the
    // packet actually entered the buffer — an aborted admission rolls the
    // exchange back and resets the introspected victim to -1.
    const int exchange_victim = policy_->last_exchange_victim();
    if (exchange_victim >= 0) {
      emit_packet_event(*tel_hub, telemetry::EventKind::kThresholdExchange, q, queued,
                        telemetry::DropReason::kThreshold, exchange_victim);
    }
    emit_packet_event(*tel_hub, telemetry::EventKind::kEnqueue, q, queued,
                      telemetry::DropReason::kThreshold);
    if (tel_hub->sampling_active()) sample_queues(*tel_hub);
  }
  return true;
}

void MultiQueueQdisc::resize_buffer(std::int64_t buffer_bytes) {
  if (buffer_bytes <= 0) throw std::invalid_argument("buffer size must be positive");
  state_.buffer_bytes = buffer_bytes;
  policy_->on_buffer_resize(state_);
}

void MultiQueueQdisc::set_weights(const std::vector<double>& weights) {
  if (weights.size() != state_.queues.size()) {
    throw std::invalid_argument("set_weights needs one weight per service queue");
  }
  for (const double w : weights) {
    if (w <= 0.0) throw std::invalid_argument("queue weights must be positive");
  }
  for (std::size_t i = 0; i < weights.size(); ++i) state_.queues[i].weight = weights[i];
  policy_->on_weights_changed(state_);
  scheduler_->on_weights_changed(state_);
}

std::optional<Packet> MultiQueueQdisc::dequeue() {
  // Eviction can empty a queue behind the scheduler's back; skip such
  // stale picks rather than dereferencing an empty queue.
  int q = scheduler_->next_queue(state_);
  while (q >= 0 && state_.queue(q).empty()) q = scheduler_->next_queue(state_);
  if (q < 0) return std::nullopt;
  ServiceQueue& sq = state_.queue(q);
  Packet p = std::move(sq.packets.front());
  sq.packets.pop_front();
  sq.bytes -= p.size;
  state_.port_bytes -= p.size;
  if (pool_ != nullptr) pool_->release(p.size);
  policy_->on_dequeue(state_, q, p);
  const Time sojourn = sim_.now() - p.enqueued_at;
  if (marker_ && p.has(kFlagEct)) {
    if (marker_->mark_on_dequeue(state_, q, p, sojourn)) {
      p.set(kFlagCe);
      ++stats_.marked;
      if (telemetry::Hub* const hub = tel(); hub != nullptr) {
        emit_packet_event(*hub, telemetry::EventKind::kEcnMark, q, p,
                          telemetry::DropReason::kThreshold);
      }
    }
  }
  if (telemetry::Hub* const hub = tel(); hub != nullptr) {
    hub->record_queue_delay(q, sojourn);
    if (hub->sampling_active()) sample_queues(*hub);
  }
  return p;
}

}  // namespace dynaq::net
