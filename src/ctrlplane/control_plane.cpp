#include "ctrlplane/control_plane.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/invariant_auditor.hpp"
#include "telemetry/hub.hpp"

namespace dynaq::ctrlplane {
namespace {

std::int32_t clamp_us(std::int64_t us) {
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(us, 0, std::numeric_limits<std::int32_t>::max()));
}

double clamp_rate(double rate) { return std::clamp(rate, 0.0, 1.0); }

}  // namespace

ControlPlanePolicy::ControlPlanePolicy(sim::Simulator& sim, ControlPlaneConfig config,
                                       core::DynaQPolicy::Options dynaq_options)
    : sim_(sim),
      config_(config),
      inline_(dynaq_options),
      rng_(config.seed),
      loss_rate_(clamp_rate(config.update_loss)) {}

void ControlPlanePolicy::attach(const net::MqState& state) {
  state_ = &state;
  inline_.attach(state);
  if (async()) {
    const auto ts = inline_.controller().thresholds();
    enforced_.assign(ts.begin(), ts.end());
    blocked_bytes_.assign(state.queues.size(), 0);
    last_blocked_size_.assign(state.queues.size(), 0);
    last_commit_ = sim_.now();
  }
  // Timers start once; the qdisc attaches exactly once at construction. In
  // inline mode without a watchdog no event is ever scheduled, keeping the
  // trajectory byte-identical to a bare DynaQPolicy run.
  if (!timers_started_) {
    timers_started_ = true;
    if (async()) schedule_tick();
    if (config_.watchdog_deadline > 0) schedule_probe();
  }
}

bool ControlPlanePolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  if (failed_over_) {
    admit_path_ = AdmitPath::kFailover;
    return admit_dt(state, q, p);
  }
  if (!async()) {
    if (alive()) {
      // A crash that ended before any watchdog probe (or with no watchdog
      // armed) re-syncs lazily at the next arrival.
      if (needs_resync_) resync();
      admit_path_ = AdmitPath::kDelegated;
      return inline_.admit(state, q, p);
    }
    // Controller down, no failover (yet): the data plane keeps enforcing
    // the thresholds as last programmed — stale but frozen.
    admit_path_ = AdmitPath::kFrozen;
    return state.queue(q).bytes + p.size <= inline_.controller().threshold(q);
  }
  admit_path_ = AdmitPath::kAsync;
  const auto uq = static_cast<std::size_t>(q);
  if (state.queue(q).bytes + p.size <= enforced_[uq]) return true;
  // Rejected against a stale threshold: remember the demand so the next
  // controller tick can run Algorithm 1's exchange for it.
  blocked_bytes_[uq] += p.size;
  last_blocked_size_[uq] = p.size;
  return false;
}

bool ControlPlanePolicy::admit_dt(const net::MqState& state, int q, const net::Packet& p) {
  // Classic Dynamic Thresholds (core::DynamicThresholdPolicy's rule) with
  // alpha = 1: the data plane can evaluate it from local state alone, which
  // is exactly why it is the failover scheme.
  const double free_buffer = static_cast<double>(state.buffer_bytes - state.port_bytes);
  const auto threshold = static_cast<std::int64_t>(free_buffer);
  return state.queue(q).bytes + p.size <= threshold;
}

void ControlPlanePolicy::on_admit_aborted(const net::MqState& state, int q,
                                          const net::Packet& p) {
  // Only the delegated path mutates controller state inside admit(); the
  // frozen/async/failover predicates are pure.
  if (admit_path_ == AdmitPath::kDelegated) inline_.on_admit_aborted(state, q, p);
}

void ControlPlanePolicy::on_buffer_resize(const net::MqState& state) {
  if (!async() && alive() && !failed_over_) {
    inline_.on_buffer_resize(state);
    return;
  }
  // The data plane's physical bound changed immediately, but the controller
  // learns only via the control channel (next tick) or the recovery re-sync.
  needs_resync_ = true;
}

void ControlPlanePolicy::on_weights_changed(const net::MqState& state) {
  if (!async() && alive() && !failed_over_) {
    inline_.on_weights_changed(state);
    return;
  }
  needs_resync_ = true;
}

void ControlPlanePolicy::on_enqueue(const net::MqState& state, int q, const net::Packet& p) {
  inline_.on_enqueue(state, q, p);
}

void ControlPlanePolicy::on_dequeue(const net::MqState& state, int q, const net::Packet& p) {
  inline_.on_dequeue(state, q, p);
}

std::vector<std::int64_t> ControlPlanePolicy::thresholds() const {
  // During failover the enforced rule is DT, which has no per-queue
  // threshold vector — mirror core::DynamicThresholdPolicy and advertise
  // none (the auditor then skips the ΣT = B check, as it does for DT).
  if (failed_over_) return {};
  if (!async()) return inline_.thresholds();
  return enforced_;
}

bool ControlPlanePolicy::enforces_thresholds() const {
  if (failed_over_) return false;
  if (!async()) return inline_.enforces_thresholds();
  return true;  // async admission is exactly q_p + size ≤ enforced T_p
}

Time ControlPlanePolicy::threshold_staleness_bound() const {
  if (!async()) return 0;  // inline DynaQ never drifts — keep the strict contract
  // A reconfiguration is re-balanced by the next periodic update (one
  // period + delay), surviving one lost update (a second period), and in
  // the worst case rides through a watchdog failover/restore cycle.
  return 2 * (config_.update_period + config_.update_delay) + config_.watchdog_deadline;
}

telemetry::DropReason ControlPlanePolicy::last_drop_reason() const {
  if (admit_path_ == AdmitPath::kDelegated) return inline_.last_drop_reason();
  return telemetry::DropReason::kThreshold;
}

int ControlPlanePolicy::last_exchange_victim() const {
  if (admit_path_ == AdmitPath::kDelegated) return inline_.last_exchange_victim();
  return -1;
}

void ControlPlanePolicy::attach_telemetry(telemetry::Hub& hub, int tel_port) {
  hub_ = &hub;
  tel_port_ = static_cast<std::int16_t>(tel_port);
}

void ControlPlanePolicy::stall_for(Time duration) {
  if (duration <= 0) return;
  if (alive()) fault_begin_ = sim_.now();
  stall_until_ = std::max(stall_until_, sim_.now() + duration);
  resync_sent_ = false;  // an in-flight re-sync would land during the stall
}

void ControlPlanePolicy::crash_for(Time duration) {
  if (duration <= 0) return;
  if (alive()) fault_begin_ = sim_.now();
  crashed_until_ = std::max(crashed_until_, sim_.now() + duration);
  ++epoch_;              // void every in-flight update of the dead incarnation
  needs_resync_ = true;  // controller state is lost; Eq. 1 re-init on recovery
  resync_sent_ = false;
}

void ControlPlanePolicy::set_update_loss(double rate) { loss_rate_ = clamp_rate(rate); }

void ControlPlanePolicy::resync() {
  std::vector<double> weights;
  weights.reserve(state_->queues.size());
  for (const net::ServiceQueue& q : state_->queues) weights.push_back(q.weight);
  inline_.controller().set_weights(weights);
  inline_.controller().reinitialize(state_->buffer_bytes);
  needs_resync_ = false;
}

void ControlPlanePolicy::drain_blocked() {
  std::int64_t occupancy[64];
  const int m = state_->num_queues();
  for (int i = 0; i < m; ++i) occupancy[i] = state_->queue(i).bytes;
  for (int q = 0; q < m; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    if (blocked_bytes_[uq] <= 0) continue;
    // The verdict is advisory here — a successful exchange raises T_q in
    // the vector the next update ships; a drop verdict means the victim
    // protection held and the stale rejection was the right call anyway.
    (void)inline_.controller().on_arrival({occupancy, static_cast<std::size_t>(m)}, q,
                                          last_blocked_size_[uq]);
    blocked_bytes_[uq] = 0;
    last_blocked_size_[uq] = 0;
  }
}

void ControlPlanePolicy::send_update(bool reliable) {
  ++seq_;
  // Exactly one draw per send, lost or not, reliable or not: the loss
  // stream stays aligned across seeds/scenarios (DESIGN.md §10).
  const double draw = rng_.uniform();
  if (!reliable && draw < loss_rate_) {
    emit_control(telemetry::EventKind::kControlUpdateLost, 0);
    return;
  }
  const auto ts = inline_.controller().thresholds();
  std::vector<std::int64_t> vec(ts.begin(), ts.end());
  const std::uint64_t seq = seq_;
  const std::uint64_t epoch = epoch_;
  sim_.schedule_in(config_.update_delay, [this, vec = std::move(vec), seq, epoch]() mutable {
    commit(std::move(vec), seq, epoch);
  });
}

void ControlPlanePolicy::commit(std::vector<std::int64_t> vec, std::uint64_t seq,
                                std::uint64_t epoch) {
  // Guard against stale deliveries: reordered/older updates and anything
  // sent by a since-crashed controller incarnation are discarded.
  if (epoch != epoch_ || seq <= applied_seq_) return;
  applied_seq_ = seq;
  enforced_ = std::move(vec);
  last_commit_ = sim_.now();
  emit_control(telemetry::EventKind::kControlUpdate,
               static_cast<std::int64_t>(std::min<std::uint64_t>(
                   seq, static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max()))));
  if (failed_over_) {
    if (alive()) {
      restore();
    } else {
      // The re-sync landed during a new outage; let the watchdog push again
      // once the controller is actually back.
      resync_sent_ = false;
    }
  }
}

void ControlPlanePolicy::tick() {
  schedule_tick();
  // A failed-over port is the watchdog's to recover; a dead controller
  // produces nothing (which is exactly what ages last_commit_ past the
  // watchdog deadline).
  if (failed_over_ || !alive()) return;
  if (needs_resync_) resync();
  drain_blocked();
  send_update(/*reliable=*/false);
}

void ControlPlanePolicy::probe() {
  schedule_probe();
  if (!failed_over_) {
    // Async mode watches the commit stream (covers stall, crash and a lossy
    // channel alike); inline mode can only watch controller liveness.
    const bool dead = async() ? sim_.now() - last_commit_ > config_.watchdog_deadline
                              : !alive();
    if (dead) {
      failed_over_ = true;
      failover_time_ = sim_.now();
      const Time staleness =
          async() ? sim_.now() - last_commit_ : sim_.now() - fault_begin_;
      emit_control(telemetry::EventKind::kControlFailover,
                   static_cast<std::int64_t>(to_microseconds(staleness)));
    }
    return;
  }
  if (!alive()) return;
  if (async()) {
    // Recovery: re-sync the controller from the live port config and push
    // the fresh vector reliably; restore fires when it commits.
    if (!resync_sent_) {
      if (needs_resync_) resync();
      resync_sent_ = true;
      send_update(/*reliable=*/true);
    }
    return;
  }
  if (needs_resync_) resync();
  restore();
}

void ControlPlanePolicy::restore() {
  failed_over_ = false;
  resync_sent_ = false;
  // Recovery time: from the instant the controller came back (end of the
  // outage; the failover instant itself for pure channel-loss failovers)
  // to DynaQ enforcement resuming.
  const Time back_at = std::max({failover_time_, stall_until_, crashed_until_});
  const Time recovery = sim_.now() - std::min(back_at, sim_.now());
  emit_control(telemetry::EventKind::kControlRestore,
               static_cast<std::int64_t>(to_microseconds(recovery)));
}

void ControlPlanePolicy::schedule_tick() {
  sim_.schedule_in(config_.update_period, [this] { tick(); });
}

void ControlPlanePolicy::schedule_probe() {
  // Probe at a quarter of the deadline so failover engages within one
  // watchdog period of the controller going quiet.
  sim_.schedule_in(std::max<Time>(config_.watchdog_deadline / 4, 1), [this] { probe(); });
}

void ControlPlanePolicy::emit_control(telemetry::EventKind kind, std::int64_t payload_us) {
  if (hub_ == nullptr || !hub_->enabled()) return;
  hub_->emit({.kind = kind, .port = tel_port_, .bytes = clamp_us(payload_us)});
}

ControlPlanePolicy* find_control_plane(net::BufferPolicy& policy) {
  if (auto* direct = dynamic_cast<ControlPlanePolicy*>(&policy)) return direct;
  if (auto* audited = dynamic_cast<check::AuditedBufferPolicy*>(&policy)) {
    return dynamic_cast<ControlPlanePolicy*>(&audited->inner());
  }
  return nullptr;
}

}  // namespace dynaq::ctrlplane
