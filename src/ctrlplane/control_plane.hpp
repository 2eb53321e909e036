// Asynchronous control-plane shim for DynaQ (DESIGN.md §14).
//
// On a real switch Algorithm 1 does not run inline with every arrival: the
// controller computes thresholds and pushes them to the data plane over a
// control channel with a period, a latency and a loss probability. This
// module models that separation as a net::BufferPolicy wrapper around
// core::DynaQPolicy:
//
//   * update_period == 0 (the default) keeps today's inline behaviour —
//     every call delegates straight to the wrapped DynaQPolicy, no timers
//     are scheduled, and trajectories are byte-identical to a bare DynaQ
//     run;
//   * update_period > 0 switches to asynchronous operation: the data plane
//     enforces the last *committed* threshold vector (possibly stale),
//     while the controller re-runs Algorithm 1 on a timer against the
//     blocked demand it observed and ships a fresh vector per period,
//     delayed by update_delay and lost with probability update_loss;
//   * a deadline-based watchdog (watchdog_deadline > 0) detects a stalled,
//     crashed or unreachable controller and fails the port over to classic
//     Dynamic Thresholds (the same rule as core::DynamicThresholdPolicy);
//     once the controller is healthy again the watchdog re-syncs it from
//     the live port configuration (Eq. 1 — ΣT = B re-established through
//     the audited path) and restores DynaQ enforcement;
//   * every transition is emitted on the telemetry bus (kControlUpdate /
//     kControlUpdateLost / kControlFailover / kControlRestore), so stale
//     state, failover and re-sync all fold into the trajectory hash.
//
// Fault handles (stall_for / crash_for / set_update_loss) are driven by
// scenario::ScenarioDirector actions (controller_stall / controller_crash /
// control_loss_window) — detlint rule ctrlplane-bypass: controller state is
// mutated only through this shim, never by poking core::DynaQController
// directly.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/policies.hpp"
#include "net/buffer_policy.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaq::ctrlplane {

struct ControlPlaneConfig {
  // Harness switch (harness::StaticExperimentConfig::control_plane): when
  // false the shim is not installed at all. The policy itself ignores it.
  bool enabled = false;
  // Threshold recomputation/push period. 0 = inline (today's behaviour).
  Time update_period = 0;
  // One-way control-message latency from controller to data plane.
  Time update_delay = 0;
  // Bernoulli loss probability of a threshold update in transit.
  double update_loss = 0.0;
  // Watchdog failover deadline; 0 disables the watchdog. In async mode the
  // data plane declares the controller dead when no update committed for
  // this long, so it must comfortably exceed update_period + update_delay.
  Time watchdog_deadline = 0;
  // Seed of the control-channel loss stream (independent of model RNG).
  std::uint64_t seed = 1;
};

class ControlPlanePolicy final : public net::BufferPolicy {
 public:
  ControlPlanePolicy(sim::Simulator& sim, ControlPlaneConfig config,
                     core::DynaQPolicy::Options dynaq_options = {});

  // ---- net::BufferPolicy --------------------------------------------------
  void attach(const net::MqState& state) override;
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  void on_admit_aborted(const net::MqState& state, int q, const net::Packet& p) override;
  void on_buffer_resize(const net::MqState& state) override;
  void on_weights_changed(const net::MqState& state) override;
  void on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  void on_dequeue(const net::MqState& state, int q, const net::Packet& p) override;
  std::vector<std::int64_t> thresholds() const override;
  bool conserves_threshold_sum() const override { return !failed_over_; }
  bool enforces_thresholds() const override;
  Time threshold_staleness_bound() const override;
  telemetry::DropReason last_drop_reason() const override;
  int last_exchange_victim() const override;
  void attach_telemetry(telemetry::Hub& hub, int tel_port) override;
  std::string_view name() const override { return "dynaq+ctrl"; }

  // ---- fault handles (scenario::ScenarioDirector, DESIGN.md §11/§14) ------
  // Stall: the controller stops reacting/pushing but keeps its state.
  void stall_for(Time duration);
  // Crash: like stall, but controller state is lost — in-flight updates are
  // voided and recovery requires a full Eq. 1 re-sync from the port config.
  void crash_for(Time duration);
  // Control-channel loss override (control_loss_window start/end).
  void set_update_loss(double rate);
  double base_update_loss() const { return config_.update_loss; }

 private:
  // Which branch the most recent admit() took, so on_admit_aborted() and
  // the telemetry introspection forward only when DynaQ actually ran.
  enum class AdmitPath : std::uint8_t { kDelegated, kFrozen, kAsync, kFailover };

  bool async() const { return config_.update_period > 0; }
  bool alive() const {
    const Time now = sim_.now();
    return now >= stall_until_ && now >= crashed_until_;
  }
  bool admit_dt(const net::MqState& state, int q, const net::Packet& p);
  // Rebuild the controller from the live port configuration: Eq. 1 over the
  // current weights and buffer size, so ΣT = B holds exactly afterwards.
  void resync();
  // Feed the controller the demand the stale data plane rejected since the
  // last tick (one Algorithm 1 arrival per backlogged queue, ascending).
  void drain_blocked();
  // Ship the controller's current vector; commits update_delay later unless
  // the channel drops it. `reliable` models an acknowledged re-sync push.
  void send_update(bool reliable);
  void commit(std::vector<std::int64_t> vec, std::uint64_t seq, std::uint64_t epoch);
  void tick();
  void probe();
  void restore();
  void schedule_tick();
  void schedule_probe();
  void emit_control(telemetry::EventKind kind, std::int64_t payload_us);

  sim::Simulator& sim_;
  ControlPlaneConfig config_;
  core::DynaQPolicy inline_;  // controller owner; full delegate in inline mode
  sim::Rng rng_;              // control-channel loss stream
  const net::MqState* state_ = nullptr;  // live port state (outlives the policy)
  telemetry::Hub* hub_ = nullptr;
  std::int16_t tel_port_ = -1;

  // Data-plane view (async mode): last committed thresholds and the demand
  // rejected against them since the last controller tick.
  std::vector<std::int64_t> enforced_;
  std::vector<std::int64_t> blocked_bytes_;
  std::vector<std::int32_t> last_blocked_size_;

  double loss_rate_ = 0.0;  // current channel loss (scenario may override)
  Time stall_until_ = 0;
  Time crashed_until_ = 0;
  Time fault_begin_ = 0;  // start of the current outage (for staleness payload)
  bool needs_resync_ = false;
  bool failed_over_ = false;
  bool resync_sent_ = false;  // async: reliable re-sync push is in flight
  bool timers_started_ = false;

  std::uint64_t seq_ = 0;          // updates sent
  std::uint64_t applied_seq_ = 0;  // newest committed update
  std::uint64_t epoch_ = 0;        // bumped per crash; voids in-flight commits
  Time last_commit_ = 0;
  Time failover_time_ = 0;

  AdmitPath admit_path_ = AdmitPath::kDelegated;
};

// Resolves the control-plane shim installed on a qdisc's policy, looking
// through the check::AuditedBufferPolicy decorator when present. Returns
// nullptr for ports running any other scheme — topologies use this to
// register scenario handles only where a control plane exists.
ControlPlanePolicy* find_control_plane(net::BufferPolicy& policy);

}  // namespace dynaq::ctrlplane
