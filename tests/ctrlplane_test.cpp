// Control-plane degradation tests (DESIGN.md §14): inline byte-identity of
// the shim, asynchronous threshold updates, watchdog failover to Dynamic
// Thresholds under stall/crash/update-loss faults, bounded recovery time,
// the auditor's bounded-staleness window, and determinism of degraded runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "ctrlplane/control_plane.hpp"
#include "harness/static_experiment.hpp"
#include "net/mq_state.hpp"
#include "net/packet.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace dynaq {
namespace {

constexpr int kNumQueues = 4;

// Testbed-style star, one long-lived flow per queue — the same shape the
// scenario tests use, short enough for tier-1 budgets.
harness::StaticExperimentConfig base_config() {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.scheme.kind = core::SchemeKind::kDynaQ;
  for (int q = 0; q < kNumQueues; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = 1,
                          .first_src_host = 1 + q,
                          .num_src_hosts = 1,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = seconds(std::int64_t{1});
  cfg.meter_window = milliseconds(std::int64_t{100});
  return cfg;
}

ctrlplane::ControlPlaneConfig async_control() {
  ctrlplane::ControlPlaneConfig cp;
  cp.enabled = true;
  cp.update_period = milliseconds(std::int64_t{5});
  cp.update_delay = milliseconds(std::int64_t{1});
  cp.watchdog_deadline = milliseconds(std::int64_t{40});
  return cp;
}

scenario::ScenarioParams params_for(const harness::StaticExperimentConfig& cfg) {
  scenario::ScenarioParams sp;
  sp.duration = cfg.duration;
  sp.num_queues = kNumQueues;
  return sp;
}

// ------------------------------------------------------ inline mode --

// The shim's default configuration (period 0, no watchdog) is a pure
// pass-through: it schedules no events and delegates every call inline, so
// the trajectory must be byte-identical to running DynaQ without the shim.
TEST(ControlPlane, InlineDefaultIsByteIdenticalToPlainDynaQ) {
  auto plain = base_config();
  const auto r_plain = harness::run_static_experiment(plain);

  auto shimmed = base_config();
  shimmed.control_plane.enabled = true;  // period 0, watchdog 0
  const auto r_shim = harness::run_static_experiment(shimmed);

  EXPECT_EQ(r_plain.trajectory_hash, r_shim.trajectory_hash);
  EXPECT_EQ(r_shim.telemetry.control.updates, 0u);
  EXPECT_EQ(r_shim.telemetry.control.failovers, 0u);
}

// ------------------------------------------------------- async mode --

TEST(ControlPlane, AsyncUpdatesCommitAndWatchdogStaysQuiet) {
  auto cfg = base_config();
  cfg.control_plane = async_control();
  const auto r = harness::run_static_experiment(cfg);

  // ~1 s / 5 ms periods, minus the 1 ms commit delay in flight at the end.
  EXPECT_GT(r.telemetry.control.updates, 100u);
  EXPECT_EQ(r.telemetry.control.failovers, 0u) << "healthy controller must not fail over";
  EXPECT_EQ(r.telemetry.control.restores, 0u);
  EXPECT_TRUE(r.telemetry.control.any());
  // Stale-but-bounded thresholds still keep the link busy.
  EXPECT_GT(r.meter.aggregate_gbps(r.meter.num_windows() / 2), 0.9);
}

// ------------------------------------------------- faults + recovery --

TEST(ControlPlane, CrashFailsOverAndRecoversWithinBudget) {
  auto cfg = base_config();
  cfg.control_plane = async_control();
  const auto scn = scenario::make_scenario("controller_crash", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);

  EXPECT_EQ(r.telemetry.scenario_actions, 1u);
  EXPECT_EQ(r.telemetry.control.failovers, 1u);
  EXPECT_EQ(r.telemetry.control.restores, 1u);
  EXPECT_GT(r.telemetry.control.degraded_us, 0);
  // Recovery runs from the controller's return to the restoring commit:
  // at most one watchdog probe interval plus the re-sync update delay —
  // bounded well inside watchdog_deadline + update_period + update_delay.
  const auto& cp = cfg.control_plane;
  EXPECT_GT(r.telemetry.control.recovery_us, 0);
  EXPECT_LE(static_cast<double>(r.telemetry.control.recovery_us),
            to_microseconds(cp.watchdog_deadline + cp.update_period + cp.update_delay));
  // DT failover keeps the port busy: retention near 1 on a saturated link.
  EXPECT_GT(r.telemetry.control.throughput_retention, 0.9);
}

TEST(ControlPlane, StallFailsOverAndRestores) {
  auto cfg = base_config();
  cfg.control_plane = async_control();
  const auto scn = scenario::make_scenario("controller_stall", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);

  EXPECT_EQ(r.telemetry.control.failovers, 1u);
  EXPECT_EQ(r.telemetry.control.restores, 1u);
}

// An inline shim (period 0) with a watchdog enforces the last good
// thresholds while the controller is down, then fails over and re-syncs.
TEST(ControlPlane, InlineCrashFreezesThenFailsOver) {
  auto cfg = base_config();
  cfg.control_plane.enabled = true;
  cfg.control_plane.watchdog_deadline = milliseconds(std::int64_t{40});
  const auto scn = scenario::make_scenario("controller_crash", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);

  EXPECT_EQ(r.telemetry.control.failovers, 1u);
  EXPECT_EQ(r.telemetry.control.restores, 1u);
  EXPECT_GT(r.telemetry.control.throughput_retention, 0.9);
}

// A total update-loss window starves commits past the watchdog deadline;
// the reliable re-sync path (exempt from injected loss) restores DynaQ even
// mid-window — after which periodic updates are lost again, so the shim
// cycles failover → re-sync → failover until the window closes. Every
// failover must be matched by a restore and the cycle must stop with the
// window.
TEST(ControlPlane, TotalUpdateLossTriggersFailoverAndReliableResync) {
  auto cfg = base_config();
  cfg.control_plane = async_control();
  const auto scn = scenario::make_scenario("control_loss_window", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);

  EXPECT_EQ(r.telemetry.scenario_actions, 2u) << "window start + restore both count";
  EXPECT_GT(r.telemetry.control.updates_lost, 0u);
  EXPECT_GE(r.telemetry.control.failovers, 1u);
  EXPECT_EQ(r.telemetry.control.restores, r.telemetry.control.failovers)
      << "every failover ends in a reliable re-sync restore";
  // The 250 ms window supports at most ~window/deadline cycles.
  EXPECT_LE(r.telemetry.control.failovers, 7u);
}

// -------------------------------------------------------- determinism --

TEST(ControlPlane, DegradedRunsAreSeedDeterministic) {
  auto cfg = base_config();
  cfg.control_plane = async_control();
  cfg.control_plane.update_loss = 0.05;
  const auto scn = scenario::make_scenario("controller_crash", params_for(cfg));
  cfg.scenario = &scn;
  const auto r1 = harness::run_static_experiment(cfg);
  const auto r2 = harness::run_static_experiment(cfg);
  EXPECT_EQ(r1.trajectory_hash, r2.trajectory_hash) << "same seed, same faults";

  cfg.seed = 2;
  cfg.control_plane.seed = 2;
  const auto r3 = harness::run_static_experiment(cfg);
  EXPECT_NE(r1.trajectory_hash, r3.trajectory_hash) << "seeds must diverge";
}

// -------------------------------------------- bounded-staleness audit --

// Minimal conserving policy whose thresholds the test steers directly: the
// auditor must tolerate ΣT ≠ B inside the declared staleness window and
// flag it only once the window is exceeded.
class FakeStalePolicy final : public net::BufferPolicy {
 public:
  bool admit(const net::MqState&, int, const net::Packet&) override { return true; }
  std::vector<std::int64_t> thresholds() const override { return thresholds_; }
  bool conserves_threshold_sum() const override { return true; }
  Time threshold_staleness_bound() const override { return milliseconds(std::int64_t{1}); }
  std::string_view name() const override { return "fake-stale"; }

  std::vector<std::int64_t> thresholds_;
};

TEST(ControlPlane, AuditorToleratesStalenessOnlyWithinBound) {
  sim::Simulator sim;
  auto fake = std::make_unique<FakeStalePolicy>();
  FakeStalePolicy* stale = fake.get();
  check::AuditedBufferPolicy audited(std::move(fake), &sim,
                                     {.throw_on_violation = false});
  net::MqState state;
  state.buffer_bytes = 1'000;
  state.queues.resize(2);
  state.queues[0].weight = state.queues[1].weight = 1.0;
  const net::Packet p = net::make_data_packet(1, 0, 1, 0, 100);

  stale->thresholds_ = {500, 500};  // balanced: no window opens
  audited.admit(state, 0, p);
  EXPECT_EQ(audited.stale_since(), -1);
  EXPECT_TRUE(audited.violations().empty());

  stale->thresholds_ = {600, 500};  // ΣT = 1100 ≠ B: window opens at t=0
  audited.admit(state, 0, p);
  EXPECT_EQ(audited.stale_since(), 0);
  EXPECT_TRUE(audited.violations().empty()) << "inside the 1 ms bound";

  // Re-balance before the bound expires: the window must close cleanly.
  sim.schedule_at(microseconds(std::int64_t{500}), [&] {
    stale->thresholds_ = {400, 600};
    audited.admit(state, 0, p);
  });
  // Past the bound with the sum still broken: now it is a violation.
  sim.schedule_at(milliseconds(std::int64_t{2}), [&] {
    stale->thresholds_ = {600, 500};
    audited.admit(state, 0, p);  // opens a fresh window at t=2ms
  });
  sim.schedule_at(milliseconds(std::int64_t{4}), [&] { audited.admit(state, 0, p); });
  sim.run();

  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations().front().kind, check::ViolationKind::kStaleThresholdWindow);
}

// The e2e lookup the topology uses: the shim is found through the audit
// decorator, and plain policies yield null.
TEST(ControlPlane, FindControlPlaneSeesThroughAuditWrap) {
  sim::Simulator sim;
  ctrlplane::ControlPlaneConfig cp;
  cp.enabled = true;
  auto shim = std::make_unique<ctrlplane::ControlPlanePolicy>(sim, cp,
                                                              core::DynaQPolicy::Options{});
  ctrlplane::ControlPlanePolicy* raw = shim.get();
  check::AuditedBufferPolicy audited(std::move(shim), &sim);
  EXPECT_EQ(ctrlplane::find_control_plane(audited), raw);

  check::AuditedBufferPolicy plain(std::make_unique<FakeStalePolicy>(), &sim);
  EXPECT_EQ(ctrlplane::find_control_plane(plain), nullptr);
}

}  // namespace
}  // namespace dynaq
