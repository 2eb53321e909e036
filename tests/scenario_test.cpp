// Scenario-orchestration tests (DESIGN.md §11): catalogue construction,
// every catalogue timeline armed and applied in a run, director validation,
// the ΣT = B audit through mid-run weight rebalances, link_down timer
// cancellation, pause/resume service churn and the determinism of
// scenario-bearing runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "core/policies.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue_disc.hpp"
#include "net/schedulers.hpp"
#include "scenario/director.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/events.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

constexpr int kNumQueues = 4;

// Testbed-style star with one long-lived flow per queue; short enough that
// the whole file stays in tier-1 time budget, long enough for steady state
// between catalogue actions (which land on eighths of the duration).
harness::StaticExperimentConfig star_config(
    core::SchemeKind kind = core::SchemeKind::kDynaQ) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.scheme.kind = kind;
  for (int q = 0; q < kNumQueues; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = 1,
                          .first_src_host = 1 + q,
                          .num_src_hosts = 1,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = seconds(std::int64_t{2});
  cfg.meter_window = milliseconds(std::int64_t{100});
  return cfg;
}

scenario::ScenarioParams params_for(const harness::StaticExperimentConfig& cfg) {
  scenario::ScenarioParams sp;
  sp.duration = cfg.duration;
  sp.num_queues = kNumQueues;
  return sp;
}

// Mean aggregate (or one queue's) gbps over the window range [lo, hi) given
// as fractions of the run.
double slice_mean(const stats::ThroughputMeter& meter, double lo, double hi, int queue = -1) {
  const auto n = meter.num_windows();
  const auto a = static_cast<std::size_t>(lo * static_cast<double>(n));
  const auto b = static_cast<std::size_t>(hi * static_cast<double>(n));
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t w = a; w < b && w < n; ++w) {
    sum += queue < 0 ? meter.aggregate_gbps(w) : meter.gbps(w, queue);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// ---------------------------------------------------------- catalogue --

TEST(Catalogue, UnknownNameThrowsListingKnown) {
  const auto sp = params_for(star_config());
  try {
    scenario::make_scenario("no_such_timeline", sp);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_timeline"), std::string::npos) << msg;
    EXPECT_NE(msg.find("weight_churn"), std::string::npos)
        << "message should list the known names: " << msg;
  }
}

TEST(Catalogue, EveryNamedScenarioBuilds) {
  const auto sp = params_for(star_config());
  for (const std::string& name : scenario::scenario_names()) {
    const scenario::Scenario s = scenario::make_scenario(name, sp);
    EXPECT_EQ(s.name, name);
    EXPECT_EQ(s.empty(), name == "none") << name;
  }
}

// Every catalogue timeline must arm against the handles a harness run
// registers, and apply every action it holds. The control plane is set as
// rob_controller sets it, so the controller timelines find "sw.p0.ctrl".
TEST(Catalogue, EveryTimelineArmsAndAppliesInAStarRun) {
  for (const std::string& name : scenario::scenario_names()) {
    auto cfg = star_config(core::SchemeKind::kDynaQ);
    cfg.duration = seconds(std::int64_t{1});
    cfg.control_plane.enabled = true;
    cfg.control_plane.update_period = milliseconds(std::int64_t{5});
    cfg.control_plane.update_delay = milliseconds(std::int64_t{1});
    cfg.control_plane.watchdog_deadline = milliseconds(std::int64_t{40});
    const auto scn = scenario::make_scenario(name, params_for(cfg));
    cfg.scenario = &scn;
    try {
      const auto r = harness::run_static_experiment(cfg);
      EXPECT_GE(r.telemetry.scenario_actions, scn.actions.size()) << name;
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  }
}

TEST(Catalogue, RejectsDegenerateParams) {
  auto sp = params_for(star_config());
  sp.duration = 0;
  EXPECT_THROW(scenario::make_scenario("weight_churn", sp), std::invalid_argument);
}

// ----------------------------------------------------------- director --

TEST(Director, ArmRejectsUnknownHandle) {
  sim::Simulator sim;
  scenario::ScenarioDirector director(sim);
  scenario::Scenario s{"t", {}};
  scenario::Action a;
  a.at = 0;
  a.kind = scenario::ActionKind::kWeightUpdate;
  a.target = "sw.p0";
  a.weights = {1, 1, 1, 1};
  s.actions.push_back(a);
  try {
    director.arm(s);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("none registered"), std::string::npos) << e.what();
  }
  EXPECT_EQ(sim.events_processed(), 0u) << "nothing may be scheduled on reject";
}

// Validate-all-then-schedule: a timeline whose LAST action is invalid must
// be rejected as a whole — the valid leading action may not fire later, and
// the error names the unresolvable handle.
TEST(Director, ArmRejectsWholeTimelineOnLateInvalidAction) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 100'000, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  scenario::ScenarioDirector director(sim);
  director.register_qdisc("sw.p0", qd);

  scenario::Scenario s{"t", {}};
  scenario::Action ok;
  ok.at = 0;
  ok.kind = scenario::ActionKind::kWeightUpdate;
  ok.target = "sw.p0";
  ok.weights = {2, 1};
  s.actions.push_back(ok);
  scenario::Action bad;
  bad.at = milliseconds(std::int64_t{1});
  bad.kind = scenario::ActionKind::kControllerCrash;
  bad.target = "sw.p9.ctrl";  // never registered
  bad.duration = milliseconds(std::int64_t{5});
  s.actions.push_back(bad);

  try {
    director.arm(s);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sw.p9.ctrl"), std::string::npos) << e.what();
  }
  // Nothing from the timeline was scheduled: running the sim to completion
  // applies zero actions and the valid weight update never lands.
  sim.run();
  EXPECT_EQ(director.actions_applied(), 0u);
  EXPECT_EQ(director.actions_armed(), 0u);
  EXPECT_EQ(qd.state().queue(0).weight, 1.0);
}

TEST(Director, ArmTwiceThrows) {
  sim::Simulator sim;
  scenario::ScenarioDirector director(sim);
  const scenario::Scenario s{"empty", {}};
  director.arm(s);
  EXPECT_THROW(director.arm(s), std::logic_error);
}

TEST(Director, DynamicRunRejectsServiceChurn) {
  // Dynamic experiments register topology handles only — no per-queue
  // sender lists — so a join/leave timeline must fail at arm() time.
  harness::DynamicStarConfig cfg;
  cfg.dist = &workload::web_search_workload();
  cfg.num_flows = 20;
  const auto scn =
      scenario::make_scenario("service_churn", params_for(star_config()));
  cfg.scenario = &scn;
  EXPECT_THROW(harness::run_dynamic_star_experiment(cfg), std::invalid_argument);
}

// ------------------------------------------------------- weight churn --

TEST(WeightChurn, SigmaTAuditedThroughEveryRebalance) {
  // Harness runs always audit: every set_weights lands on the auditor's
  // "on_weights_changed" checkpoint, which throws AuditError the moment
  // ΣT ≠ B. A clean run therefore certifies the invariant at all six
  // rebalances (5 promotions + restore).
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  const auto scn = scenario::make_scenario("weight_churn", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_EQ(r.telemetry.scenario_actions, 6u);
  EXPECT_GT(slice_mean(r.meter, 0.875, 1.0), 0.5) << "line rate after restore";
}

TEST(WeightChurn, PromotedQueueGainsBandwidth) {
  // Step 1 promotes queue 0 to weight 4 during [1/8, 2/8): DRR should give
  // it ~4/7 of the link vs ~1/7 each for the others.
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  const auto scn = scenario::make_scenario("weight_churn", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);
  const double promoted = slice_mean(r.meter, 0.14, 0.25, 0);
  const double peer = slice_mean(r.meter, 0.14, 0.25, 3);
  EXPECT_GT(promoted, 2.0 * peer) << "promoted=" << promoted << " peer=" << peer;
}

// ---------------------------------------------------------- link flap --

TEST(LinkFlap, DownCancelsInFlightTimerNoDeadClosures) {
  sim::Simulator sim;
  net::Port a(sim, /*rate_bps=*/1e6, microseconds(std::int64_t{10}),
              std::make_unique<net::DropTailQueue>());
  net::Port b(sim, 1e6, microseconds(std::int64_t{10}),
              std::make_unique<net::DropTailQueue>());
  a.set_peer(&b);
  b.set_peer(&a);
  int delivered = 0;
  b.set_receiver([&delivered](net::Packet&&) { ++delivered; });

  scenario::ScenarioDirector director(sim);
  director.register_link("l", a);
  scenario::Scenario s{"flap", {}};
  scenario::Action down;
  down.at = microseconds(std::int64_t{1});  // mid-serialization of packet 1
  down.kind = scenario::ActionKind::kLinkDown;
  down.target = "l";
  s.actions.push_back(down);
  scenario::Action up;
  up.at = milliseconds(std::int64_t{1});
  up.kind = scenario::ActionKind::kLinkUp;
  up.target = "l";
  s.actions.push_back(up);
  director.arm(s);

  // Two packets: ~12 ms serialization each at 1 Mbps, so the cut at 1 us
  // catches packet 1 on the wire-side timer.
  a.send(net::make_data_packet(1, 0, 1, 0, 1460));
  a.send(net::make_data_packet(1, 0, 1, 1460, 1460));
  sim.run_until(seconds(std::int64_t{1}));

  EXPECT_EQ(sim.events_cancelled(), 1u) << "the superseded serialize timer";
  EXPECT_EQ(a.packets_lost_link_down(), 1u);
  EXPECT_EQ(delivered, 1) << "the queued packet transmits after link_up";
  EXPECT_EQ(director.actions_applied(), 2u);
}

TEST(LinkFlap, ThroughputCollapsesAndRecovers) {
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  const auto scn = scenario::make_scenario("link_flap", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_EQ(r.telemetry.scenario_actions, 4u);
  const double pre = slice_mean(r.meter, 0.125, 0.25);
  const double outage = slice_mean(r.meter, 0.27, 0.36);
  const double recovered = slice_mean(r.meter, 0.8, 1.0);
  EXPECT_LT(outage, 0.25 * pre) << "pre=" << pre << " outage=" << outage;
  EXPECT_GT(recovered, 0.5 * pre) << "pre=" << pre << " recovered=" << recovered;
  EXPECT_GT(r.sender_totals.timeouts, 0u) << "an eighth-of-a-run outage must RTO";
}

// ------------------------------------------------------ service churn --

TEST(ServiceChurn, PausedQueueGoesIdleThenRecovers) {
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  const auto scn = scenario::make_scenario("service_churn", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_EQ(r.telemetry.scenario_actions, 2u);
  // Queue 3 leaves at 2/8 and rejoins at 5/8.
  EXPECT_LT(slice_mean(r.meter, 0.35, 0.6, 3), 0.02);
  EXPECT_GT(slice_mean(r.meter, 0.8, 1.0, 3), 0.05);
  // The survivors absorb the freed bandwidth while queue 3 is away.
  EXPECT_GT(slice_mean(r.meter, 0.35, 0.6, 0), slice_mean(r.meter, 0.125, 0.25, 0) * 1.1);
}

// -------------------------------------------------------- determinism --

TEST(ScenarioDeterminism, HashStableAcrossRunsAndSensitiveToTimeline) {
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  cfg.duration = seconds(std::int64_t{1});
  const auto scn = scenario::make_scenario("weight_churn", params_for(cfg));
  cfg.scenario = &scn;
  const auto r1 = harness::run_static_experiment(cfg);
  const auto r2 = harness::run_static_experiment(cfg);
  EXPECT_EQ(r1.trajectory_hash, r2.trajectory_hash) << "same seed, same timeline";

  cfg.seed = 2;
  const auto r3 = harness::run_static_experiment(cfg);
  EXPECT_NE(r1.trajectory_hash, r3.trajectory_hash) << "seeds must diverge";

  cfg.seed = 1;
  cfg.scenario = nullptr;
  const auto r4 = harness::run_static_experiment(cfg);
  EXPECT_NE(r1.trajectory_hash, r4.trajectory_hash)
      << "the applied timeline must be part of the trajectory";
}

// ------------------------------------------------- incast + resize --

TEST(IncastBurst, SpawnsFlowsMidRun) {
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  cfg.duration = seconds(std::int64_t{1});
  const auto scn = scenario::make_scenario("incast", params_for(cfg));
  cfg.scenario = &scn;
  const auto with_incast = harness::run_static_experiment(cfg);
  EXPECT_EQ(with_incast.telemetry.scenario_actions, 1u);

  cfg.scenario = nullptr;
  const auto baseline = harness::run_static_experiment(cfg);
  EXPECT_GT(with_incast.sender_totals.bytes_sent, baseline.sender_totals.bytes_sent)
      << "16 extra 20 KB flows must add traffic";
}

TEST(BufferSqueeze, MidRunResizeStaysAudited) {
  auto cfg = star_config(core::SchemeKind::kDynaQ);
  cfg.duration = seconds(std::int64_t{1});
  const auto scn = scenario::make_scenario("buffer_squeeze", params_for(cfg));
  cfg.scenario = &scn;
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_EQ(r.telemetry.scenario_actions, 2u) << "shrink + restore";
  EXPECT_GT(slice_mean(r.meter, 0.8, 1.0), 0.5) << "restored buffer serves line rate";
}

}  // namespace
}  // namespace dynaq
