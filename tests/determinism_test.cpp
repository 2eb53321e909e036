// Determinism and cross-scheme scenario sweeps: every experiment must be
// bit-identical across runs with the same seed, and every (scheme,
// scheduler, transport) combination must satisfy basic sanity invariants
// end-to-end.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "check/trajectory_hash.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "scenario/scenario.hpp"
#include "sim/fingerprint.hpp"
#include "sim/simulator.hpp"
#include "stats/fairness.hpp"
#include "telemetry/hub.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

TEST(Determinism, DynamicStarIsBitIdentical) {
  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = 250;
  cfg.load = 0.6;
  cfg.dist = &workload::web_search_workload();
  cfg.seed = 21;
  const auto a = harness::run_dynamic_star_experiment(cfg);
  const auto b = harness::run_dynamic_star_experiment(cfg);
  ASSERT_EQ(a.fcts.count(), b.fcts.count());
  for (std::size_t i = 0; i < a.fcts.count(); ++i) {
    ASSERT_EQ(a.fcts.records()[i].finish, b.fcts.records()[i].finish) << "flow " << i;
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.telemetry.drops_by_reason, b.telemetry.drops_by_reason);
  EXPECT_NE(a.trajectory_hash, 0u);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
}

TEST(Determinism, LeafSpineIsBitIdentical) {
  harness::DynamicLeafSpineConfig cfg;
  cfg.fabric.num_leaves = 3;
  cfg.fabric.num_spines = 3;
  cfg.fabric.hosts_per_leaf = 3;
  cfg.num_flows = 150;
  cfg.load = 0.5;
  cfg.seed = 8;
  const auto a = harness::run_dynamic_leaf_spine_experiment(cfg);
  const auto b = harness::run_dynamic_leaf_spine_experiment(cfg);
  ASSERT_EQ(a.fcts.count(), b.fcts.count());
  for (std::size_t i = 0; i < a.fcts.count(); ++i) {
    ASSERT_EQ(a.fcts.records()[i].finish, b.fcts.records()[i].finish);
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.trajectory_hash, 0u);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
}

// ------------------------------------- trajectory-fingerprint oracle --

TEST(TrajectoryHash, SeedChangesTheHash) {
  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = 150;
  cfg.load = 0.5;
  cfg.dist = &workload::web_search_workload();
  cfg.seed = 1;
  const auto a = harness::run_dynamic_star_experiment(cfg);
  cfg.seed = 2;
  const auto b = harness::run_dynamic_star_experiment(cfg);
  EXPECT_NE(a.trajectory_hash, 0u);
  EXPECT_NE(b.trajectory_hash, 0u);
  EXPECT_NE(a.trajectory_hash, b.trajectory_hash);
}

TEST(TrajectoryHash, StaticExperimentStableAndOptional) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1};
  cfg.groups = {
      {.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2},
      {.queue = 1, .num_flows = 2, .first_src_host = 3, .num_src_hosts = 2},
  };
  cfg.duration = milliseconds(std::int64_t{200});
  cfg.seed = 7;
  const auto a = harness::run_static_experiment(cfg);
  const auto b = harness::run_static_experiment(cfg);
  EXPECT_NE(a.trajectory_hash, 0u);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
  EXPECT_EQ(a.events, b.events);
}

// One small run per harness entry point, hashed before the three builders
// shared one run assembly. A change that moves a trajectory on purpose
// updates these values and says why in CHANGES.md.
TEST(TrajectoryHash, PinnedPerEntryPoint) {
  scenario::ScenarioParams sp;
  sp.duration = milliseconds(std::int64_t{300});
  const scenario::Scenario mixed = scenario::make_scenario("mixed", sp);
  harness::StaticExperimentConfig st;
  st.star.num_hosts = 9;
  st.star.scheme.kind = core::SchemeKind::kDynaQ;
  for (int q = 0; q < 4; ++q) {
    st.groups.push_back({.queue = q, .num_flows = 2, .first_src_host = 1 + 2 * q,
                         .num_src_hosts = 2});
  }
  st.duration = sp.duration;
  st.meter_window = milliseconds(std::int64_t{50});
  st.seed = 3;
  st.control_plane.enabled = true;
  st.control_plane.update_period = milliseconds(std::int64_t{5});
  st.control_plane.update_delay = milliseconds(std::int64_t{1});
  st.scenario = &mixed;
  const auto s = harness::run_static_experiment(st);
  EXPECT_GT(s.telemetry.scenario_actions, 0u);
  EXPECT_EQ(sim::fingerprint_hex(s.trajectory_hash), "0x05600e22100bf113");
  // The bottleneck meter sits outside the hash; pin the bytes it counted.
  std::int64_t metered = 0;
  for (std::size_t w = 0; w < s.meter.num_windows(); ++w) {
    for (int q = 0; q < s.meter.num_queues(); ++q) {
      metered += std::llround(s.meter.gbps(w, q) * 1e9 * to_seconds(s.meter.window()) / 8.0);
    }
  }
  EXPECT_EQ(metered, 33871600);

  harness::DynamicStarConfig ds;
  ds.star.queue_weights = {1, 1, 1, 1, 1};
  ds.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  ds.num_flows = 120;
  ds.load = 0.6;
  ds.dist = &workload::web_search_workload();
  ds.seed = 4;
  const auto d = harness::run_dynamic_star_experiment(ds);
  EXPECT_EQ(d.incomplete, 0u);
  EXPECT_EQ(sim::fingerprint_hex(d.trajectory_hash), "0x44d0fba0d3e034c9");

  harness::DynamicLeafSpineConfig ls;
  ls.fabric.num_leaves = 3;
  ls.fabric.num_spines = 3;
  ls.fabric.hosts_per_leaf = 3;
  ls.num_flows = 120;
  ls.seed = 5;
  const auto l = harness::run_dynamic_leaf_spine_experiment(ls);
  EXPECT_EQ(l.incomplete, 0u);
  EXPECT_EQ(sim::fingerprint_hex(l.trajectory_hash), "0xe86331d145c15721");
}

// Two trajectories with identical event timing but a different packet-level
// decision — the signature of a nondeterministic buffer policy (e.g. one
// picking its drop victim by iterating an unordered_map). The pop-stream
// digest alone cannot separate them; the hub's event digest must.
TEST(TrajectoryHash, CapturesDecisionDivergence) {
  const auto run = [](std::int16_t victim) {
    sim::Simulator sim;
    sim.enable_trajectory_fingerprint();
    telemetry::Hub hub(sim, {.fingerprint = true});
    hub.register_port("sw.p0");
    sim.schedule_at(microseconds(std::int64_t{10}), [&hub, victim] {
      hub.emit({.kind = telemetry::EventKind::kDrop,
                .reason = telemetry::DropReason::kThreshold,
                .port = 0,
                .queue = 1,
                .other_queue = victim,
                .bytes = 1500,
                .flow = 42});
    });
    sim.run_until(milliseconds(std::int64_t{1}));
    check::TrajectoryHash th;
    th.fold(sim).fold(hub);
    return th.value();
  };
  EXPECT_EQ(run(2), run(2));
  EXPECT_NE(run(2), run(3));
}

TEST(TrajectoryHash, PopStreamSeesEventTiming) {
  const auto run = [](Time when) {
    sim::Simulator sim;
    sim.enable_trajectory_fingerprint();
    int fired = 0;
    sim.schedule_at(when, [&fired] { ++fired; });
    sim.run_until(milliseconds(std::int64_t{1}));
    EXPECT_EQ(fired, 1);
    return sim.trajectory_fingerprint();
  };
  EXPECT_EQ(run(microseconds(std::int64_t{5})), run(microseconds(std::int64_t{5})));
  EXPECT_NE(run(microseconds(std::int64_t{5})), run(microseconds(std::int64_t{6})));
}

TEST(TrajectoryHash, HexIsCanonical) {
  EXPECT_EQ(sim::fingerprint_hex(0), "0x0000000000000000");
  EXPECT_EQ(sim::fingerprint_hex(0xdeadbeefcafe0123ull),
            "0xdeadbeefcafe0123");
  check::TrajectoryHash th;
  EXPECT_EQ(th.hex(), sim::fingerprint_hex(th.value()));
}

// ----------------------------------- scheme x scheduler x cc sweep --

struct ScenarioParam {
  core::SchemeKind scheme;
  topo::SchedulerKind scheduler;
  transport::CcKind cc;
};

std::string scenario_name(const ScenarioParam& p) {
  std::string name = std::string(core::scheme_name(p.scheme)) + "_" +
                     std::string(topo::scheduler_kind_name(p.scheduler)) + "_" +
                     std::string(transport::cc_name(p.cc));
  for (char& c : name) {
    if (c == '+' || c == '/' || c == '-') c = 'x';
  }
  return name;
}

class ScenarioSweep : public ::testing::TestWithParam<ScenarioParam> {};

TEST_P(ScenarioSweep, TwoQueueContentionSanity) {
  const auto param = GetParam();
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1};
  cfg.star.scheme.kind = param.scheme;
  cfg.star.scheme.ecn.port_threshold_bytes = 30'000;
  cfg.star.scheme.ecn.sojourn_threshold = microseconds(std::int64_t{240});
  cfg.star.scheme.ecn.capacity_bps = 1e9;
  cfg.star.scheme.ecn.rtt = microseconds(std::int64_t{500});
  cfg.star.scheduler = param.scheduler;
  cfg.groups = {
      {.queue = 0, .num_flows = 3, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = param.cc},
      {.queue = 1, .num_flows = 6, .first_src_host = 3, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = param.cc},
  };
  cfg.duration = seconds(std::int64_t{2});
  cfg.seed = 5;
  const auto r = harness::run_static_experiment(cfg);

  // Sanity invariants that must hold for every combination:
  const double q0 = r.meter.mean_gbps(0, 2, r.meter.num_windows());
  const double q1 = r.meter.mean_gbps(1, 2, r.meter.num_windows());
  EXPECT_LE(q0 + q1, 1.02) << "cannot exceed line rate";
  EXPECT_GT(q0 + q1, 0.80) << "link must stay mostly utilized";
  EXPECT_GT(q0, 0.05) << "no queue may starve completely";
  EXPECT_GT(q1, 0.05);
  EXPECT_LE(r.telemetry.total_drops() + r.telemetry.enqueues,
            r.telemetry.enqueues + r.telemetry.total_drops());  // no overflowing counters

  // Strong isolation claim only for the isolating schemes on fair
  // schedulers.
  const bool isolating = param.scheme == core::SchemeKind::kDynaQ ||
                         param.scheme == core::SchemeKind::kDynaQEvict ||
                         param.scheme == core::SchemeKind::kPql;
  const bool fair_sched = param.scheduler == topo::SchedulerKind::kDrr ||
                          param.scheduler == topo::SchedulerKind::kWrr;
  if (isolating && fair_sched) {
    EXPECT_NEAR(q0, q1, 0.15) << "isolating scheme must keep rough fairness";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ScenarioSweep,
    ::testing::Values(
        ScenarioParam{core::SchemeKind::kDynaQ, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kDynaQ, topo::SchedulerKind::kWrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kDynaQ, topo::SchedulerKind::kDrr,
                      transport::CcKind::kCubic},
        ScenarioParam{core::SchemeKind::kDynaQEvict, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kPql, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kPql, topo::SchedulerKind::kWrr,
                      transport::CcKind::kCubic},
        ScenarioParam{core::SchemeKind::kBestEffort, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kDynamicThreshold, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewReno},
        ScenarioParam{core::SchemeKind::kDynaQEcn, topo::SchedulerKind::kDrr,
                      transport::CcKind::kDctcp},
        ScenarioParam{core::SchemeKind::kPmsb, topo::SchedulerKind::kDrr,
                      transport::CcKind::kDctcp},
        ScenarioParam{core::SchemeKind::kTcn, topo::SchedulerKind::kDrr,
                      transport::CcKind::kDctcp},
        ScenarioParam{core::SchemeKind::kPerQueueEcn, topo::SchedulerKind::kWrr,
                      transport::CcKind::kDctcp},
        ScenarioParam{core::SchemeKind::kMqEcn, topo::SchedulerKind::kDrr,
                      transport::CcKind::kDctcp},
        ScenarioParam{core::SchemeKind::kDynaQEcn, topo::SchedulerKind::kDrr,
                      transport::CcKind::kNewRenoEcn},
        ScenarioParam{core::SchemeKind::kPmsb, topo::SchedulerKind::kWrr,
                      transport::CcKind::kNewRenoEcn}),
    [](const auto& info) { return scenario_name(info.param); });

// -------------------------------------------------- RFC 3168 TCP-ECN --

TEST(NewRenoEcn, HalvesOncePerWindowOnEce) {
  auto cc = transport::make_congestion_control(transport::CcKind::kNewRenoEcn);
  cc->init(1460, 20.0);
  EXPECT_TRUE(cc->wants_ecn());
  const double w = cc->cwnd_bytes();
  transport::AckInfo a;
  a.bytes_acked = 1460;
  a.ece = true;
  a.snd_una = 1460;
  a.snd_nxt = 29'200;
  cc->on_ack(a);
  EXPECT_DOUBLE_EQ(cc->cwnd_bytes(), w / 2.0);
  // Further marks inside the same window: no additional cut.
  transport::AckInfo b = a;
  b.snd_una = 2'920;
  cc->on_ack(b);
  EXPECT_GE(cc->cwnd_bytes(), w / 2.0);
  // Past the CWR point: a new mark cuts again.
  transport::AckInfo c = a;
  c.snd_una = 30'000;
  c.snd_nxt = 60'000;
  cc->on_ack(c);
  // (plus the ~0.1 MSS of congestion-avoidance growth from the suppressed
  // mark inside the CWR window)
  EXPECT_NEAR(cc->cwnd_bytes(), w / 4.0, 150.0);
}

}  // namespace
}  // namespace dynaq
