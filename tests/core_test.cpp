// Tests for the paper's contribution: the DynaQ controller (Algorithm 1),
// victim selection, satisfaction thresholds, and the baseline policies and
// ECN markers — including property sweeps over random packet sequences.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/dynaq_controller.hpp"
#include "core/ecn_markers.hpp"
#include "core/policies.hpp"
#include "core/scheme.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/schedulers.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaq {
namespace {

using core::DynaQConfig;
using core::DynaQController;
using core::Verdict;

DynaQConfig cfg4(std::int64_t buffer = 85'000) {
  DynaQConfig c;
  c.buffer_bytes = buffer;
  c.weights = {1, 1, 1, 1};
  return c;
}

// ------------------------------------------------- initialization (Eq 1) --

TEST(DynaQController, InitialThresholdsAreWeightedShares) {
  DynaQConfig c;
  c.buffer_bytes = 100'000;
  c.weights = {4, 3, 2, 1};
  DynaQController ctl(c);
  EXPECT_EQ(ctl.threshold(0), 40'000);
  EXPECT_EQ(ctl.threshold(1), 30'000);
  EXPECT_EQ(ctl.threshold(2), 20'000);
  EXPECT_EQ(ctl.threshold(3), 10'000);
  EXPECT_EQ(ctl.threshold_sum(), 100'000);
}

TEST(DynaQController, RoundingStillSumsToBuffer) {
  DynaQConfig c;
  c.buffer_bytes = 100'001;  // not divisible by 3
  c.weights = {1, 1, 1};
  DynaQController ctl(c);
  EXPECT_EQ(ctl.threshold_sum(), 100'001);
}

TEST(DynaQController, SatisfactionEqualsInitialThreshold) {
  DynaQController ctl(cfg4());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctl.satisfaction(i), ctl.threshold(i));
    EXPECT_EQ(ctl.extra(i), 0);
    EXPECT_TRUE(ctl.satisfied(i));
  }
}

TEST(DynaQController, RejectsBadConfig) {
  DynaQConfig c;
  c.buffer_bytes = 0;
  c.weights = {1};
  EXPECT_THROW(DynaQController{c}, std::invalid_argument);
  c.buffer_bytes = 100;
  c.weights = {};
  EXPECT_THROW(DynaQController{c}, std::invalid_argument);
  c.weights = {1, -1};
  EXPECT_THROW(DynaQController{c}, std::invalid_argument);
  c.weights.assign(65, 1.0);
  EXPECT_THROW(DynaQController{c}, std::invalid_argument);
}

// -------------------------------------------------------- Algorithm 1 --

TEST(DynaQController, BelowThresholdDoesNothing) {
  DynaQController ctl(cfg4());
  const std::vector<std::int64_t> q{0, 0, 0, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kAdmit);
  EXPECT_EQ(ctl.threshold(0), 21'250);
}

TEST(DynaQController, ExceedingTakesFromInactiveVictim) {
  DynaQController ctl(cfg4());
  const std::vector<std::int64_t> q{21'000, 0, 0, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kAdjusted);
  EXPECT_EQ(ctl.threshold(0), 22'750);
  // Exactly one victim lost exactly the packet size.
  EXPECT_EQ(ctl.threshold_sum(), 85'000);
  int reduced = 0;
  for (int i = 1; i < 4; ++i) reduced += ctl.threshold(i) < 21'250;
  EXPECT_EQ(reduced, 1);
}

TEST(DynaQController, ProtectsUnsatisfiedActiveVictims) {
  DynaQConfig c;
  c.buffer_bytes = 8'000;
  c.weights = {1, 1};
  DynaQController ctl(c);  // T = {4000, 4000}, S = {4000, 4000}
  // Queue 1 is active; taking from it would push T_1 below S_1 -> drop.
  const std::vector<std::int64_t> q{4'000, 1'000};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kDrop);
  EXPECT_EQ(ctl.threshold(0), 4'000);
  EXPECT_EQ(ctl.threshold(1), 4'000);
}

TEST(DynaQController, RaidsInactiveQueueBelowSatisfaction) {
  DynaQConfig c;
  c.buffer_bytes = 8'000;
  c.weights = {1, 1};
  DynaQController ctl(c);
  // Queue 1 empty -> not protected even though T_1 would drop below S_1.
  const std::vector<std::int64_t> q{4'000, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kAdjusted);
  EXPECT_EQ(ctl.threshold(0), 5'500);
  EXPECT_EQ(ctl.threshold(1), 2'500);
}

TEST(DynaQController, NeverDrivesVictimThresholdNegative) {
  DynaQConfig c;
  c.buffer_bytes = 4'000;
  c.weights = {1, 1};
  DynaQController ctl(c);
  std::vector<std::int64_t> q{2'000, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kAdjusted);  // T1: 2000->500
  q[0] = 3'500;
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kDrop);  // T1=500 < 1500
  EXPECT_EQ(ctl.threshold(1), 500);
  EXPECT_GE(ctl.threshold(1), 0);
}

TEST(DynaQController, SingleQueuePortDrops) {
  DynaQConfig c;
  c.buffer_bytes = 4'000;
  c.weights = {1};
  DynaQController ctl(c);
  const std::vector<std::int64_t> q{4'000};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1500), Verdict::kDrop);
}

TEST(DynaQController, ReinitializeAfterBufferResize) {
  DynaQController ctl(cfg4(85'000));
  std::vector<std::int64_t> q{21'000, 0, 0, 0};
  ctl.on_arrival(q, 0, 1500);
  ctl.reinitialize(170'000);
  EXPECT_EQ(ctl.threshold_sum(), 170'000);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ctl.threshold(i), 42'500);
}

// ------------------------------------------------------ victim search --

TEST(DynaQController, VictimSearchExcludesArrivingQueue) {
  DynaQController ctl(cfg4());
  // Give queue 0 a large extra by raiding others.
  std::vector<std::int64_t> q{21'000, 0, 0, 0};
  for (int i = 0; i < 10; ++i) {
    ctl.on_arrival(q, 0, 1500);
    q[0] += 1500;
  }
  EXPECT_GT(ctl.extra(0), 0);
  // Queue 0 has by far the largest extra, but must not victimize itself.
  EXPECT_NE(ctl.find_victim_tournament(0), 0);
  EXPECT_NE(ctl.find_victim_linear(0), 0);
}

TEST(DynaQController, TournamentMatchesLinearReference) {
  // Property check over random threshold configurations and all M in 2..8.
  sim::Rng rng(123);
  for (int m = 2; m <= 8; ++m) {
    DynaQConfig c;
    c.buffer_bytes = 100'000;
    c.weights.assign(static_cast<std::size_t>(m), 1.0);
    DynaQController ctl(c);
    std::vector<std::int64_t> q(static_cast<std::size_t>(m), 0);
    for (int round = 0; round < 2'000; ++round) {
      const int p = static_cast<int>(rng.uniform_int(0, m - 1));
      EXPECT_EQ(ctl.find_victim_tournament(p), ctl.find_victim_linear(p))
          << "m=" << m << " round=" << round;
      // Mutate thresholds through a legal arrival.
      for (int i = 0; i < m; ++i) {
        q[static_cast<std::size_t>(i)] = rng.uniform_int(0, 40'000);
      }
      ctl.on_arrival(q, p, static_cast<std::int32_t>(rng.uniform_int(60, 9'000)));
    }
  }
}

TEST(DynaQController, LargestExtraRespectsWeights) {
  // The paper's §III-B2 example: weights 1:2:3. With thresholds at their
  // initial values, all extras are 0 and the tie breaks to the lowest
  // index; after queue 3 loses buffer once, it must not be picked again
  // over queues with larger extras.
  DynaQConfig c;
  c.buffer_bytes = 60'000;
  c.weights = {1, 2, 3};
  DynaQController ctl(c);  // T = S = {10k, 20k, 30k}
  std::vector<std::int64_t> q{10'000, 0, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1'000), Verdict::kAdjusted);
  // With kLargestThreshold the victim would have been queue 2 (30k);
  // kLargestExtra picks among extras (all 0) -> queue 1 by tie-break.
  EXPECT_EQ(ctl.threshold(1), 19'000);
  EXPECT_EQ(ctl.threshold(2), 30'000);
}

TEST(DynaQController, LargestThresholdAblationPicksBigQueue) {
  DynaQConfig c;
  c.buffer_bytes = 60'000;
  c.weights = {1, 2, 3};
  c.victim = core::VictimSelection::kLargestThreshold;
  DynaQController ctl(c);
  std::vector<std::int64_t> q{10'000, 0, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1'000), Verdict::kAdjusted);
  EXPECT_EQ(ctl.threshold(2), 29'000) << "strawman selection raids the heaviest queue";
}

// ------------------------------------------------- invariant sweeps --

struct SweepParam {
  int queues;
  std::int64_t buffer;
  std::uint64_t seed;
};

class DynaQInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DynaQInvariants, ThresholdSumAndNonNegativityHoldUnderRandomTraffic) {
  const auto param = GetParam();
  DynaQConfig c;
  c.buffer_bytes = param.buffer;
  sim::Rng wrng(param.seed);
  for (int i = 0; i < param.queues; ++i) {
    c.weights.push_back(static_cast<double>(wrng.uniform_int(1, 4)));
  }
  DynaQController ctl(c);
  sim::Rng rng(param.seed * 7 + 1);
  std::vector<std::int64_t> q(static_cast<std::size_t>(param.queues), 0);

  for (int step = 0; step < 20'000; ++step) {
    // Random occupancy consistent with the buffer bound.
    std::int64_t used = 0;
    for (auto& v : q) {
      v = rng.uniform_int(0, param.buffer / param.queues);
      used += v;
    }
    (void)used;
    const int p = static_cast<int>(rng.uniform_int(0, param.queues - 1));
    const auto size = static_cast<std::int32_t>(rng.uniform_int(60, 9'000));
    ctl.on_arrival(q, p, size);

    ASSERT_EQ(ctl.threshold_sum(), param.buffer) << "ΣT=B must hold at every step";
    for (int i = 0; i < param.queues; ++i) {
      ASSERT_GE(ctl.threshold(i), 0) << "T_i >= 0 must hold";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynaQInvariants,
    ::testing::Values(SweepParam{2, 85'000, 1}, SweepParam{4, 85'000, 2},
                      SweepParam{8, 192'000, 3}, SweepParam{8, 1'000'000, 4},
                      SweepParam{3, 10'000, 5}, SweepParam{5, 50'000, 6}),
    [](const auto& info) {
      return "q" + std::to_string(info.param.queues) + "_b" +
             std::to_string(info.param.buffer) + "_s" + std::to_string(info.param.seed);
    });

TEST(DynaQController, StrictModeRevertsExchangeOnDrop) {
  DynaQConfig c = cfg4(8'000);
  c.weights = {1, 1};
  DynaQController ctl(c);  // T = {4000, 4000}
  // Occupancy far above threshold: one exchange cannot fix it -> the
  // threshold recheck drops and must restore both thresholds.
  const std::vector<std::int64_t> q{7'000, 0};
  EXPECT_EQ(ctl.on_arrival(q, 0, 500), Verdict::kDrop);
  EXPECT_EQ(ctl.threshold(0), 4'000);
  EXPECT_EQ(ctl.threshold(1), 4'000);
  EXPECT_EQ(ctl.threshold_sum(), 8'000);
}

TEST(DynaQController, WeightedBdpSatisfactionRule) {
  DynaQConfig c;
  c.buffer_bytes = 100'000;
  c.weights = {1, 1};
  c.satisfaction = core::SatisfactionRule::kWeightedBdp;
  c.bdp_bytes = 62'500;
  DynaQController ctl(c);
  EXPECT_EQ(ctl.satisfaction(0), 31'250);
  EXPECT_EQ(ctl.threshold(0), 50'000);
  EXPECT_EQ(ctl.extra(0), 18'750);
}

// ------------------------------------------------------- policies --

net::Packet pkt(int queue, std::int32_t payload = 1460) {
  net::Packet p = net::make_data_packet(1, 0, 1, 0, payload);
  p.queue = static_cast<std::uint8_t>(queue);
  return p;
}

TEST(PqlPolicy, EnforcesStaticQuota) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::PqlPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  // Quota per queue = 3000 bytes = 2 packets.
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  EXPECT_FALSE(qd.enqueue(pkt(0)));  // queue 0 quota exhausted
  EXPECT_TRUE(qd.enqueue(pkt(1)));   // queue 1 unaffected
}

TEST(DynamicThresholdPolicy, ThresholdShrinksWithOccupancy) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000,
                          std::make_unique<core::DynamicThresholdPolicy>(1.0),
                          std::make_unique<net::SpqScheduler>());
  // First packet: T = 1.0 * 6000 free = 6000 -> admit.
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  // Now free = 4500, T = 4500; queue 0 holds 1500, 1500+1500 <= 4500 ok.
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  // free = 3000, T = 3000; queue 0 holds 3000 -> 4500 > 3000 rejected.
  EXPECT_FALSE(qd.enqueue(pkt(0)));
  // Queue 1 holds 0 -> 1500 <= 3000 admitted.
  EXPECT_TRUE(qd.enqueue(pkt(1)));
}

TEST(DynaQPolicy, ReportsThresholdsAndAdjustments) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::DynaQPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  auto& policy = dynamic_cast<core::DynaQPolicy&>(qd.policy());
  EXPECT_EQ(policy.thresholds(), (std::vector<std::int64_t>{3'000, 3'000}));
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  EXPECT_TRUE(qd.enqueue(pkt(0)));  // q_0 = 3000 = T_0 exactly: no adjustment yet
  EXPECT_EQ(policy.threshold_adjustments(), 0u);
  EXPECT_TRUE(qd.enqueue(pkt(0)));  // 3000 + 1500 > T_0 -> exchange from queue 1
  EXPECT_EQ(policy.threshold_adjustments(), 1u);
  EXPECT_EQ(policy.thresholds(), (std::vector<std::int64_t>{4'500, 1'500}));
}

TEST(DynaQPolicy, QueueOccupancyNeverExceedsBufferUnderChurn) {
  sim::Simulator sim;
  sim::Rng rng(9);
  net::MultiQueueQdisc qd(sim, {1, 1, 1, 1}, 85'000, std::make_unique<core::DynaQPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  for (int step = 0; step < 50'000; ++step) {
    if (rng.uniform() < 0.55) {
      qd.enqueue(pkt(static_cast<int>(rng.uniform_int(0, 3)),
                     static_cast<std::int32_t>(rng.uniform_int(60, 1460))));
    } else {
      qd.dequeue();
    }
    ASSERT_LE(qd.backlog_bytes(), 85'000);
    ASSERT_GE(qd.backlog_bytes(), 0);
  }
}

// ------------------------------------------------------- ECN markers --

net::MqState marker_state(std::vector<double> weights, std::int64_t buffer) {
  net::MqState s;
  s.buffer_bytes = buffer;
  s.queues.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) s.queues[i].weight = weights[i];
  return s;
}

TEST(PerQueueEcn, MarksAboveWeightedShare) {
  core::EcnConfig ec;
  ec.port_threshold_bytes = 30'000;
  core::PerQueueEcnMarker marker(ec);
  auto s = marker_state({1, 1}, 85'000);  // K_i = 15000
  s.queues[0].bytes = 14'000;
  EXPECT_FALSE(marker.mark_on_enqueue(s, 0, pkt(0, 500)));
  EXPECT_TRUE(marker.mark_on_enqueue(s, 0, pkt(0, 1460)));
}

TEST(PmsbEcn, RequiresBothConditions) {
  core::EcnConfig ec;
  ec.port_threshold_bytes = 30'000;
  core::PmsbEcnMarker marker(ec);
  auto s = marker_state({1, 1}, 85'000);
  // Queue over its share but port under K: no mark (selective blindness).
  s.queues[0].bytes = 16'000;
  s.port_bytes = 16'000;
  EXPECT_FALSE(marker.mark_on_enqueue(s, 0, pkt(0)));
  // Port over K but this queue under its share: no mark.
  s.queues[0].bytes = 1'000;
  s.queues[1].bytes = 31'000;
  s.port_bytes = 32'000;
  EXPECT_FALSE(marker.mark_on_enqueue(s, 0, pkt(0, 500)));
  // Both: mark.
  s.queues[0].bytes = 15'000;
  s.port_bytes = 46'000;
  EXPECT_TRUE(marker.mark_on_enqueue(s, 0, pkt(0)));
}

TEST(TcnEcn, MarksOnSojournOnly) {
  core::EcnConfig ec;
  ec.sojourn_threshold = microseconds(std::int64_t{240});
  core::TcnEcnMarker marker(ec);
  auto s = marker_state({1}, 85'000);
  EXPECT_FALSE(marker.mark_on_dequeue(s, 0, pkt(0), microseconds(std::int64_t{239})));
  EXPECT_TRUE(marker.mark_on_dequeue(s, 0, pkt(0), microseconds(std::int64_t{241})));
  EXPECT_FALSE(marker.mark_on_enqueue(s, 0, pkt(0)));  // dequeue marking only
}

TEST(MqEcn, ThresholdScalesWithActiveQueues) {
  core::EcnConfig ec;
  ec.capacity_bps = 1e9;
  ec.rtt = microseconds(std::int64_t{500});
  ec.quantum_base = 1500;
  core::MqEcnMarker marker(ec);
  auto s = marker_state({1, 1}, 85'000);
  // Only queue 0 active: full rate share -> K_0 ~ C*RTT = 62.5 KB.
  s.queues[0].bytes = 40'000;
  EXPECT_FALSE(marker.mark_on_enqueue(s, 0, pkt(0)));
  // Both active: rate share halves -> K_0 ~ 31 KB; 40 KB now marks. Feed a
  // few samples to let the round-time EWMA converge.
  s.queues[1].bytes = 10'000;
  bool marked = false;
  for (int i = 0; i < 16; ++i) marked = marker.mark_on_enqueue(s, 0, pkt(0));
  EXPECT_TRUE(marked);
}

// ------------------------------------------------------- scheme table --

TEST(Scheme, NamesRoundTrip) {
  using core::SchemeKind;
  for (SchemeKind k : {SchemeKind::kDynaQ, SchemeKind::kDynaQEvict, SchemeKind::kBestEffort,
                       SchemeKind::kPql, SchemeKind::kDynamicThreshold,
                       SchemeKind::kLongestQueueDrop, SchemeKind::kHarmonic,
                       SchemeKind::kDynaQEcn, SchemeKind::kTcn, SchemeKind::kPmsb,
                       SchemeKind::kPerQueueEcn, SchemeKind::kMqEcn}) {
    EXPECT_EQ(core::parse_scheme(core::scheme_name(k)), k);
  }
  EXPECT_THROW(core::parse_scheme("nope"), std::invalid_argument);
}

TEST(Scheme, EcnSchemesGetMarkersAndSharedBuffers) {
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQEcn;
  spec.ecn.port_threshold_bytes = 30'000;
  EXPECT_EQ(make_policy(spec)->name(), "besteffort");
  EXPECT_EQ(make_marker(spec)->name(), "pmsb");
  spec.kind = core::SchemeKind::kDynaQ;
  EXPECT_EQ(make_policy(spec)->name(), "dynaq");
  EXPECT_EQ(make_marker(spec), nullptr);
}

TEST(Scheme, UsesEcnPredicate) {
  EXPECT_TRUE(core::scheme_uses_ecn(core::SchemeKind::kTcn));
  EXPECT_TRUE(core::scheme_uses_ecn(core::SchemeKind::kDynaQEcn));
  EXPECT_FALSE(core::scheme_uses_ecn(core::SchemeKind::kDynaQ));
  EXPECT_FALSE(core::scheme_uses_ecn(core::SchemeKind::kPql));
}

}  // namespace
}  // namespace dynaq
