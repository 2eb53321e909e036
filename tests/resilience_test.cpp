// Resilience and operational-edge tests: runtime buffer resizing
// (§III-B3), transactional admit/abort, custom policies, the hardware cost
// model, and invariants under hostile churn.
#include <gtest/gtest.h>

#include <memory>

#include "core/hardware_model.hpp"
#include "core/policies.hpp"
#include "core/scheme.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/schedulers.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaq {
namespace {

net::Packet pkt(int queue, std::int32_t payload = 1460) {
  net::Packet p = net::make_data_packet(1, 0, 1, 0, payload);
  p.queue = static_cast<std::uint8_t>(queue);
  return p;
}

// ------------------------------------------------------ buffer resize --

TEST(BufferResize, DynaQReinitializesThresholds) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 10'000, std::make_unique<core::DynaQPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  // Skew thresholds first.
  qd.enqueue(pkt(0));
  qd.enqueue(pkt(0));
  qd.enqueue(pkt(0));
  qd.enqueue(pkt(0));  // exceeds 5000 -> exchange
  EXPECT_NE(qd.policy().thresholds()[0], 5'000);

  qd.resize_buffer(20'000);
  EXPECT_EQ(qd.policy().thresholds(), (std::vector<std::int64_t>{10'000, 10'000}));
  const auto& policy = dynamic_cast<const core::DynaQPolicy&>(qd.policy());
  EXPECT_EQ(policy.controller().threshold_sum(), 20'000);
}

TEST(BufferResize, PqlRecomputesQuotas) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {3, 1}, 8'000, std::make_unique<core::PqlPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  EXPECT_EQ(qd.policy().thresholds(), (std::vector<std::int64_t>{6'000, 2'000}));
  qd.resize_buffer(16'000);
  EXPECT_EQ(qd.policy().thresholds(), (std::vector<std::int64_t>{12'000, 4'000}));
}

TEST(BufferResize, ShrinkBelowBacklogStopsAdmission) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1}, 10'000, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  for (int i = 0; i < 6; ++i) qd.enqueue(pkt(0));  // 9000 B buffered
  qd.resize_buffer(3'000);
  EXPECT_FALSE(qd.enqueue(pkt(0))) << "over the new bound";
  // Drain below the new bound; admission resumes.
  qd.dequeue();
  qd.dequeue();
  qd.dequeue();
  qd.dequeue();
  qd.dequeue();  // 1500 left
  EXPECT_TRUE(qd.enqueue(pkt(0)));
  EXPECT_THROW(qd.resize_buffer(0), std::invalid_argument);
}

TEST(BufferResize, DynaQKeepsInvariantsAfterManyResizes) {
  sim::Simulator sim;
  sim::Rng rng(5);
  net::MultiQueueQdisc qd(sim, {1, 2, 1}, 50'000, std::make_unique<core::DynaQPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  auto& policy = dynamic_cast<core::DynaQPolicy&>(qd.policy());
  for (int step = 0; step < 20'000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.50) {
      qd.enqueue(pkt(static_cast<int>(rng.uniform_int(0, 2)),
                     static_cast<std::int32_t>(rng.uniform_int(60, 1460))));
    } else if (dice < 0.98) {
      qd.dequeue();
    } else {
      qd.resize_buffer(rng.uniform_int(20'000, 120'000));
    }
    ASSERT_EQ(policy.controller().threshold_sum(), qd.state().buffer_bytes);
    for (int i = 0; i < 3; ++i) ASSERT_GE(policy.controller().threshold(i), 0);
  }
}

// --------------------------------------------------- transactional admit --

TEST(TransactionalAdmit, PortFullRejectionRevertsExchange) {
  sim::Simulator sim;
  // Buffer 6000; fill queue 1 to 4500 so the port has only 1500 free.
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::DynaQPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  auto& policy = dynamic_cast<core::DynaQPolicy&>(qd.policy());
  ASSERT_TRUE(qd.enqueue(pkt(1)));
  ASSERT_TRUE(qd.enqueue(pkt(1)));  // q1 = 3000 = T_1; exact fit, no exchange
  ASSERT_TRUE(qd.enqueue(pkt(1)));  // exceeds -> exchange from queue 0
  const auto t_after = qd.policy().thresholds();
  EXPECT_EQ(t_after, (std::vector<std::int64_t>{1'500, 4'500}));

  // Fill queue 0 to its (raided) threshold: the port is now pinned at
  // exactly B with q_i == T_i everywhere.
  ASSERT_TRUE(qd.enqueue(pkt(0)));
  ASSERT_EQ(qd.backlog_bytes(), 6'000);

  // Queue 0 arrival: the exchange succeeds (queue 1 is satisfied-active
  // with 1500 B of extra, so it is not protected), but the port is
  // physically full — the qdisc must abort and the policy must roll the
  // exchange back.
  const auto t_before = qd.policy().thresholds();
  const auto adjustments_before = policy.threshold_adjustments();
  EXPECT_FALSE(qd.enqueue(pkt(0))) << "port is physically full";
  EXPECT_EQ(qd.policy().thresholds(), t_before) << "failed admit must not move thresholds";
  EXPECT_EQ(policy.threshold_adjustments(), adjustments_before + 1)
      << "the exchange happened and was rolled back";
  EXPECT_EQ(qd.stats().dropped_port_full, 1u);
}

// -------------------------------------------------------- custom policy --

TEST(CustomPolicy, FactoryOverridesKind) {
  struct DenyAll final : net::BufferPolicy {
    bool admit(const net::MqState&, int, const net::Packet&) override { return false; }
    std::string_view name() const override { return "deny-all"; }
  };
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kBestEffort;
  spec.custom_policy_sim = [](sim::Simulator&) { return std::make_unique<DenyAll>(); };

  sim::Simulator sim;
  auto qd = core::make_mq_qdisc(sim, {1.0}, 10'000, spec,
                                std::make_unique<net::SpqScheduler>());
  EXPECT_EQ(qd->policy().name(), "deny-all");
  EXPECT_FALSE(qd->enqueue(pkt(0)));
  EXPECT_EQ(qd->stats().dropped_by_policy, 1u);
}

// ------------------------------------------------------ hardware model --

TEST(HardwareModel, MatchesPaperClaims) {
  const auto cost8 = core::dynaq_asic_cost(8);
  EXPECT_EQ(cost8.threshold_check, 1);
  EXPECT_EQ(cost8.victim_search, 3);  // log2(8)
  EXPECT_EQ(cost8.protection, 2);
  EXPECT_EQ(cost8.exchange, 1);
  EXPECT_EQ(cost8.total(), 7);
  EXPECT_EQ(core::dynaq_asic_cost(4).victim_search, 2);
  EXPECT_EQ(core::dynaq_asic_fast_path_cycles(), 1);
}

TEST(HardwareModel, OverheadBelowOnePercentOnTrident3) {
  EXPECT_NEAR(core::dynaq_overhead_fraction(8), 7.0 / 800.0, 1e-12);
  EXPECT_LT(core::dynaq_overhead_fraction(8), 0.01);
}

TEST(HardwareModel, Log2CeilEdgeCases) {
  EXPECT_EQ(core::log2_ceil(1), 0);
  EXPECT_EQ(core::log2_ceil(2), 1);
  EXPECT_EQ(core::log2_ceil(3), 2);
  EXPECT_EQ(core::log2_ceil(9), 4);
  EXPECT_EQ(core::log2_ceil(64), 6);
}

// ------------------------------------------------------ undo coverage --

TEST(DynaQController, UndoRestoresThresholds) {
  core::DynaQConfig cfg;
  cfg.buffer_bytes = 8'000;
  cfg.weights = {1, 1};
  core::DynaQController ctl(cfg);
  const std::vector<std::int64_t> q{4'000, 0};
  ASSERT_EQ(ctl.on_arrival(q, 0, 1'000), core::Verdict::kAdjusted);
  EXPECT_EQ(ctl.threshold(0), 5'000);
  ctl.undo_last_exchange();
  EXPECT_EQ(ctl.threshold(0), 4'000);
  EXPECT_EQ(ctl.threshold(1), 4'000);
  // Idempotent: second undo is a no-op.
  ctl.undo_last_exchange();
  EXPECT_EQ(ctl.threshold(0), 4'000);
}

TEST(DynaQController, UndoOnlyAppliesToLastArrival) {
  core::DynaQConfig cfg;
  cfg.buffer_bytes = 8'000;
  cfg.weights = {1, 1};
  core::DynaQController ctl(cfg);
  std::vector<std::int64_t> q{4'000, 0};
  ASSERT_EQ(ctl.on_arrival(q, 0, 1'000), core::Verdict::kAdjusted);  // exchange
  q[0] = 1'000;
  ASSERT_EQ(ctl.on_arrival(q, 0, 1'000), core::Verdict::kAdmit);  // below threshold
  const auto t0 = ctl.threshold(0);
  ctl.undo_last_exchange();  // must NOT undo the older exchange
  EXPECT_EQ(ctl.threshold(0), t0);
}

}  // namespace
}  // namespace dynaq
