// Small-surface edge cases across modules, rounding out coverage of
// accessors and boundary conditions.
#include <gtest/gtest.h>

#include <memory>

#include "core/dynaq_controller.hpp"
#include "core/ecn_markers.hpp"
#include "harness/cli.hpp"
#include "net/fault_injection.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"

namespace dynaq {
namespace {

TEST(EdgeCases, SingleQueueControllerHasNoVictim) {
  core::DynaQConfig cfg;
  cfg.buffer_bytes = 10'000;
  cfg.weights = {1};
  core::DynaQController ctl(cfg);
  EXPECT_EQ(ctl.find_victim_tournament(0), -1);
  EXPECT_EQ(ctl.find_victim_linear(0), -1);
  const std::vector<std::int64_t> q{10'000};
  EXPECT_EQ(ctl.on_arrival(q, 0, 1'000), core::Verdict::kDrop);
}

TEST(EdgeCases, TinyPacketsRespectThresholdGranularity) {
  core::DynaQConfig cfg;
  cfg.buffer_bytes = 1'000;
  cfg.weights = {1, 1};
  core::DynaQController ctl(cfg);  // T = {500, 500}
  std::vector<std::int64_t> q{500, 0};
  // 64-byte packets exchange in 64-byte steps.
  EXPECT_EQ(ctl.on_arrival(q, 0, 64), core::Verdict::kAdjusted);
  EXPECT_EQ(ctl.threshold(0), 564);
  EXPECT_EQ(ctl.threshold(1), 436);
  EXPECT_EQ(ctl.threshold_sum(), 1'000);
}

TEST(EdgeCases, CliNegativeNumbersParse) {
  std::vector<std::string> storage{"prog", "--offset", "-5"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  const harness::Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.integer("offset", 0), -5);
}

TEST(EdgeCases, PortBusyFlagTracksTransmission) {
  sim::Simulator sim;
  auto a = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  auto b = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  net::connect(*a, *b);
  EXPECT_FALSE(a->busy());
  a->send(net::make_data_packet(1, 0, 1, 0, 1460));
  EXPECT_TRUE(a->busy());
  sim.run();
  EXPECT_FALSE(a->busy());
}

TEST(EdgeCases, BernoulliLossRateIsRespected) {
  net::BernoulliLossQueue q(0.3, /*seed=*/5);
  int admitted = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (q.enqueue(net::make_data_packet(1, 0, 1, 0, 100))) {
      ++admitted;
      q.dequeue();
    }
  }
  EXPECT_NEAR(static_cast<double>(q.injected_losses()) / n, 0.3, 0.02);
  EXPECT_EQ(admitted + static_cast<int>(q.injected_losses()), n);
}

TEST(EdgeCases, BernoulliNeverDropsAcks) {
  net::BernoulliLossQueue q(1.0, 7);
  EXPECT_TRUE(q.enqueue(net::make_ack_packet(1, 0, 1, 100)));
  EXPECT_FALSE(q.enqueue(net::make_data_packet(1, 0, 1, 0, 100)));
}

TEST(EdgeCases, MqEcnRoundEstimateExposed) {
  core::EcnConfig ec;
  ec.capacity_bps = 1e9;
  ec.rtt = microseconds(std::int64_t{500});
  ec.quantum_base = 1500;
  core::MqEcnMarker marker(ec);
  net::MqState s;
  s.buffer_bytes = 85'000;
  s.queues.resize(2);
  s.queues[0].weight = s.queues[1].weight = 1.0;
  s.queues[0].bytes = 1'500;
  net::Packet p = net::make_data_packet(1, 0, 1, 0, 1460);
  marker.mark_on_enqueue(s, 0, p);
  // One active queue: round = 1500 B at 1 Gbps = 12 us.
  EXPECT_NEAR(to_seconds(marker.smoothed_round()), 12e-6, 1e-7);
}

TEST(EdgeCases, QueueForSegmentWithHighQueueEqualToService) {
  transport::FlowParams p;
  p.pias = true;
  p.service_queue = 0;
  EXPECT_EQ(transport::queue_for_segment(p, 0), 0);
  EXPECT_EQ(transport::queue_for_segment(p, 1'000'000), 0);
}

TEST(EdgeCases, ControllerRejectsOutOfRangeResize) {
  core::DynaQConfig cfg;
  cfg.buffer_bytes = 10'000;
  cfg.weights = {1, 1};
  core::DynaQController ctl(cfg);
  EXPECT_THROW(ctl.reinitialize(0), std::invalid_argument);
  EXPECT_THROW(ctl.reinitialize(-5), std::invalid_argument);
  ctl.reinitialize(1);  // degenerate but legal: 1-byte buffer
  EXPECT_EQ(ctl.threshold_sum(), 1);
}

}  // namespace
}  // namespace dynaq
