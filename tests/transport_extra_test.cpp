// Additional transport coverage: RTO backoff dynamics, PIAS end-to-end
// queue tagging, receiver robustness against duplication/reordering,
// congestion-control property sweeps, and TNA-stale DynaQ behaviour.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/policies.hpp"
#include "net/fault_injection.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "transport/cubic.hpp"
#include "transport/dctcp.hpp"
#include "transport/host_agent.hpp"
#include "transport/newreno.hpp"

namespace dynaq {
namespace {

struct Pipe {
  sim::Simulator sim;
  std::unique_ptr<net::Host> a, b;
  std::unique_ptr<transport::HostAgent> agent_a, agent_b;

  explicit Pipe(std::unique_ptr<net::QueueDisc> tx_qdisc =
                    std::make_unique<net::DropTailQueue>()) {
    auto nic_a = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                             std::move(tx_qdisc));
    auto nic_b = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                             std::make_unique<net::DropTailQueue>());
    net::connect(*nic_a, *nic_b);
    a = std::make_unique<net::Host>(sim, 0, std::move(nic_a));
    b = std::make_unique<net::Host>(sim, 1, std::move(nic_b));
    agent_a = std::make_unique<transport::HostAgent>(*a);
    agent_b = std::make_unique<transport::HostAgent>(*b);
  }
};

transport::FlowParams flow_of(std::int64_t bytes) {
  transport::FlowParams p;
  p.id = 1;
  p.src_host = 0;
  p.dst_host = 1;
  p.size_bytes = bytes;
  p.rto_min = milliseconds(std::int64_t{10});
  return p;
}

// ------------------------------------------------------------ backoff --

TEST(RtoBackoff, DoublesOnRepeatedTimeouts) {
  // Drop the only data packet and all its retransmissions for a while: the
  // gaps between retransmissions must follow RTOmin * 2^k.
  Pipe pipe(std::make_unique<net::DeterministicLossQueue>(
      std::set<std::uint64_t>{0, 1, 2, 3}));
  transport::FlowParams params = flow_of(1'000);  // single packet flow
  params.initial_srtt = microseconds(std::int64_t{200});
  pipe.agent_b->add_receiver(params);
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run_until(seconds(std::int64_t{2}));
  EXPECT_TRUE(tx.complete());
  // Timeouts at ~10, 30 (=10+20), 70, 150 ms: four losses -> 4 timeouts.
  EXPECT_EQ(tx.stats().timeouts, 4u);
}

TEST(RtoBackoff, ResetsAfterProgress) {
  Pipe pipe(std::make_unique<net::DeterministicLossQueue>(std::set<std::uint64_t>{0, 1}));
  transport::FlowParams params = flow_of(20'000);
  params.initial_srtt = microseconds(std::int64_t{200});
  pipe.agent_b->add_receiver(params);
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run_until(seconds(std::int64_t{2}));
  ASSERT_TRUE(tx.complete());
  // After the two early timeouts the rest of the flow proceeds promptly:
  // no runaway backoff once ACKs flow again.
  EXPECT_LE(tx.stats().timeouts, 3u);
}

// ---------------------------------------------------------------- PIAS --

// Counts payload bytes per service-queue tag passing through a NIC.
class TaggingCounterQueue final : public net::QueueDisc {
 public:
  explicit TaggingCounterQueue(std::map<int, std::int64_t>& bytes_per_queue)
      : bytes_(bytes_per_queue) {}
  bool enqueue(net::Packet&& p) override {
    if (!p.is_ack() && !p.has(net::kFlagRetx)) bytes_[p.queue] += p.payload;
    return inner_.enqueue(std::move(p));
  }
  std::optional<net::Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }

 private:
  std::map<int, std::int64_t>& bytes_;
  net::DropTailQueue inner_;
};

TEST(PiasEndToEnd, SegmentsChangeQueueAtThreshold) {
  std::map<int, std::int64_t> bytes_per_queue;
  Pipe pipe(std::make_unique<TaggingCounterQueue>(bytes_per_queue));
  transport::FlowParams params = flow_of(300'000);
  params.pias = true;
  params.pias_threshold_bytes = 100'000;
  params.service_queue = 3;
  pipe.agent_b->add_receiver(params);
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run_until(seconds(std::int64_t{2}));
  ASSERT_TRUE(tx.complete());
  // First 100 KB rode queue 0, the remaining 200 KB queue 3.
  EXPECT_EQ(bytes_per_queue[0], 100'740);  // 69 MSS-sized segments
  EXPECT_EQ(bytes_per_queue[3], 300'000 - 100'740);
  EXPECT_EQ(bytes_per_queue.size(), 2u);
}

// ------------------------------------------------- receiver robustness --

TEST(Receiver, IgnoresDuplicateAndOverlappingSegments) {
  Pipe pipe;
  transport::FlowParams params = flow_of(10'000);
  auto& rx = pipe.agent_b->add_receiver(params);
  bool completed = false;
  rx.on_complete = [&](const transport::FlowReceiver&) { completed = true; };

  auto seg = [&](std::uint64_t seq, std::int32_t len) {
    rx.on_data(net::make_data_packet(1, 0, 1, seq, len));
  };
  seg(0, 4'000);
  seg(0, 4'000);      // exact duplicate
  seg(2'000, 4'000);  // overlap
  EXPECT_EQ(rx.rcv_nxt(), 6'000u);
  seg(8'000, 2'000);  // gap at [6000,8000)
  EXPECT_EQ(rx.rcv_nxt(), 6'000u);
  seg(4'000, 4'000);  // fills the gap with overlap on both sides
  EXPECT_EQ(rx.rcv_nxt(), 10'000u);
  EXPECT_TRUE(completed);
  // Late retransmission after completion must be harmless.
  seg(6'000, 2'000);
  EXPECT_EQ(rx.rcv_nxt(), 10'000u);
}

TEST(Receiver, CompletionFiresExactlyOnce) {
  Pipe pipe;
  transport::FlowParams params = flow_of(2'000);
  auto& rx = pipe.agent_b->add_receiver(params);
  int completions = 0;
  rx.on_complete = [&](const transport::FlowReceiver&) { ++completions; };
  rx.on_data(net::make_data_packet(1, 0, 1, 0, 2'000));
  rx.on_data(net::make_data_packet(1, 0, 1, 0, 2'000));
  EXPECT_EQ(completions, 1);
}

// ------------------------------------------- CC properties (TEST_P) --

class CcProperties : public ::testing::TestWithParam<transport::CcKind> {};

TEST_P(CcProperties, WindowAlwaysPositiveUnderRandomEvents) {
  auto cc = transport::make_congestion_control(GetParam());
  cc->init(1460, 10.0);
  sim::Rng rng(99);
  std::uint64_t snd = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.85) {
      transport::AckInfo info;
      info.bytes_acked = rng.uniform_int(1, 3 * 1460);
      snd += static_cast<std::uint64_t>(info.bytes_acked);
      info.snd_una = snd;
      info.snd_nxt = snd + 14'600;
      info.now = milliseconds(static_cast<std::int64_t>(i));
      info.srtt = microseconds(std::int64_t{500});
      info.ece = rng.uniform() < 0.1;
      cc->on_ack(info);
    } else if (dice < 0.95) {
      transport::AckInfo info;
      info.now = milliseconds(static_cast<std::int64_t>(i));
      cc->on_loss_event(info);
    } else {
      cc->on_timeout();
    }
    ASSERT_GE(cc->cwnd_bytes(), 1460.0) << transport::cc_name(GetParam());
    ASSERT_LT(cc->cwnd_bytes(), 1e12);
  }
}

TEST_P(CcProperties, LossNeverIncreasesWindow) {
  auto cc = transport::make_congestion_control(GetParam());
  cc->init(1460, 50.0);
  const double before = cc->cwnd_bytes();
  transport::AckInfo info;
  info.now = milliseconds(std::int64_t{1});
  cc->on_loss_event(info);
  EXPECT_LE(cc->cwnd_bytes(), before);
}

INSTANTIATE_TEST_SUITE_P(AllCc, CcProperties,
                         ::testing::Values(transport::CcKind::kNewReno,
                                           transport::CcKind::kCubic,
                                           transport::CcKind::kDctcp),
                         [](const auto& info) {
                           return std::string(transport::cc_name(info.param));
                         });

// ------------------------------------------------- TNA-stale DynaQ --

TEST(TnaStaleness, StaleInfoStillIsolatesQueues) {
  sim::Simulator sim;
  core::DynaQPolicy::Options opts;
  opts.stale_queue_info = true;
  net::MultiQueueQdisc qd(sim, {1, 1}, 12'000,
                          std::make_unique<core::DynaQPolicy>(opts),
                          std::make_unique<net::DrrScheduler>(1500));
  // Without any dequeue, stale lengths stay 0: queue 0 can absorb beyond
  // its threshold because the controller believes it is empty — but the
  // physical bound still caps the port.
  for (int i = 0; i < 10; ++i) {
    net::Packet p = net::make_data_packet(1, 0, 1, 0, 1460);
    p.queue = 0;
    qd.enqueue(std::move(p));
  }
  EXPECT_LE(qd.backlog_bytes(), 12'000);
  // After dequeues, the feedback catches up and thresholds start binding.
  for (int i = 0; i < 4; ++i) qd.dequeue();
  const auto& policy = dynamic_cast<const core::DynaQPolicy&>(qd.policy());
  EXPECT_EQ(policy.controller().threshold_sum(), 12'000);
}

// ----------------------------------------------- random-loss soak --

TEST(RandomLossSoak, FlowsSurviveFivePercentLoss) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Pipe pipe(std::make_unique<net::BernoulliLossQueue>(0.05, seed));
    transport::FlowParams params = flow_of(200'000);
    params.initial_srtt = microseconds(std::int64_t{200});
    Time done = -1;
    pipe.agent_b->add_receiver(params).on_complete =
        [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
    pipe.agent_a->add_sender(params).start();
    pipe.sim.run_until(seconds(std::int64_t{30}));
    ASSERT_GT(done, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dynaq
