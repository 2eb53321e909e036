// Transport-layer tests: congestion-control units (NewReno, CUBIC, DCTCP),
// sender/receiver reliability with injected loss, RTT estimation, PIAS
// tagging and ECN echo.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/fault_injection.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "transport/cubic.hpp"
#include "transport/dctcp.hpp"
#include "transport/flow.hpp"
#include "transport/host_agent.hpp"
#include "transport/newreno.hpp"

namespace dynaq {
namespace {

using transport::AckInfo;

// ------------------------------------------------------------ NewReno --

AckInfo ack(std::int64_t bytes, Time now = microseconds(std::int64_t{500}), bool ece = false) {
  AckInfo a;
  a.bytes_acked = bytes;
  a.now = now;
  a.ece = ece;
  a.srtt = microseconds(std::int64_t{500});
  return a;
}

TEST(NewReno, InitialWindowIsTenPackets) {
  transport::NewRenoCc cc;
  cc.init(1460, 10.0);
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 14'600.0);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, SlowStartDoublesPerWindow) {
  transport::NewRenoCc cc;
  cc.init(1460, 10.0);
  const double before = cc.cwnd_bytes();
  cc.on_ack(ack(static_cast<std::int64_t>(before)));  // ack a full window
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 2 * before);
}

TEST(NewReno, CongestionAvoidanceGrowsOneMssPerRtt) {
  transport::NewRenoCc cc;
  cc.init(1460, 10.0);
  cc.on_loss_event(ack(0));  // forces ssthresh = cwnd/2, exits slow start
  const double w = cc.cwnd_bytes();
  cc.on_ack(ack(static_cast<std::int64_t>(w)));  // one full window of ACKs
  EXPECT_NEAR(cc.cwnd_bytes(), w + 1460.0, 1.0);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(NewReno, LossHalvesWindow) {
  transport::NewRenoCc cc;
  cc.init(1460, 20.0);
  const double w = cc.cwnd_bytes();
  cc.on_loss_event(ack(0));
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), w / 2.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh_bytes(), w / 2.0);
}

TEST(NewReno, LossNeverBelowTwoMss) {
  transport::NewRenoCc cc;
  cc.init(1460, 2.0);
  cc.on_loss_event(ack(0));
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 2.0 * 1460.0);
}

TEST(NewReno, TimeoutResetsToOneMss) {
  transport::NewRenoCc cc;
  cc.init(1460, 20.0);
  cc.on_timeout();
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 1460.0);
  EXPECT_DOUBLE_EQ(cc.ssthresh_bytes(), 10.0 * 1460.0);
  EXPECT_TRUE(cc.in_slow_start());
}

// -------------------------------------------------------------- CUBIC --

TEST(Cubic, SlowStartThenConcaveGrowthTowardWmax) {
  transport::CubicCc cc;
  cc.init(1460, 10.0);
  // Grow to ~100 pkts, lose, then verify cubic recovery toward Wmax.
  cc.on_ack(ack(130'000, microseconds(std::int64_t{500})));
  const double w_max = cc.cwnd_bytes();
  cc.on_loss_event(ack(0, milliseconds(std::int64_t{1})));
  EXPECT_NEAR(cc.cwnd_bytes(), 0.7 * w_max, 1.0);

  // Feed ACKs over simulated time; window should approach w_max again and
  // be (weakly) monotone through the concave region.
  double prev = cc.cwnd_bytes();
  for (int ms = 2; ms < 2'000; ms += 10) {
    cc.on_ack(ack(1460 * 10, milliseconds(std::int64_t{ms})));
    EXPECT_GE(cc.cwnd_bytes(), prev - 1e-6);
    prev = cc.cwnd_bytes();
  }
  EXPECT_GT(cc.cwnd_bytes(), 0.95 * w_max);
}

TEST(Cubic, TimeoutDropsToOneMss) {
  transport::CubicCc cc;
  cc.init(1460, 10.0);
  cc.on_timeout();
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 1460.0);
}

TEST(Cubic, BetaIsSeventyPercent) {
  transport::CubicCc cc;
  cc.init(1460, 100.0);
  cc.on_ack(ack(1'000'000));  // leave slow start far behind? still ss; force loss
  const double w = cc.cwnd_bytes();
  cc.on_loss_event(ack(0));
  EXPECT_NEAR(cc.cwnd_bytes() / w, 0.7, 1e-9);
}

// -------------------------------------------------------------- DCTCP --

TEST(Dctcp, WantsEcn) {
  transport::DctcpCc cc;
  cc.init(1460, 10.0);
  EXPECT_TRUE(cc.wants_ecn());
  transport::NewRenoCc reno;
  EXPECT_FALSE(reno.wants_ecn());
}

TEST(Dctcp, AlphaConvergesToMarkFraction) {
  transport::DctcpCc cc;
  cc.init(1460, 10.0);
  // Feed 300 windows with 25% marked bytes.
  std::uint64_t snd = 0;
  for (int w = 0; w < 300; ++w) {
    for (int i = 0; i < 4; ++i) {
      AckInfo a = ack(1460, milliseconds(std::int64_t{w * 10 + i}), i == 0);
      snd += 1460;
      a.snd_una = snd;
      a.snd_nxt = snd;  // window boundary every ACK group
      cc.on_ack(a);
    }
  }
  EXPECT_NEAR(cc.alpha(), 0.25, 0.08);
}

TEST(Dctcp, FullMarkingHalvesLikeTcp) {
  transport::DctcpCc cc;
  cc.init(1460, 10.0);
  // Alpha starts at 1.0; a marked ACK should cut the window by ~half.
  const double w = cc.cwnd_bytes();
  AckInfo a = ack(1460, milliseconds(std::int64_t{1}), true);
  a.snd_una = 1460;
  a.snd_nxt = 14'600;
  cc.on_ack(a);
  EXPECT_LE(cc.cwnd_bytes(), w * 0.55);
}

TEST(Dctcp, AtMostOneReductionPerWindow) {
  transport::DctcpCc cc;
  cc.init(1460, 10.0);
  AckInfo a = ack(1460, milliseconds(std::int64_t{1}), true);
  a.snd_una = 1460;
  a.snd_nxt = 14'600;
  cc.on_ack(a);
  const double after_first = cc.cwnd_bytes();
  // More marked ACKs within the same window (snd_una < cwr_end=14600).
  for (int i = 2; i <= 5; ++i) {
    AckInfo b = ack(1460, milliseconds(std::int64_t{i}), true);
    b.snd_una = static_cast<std::uint64_t>(i) * 1460;
    b.snd_nxt = 14'600;
    cc.on_ack(b);
  }
  EXPECT_GE(cc.cwnd_bytes(), after_first) << "no further cuts inside the CWR window";
}

// ------------------------------------------------ end-to-end with loss --

struct Pipe {
  sim::Simulator sim;
  std::unique_ptr<net::Host> a;
  std::unique_ptr<net::Host> b;
  std::unique_ptr<transport::HostAgent> agent_a;
  std::unique_ptr<transport::HostAgent> agent_b;

  explicit Pipe(std::set<std::uint64_t> drop_ordinals = {}) {
    auto nic_a = std::make_unique<net::Port>(
        sim, 1e9, microseconds(std::int64_t{50}),
        std::make_unique<net::DeterministicLossQueue>(drop_ordinals));
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

TEST(EndToEnd, LosslessTransferCompletesAtExpectedTime) {
  Pipe pipe;
  const auto params = flow_of(14'600);  // exactly one initial window
  Time done = -1;
  auto& rx = pipe.agent_b->add_receiver(params);
  rx.on_complete = [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  ASSERT_GT(done, 0);
  // 10 packets back-to-back: last bit arrives after 10 serializations
  // (12 us each) + 50 us propagation.
  EXPECT_EQ(done, microseconds(std::int64_t{170}));
  EXPECT_TRUE(tx.complete());
  EXPECT_EQ(tx.stats().retransmissions, 0u);
}

TEST(EndToEnd, SingleLossRecoversViaFastRetransmit) {
  Pipe pipe({2});  // drop the 3rd data packet once
  const auto params = flow_of(14'600);
  Time done = -1;
  pipe.agent_b->add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  ASSERT_GT(done, 0);
  EXPECT_EQ(tx.stats().fast_retransmits, 1u);
  EXPECT_EQ(tx.stats().timeouts, 0u);
  EXPECT_LT(done, milliseconds(std::int64_t{5})) << "no RTO should be involved";
}

TEST(EndToEnd, LostRetransmissionFallsBackToRto) {
  // Drop packet 2 and also its retransmission (data ordinal 10).
  Pipe pipe({2, 10});
  const auto params = flow_of(14'600);
  Time done = -1;
  pipe.agent_b->add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  ASSERT_GT(done, 0);
  EXPECT_GE(tx.stats().timeouts, 1u);
  EXPECT_GE(done, milliseconds(std::int64_t{10})) << "RTOmin must gate the recovery";
}

TEST(EndToEnd, TailLossRecoversViaRto) {
  Pipe pipe({9});  // drop the last packet of the window: no dupACKs possible
  const auto params = flow_of(14'600);
  Time done = -1;
  pipe.agent_b->add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  ASSERT_GT(done, 0);
  EXPECT_GE(tx.stats().timeouts, 1u);
}

TEST(EndToEnd, BurstLossStillCompletes) {
  Pipe pipe({1, 2, 3, 4, 5, 6, 7});  // drop most of the initial window
  const auto params = flow_of(50'000);
  Time done = -1;
  pipe.agent_b->add_receiver(params).on_complete =
      [&](const transport::FlowReceiver& r) { done = r.completion_time(); };
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run_until(seconds(std::int64_t{10}));
  ASSERT_GT(done, 0) << "flow must complete despite burst loss";
}

TEST(EndToEnd, SrttConvergesToPathRtt) {
  // A flow short enough not to self-congest its NIC: the RTT estimate must
  // reflect the raw path (2x50 us propagation + serialization), not
  // queueing of its own backlog.
  Pipe pipe;
  transport::FlowParams params = flow_of(14'600);
  pipe.agent_b->add_receiver(params);
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run();
  EXPECT_GT(tx.srtt(), microseconds(std::int64_t{100}));
  EXPECT_LT(tx.srtt(), microseconds(std::int64_t{300}));
}

// Queue discipline that sets CE on every ECN-capable data packet — models
// a fully congested marking switch for DCTCP feedback tests.
class CeMarkingQueue final : public net::QueueDisc {
 public:
  bool enqueue(net::Packet&& p) override {
    if (!p.is_ack() && p.has(net::kFlagEct)) p.set(net::kFlagCe);
    return inner_.enqueue(std::move(p));
  }
  std::optional<net::Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }

 private:
  net::DropTailQueue inner_;
};

TEST(EndToEnd, EcnEchoFeedsDctcp) {
  sim::Simulator sim;
  auto nic_a = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                           std::make_unique<CeMarkingQueue>());
  auto nic_b = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{50}),
                                           std::make_unique<net::DropTailQueue>());
  net::connect(*nic_a, *nic_b);
  net::Host a(sim, 0, std::move(nic_a));
  net::Host b(sim, 1, std::move(nic_b));
  transport::HostAgent agent_a(a);
  transport::HostAgent agent_b(b);

  transport::FlowParams params = flow_of(500'000);
  params.cc = transport::CcKind::kDctcp;
  agent_b.add_receiver(params);
  auto& tx = agent_a.add_sender(params);
  tx.start();
  sim.run();
  ASSERT_TRUE(tx.complete());
  // With every packet CE-marked, alpha must stay pinned near 1 and the
  // window must have been repeatedly cut (flow still completes, slowly).
  const auto& dctcp = dynamic_cast<const transport::DctcpCc&>(tx.cc());
  EXPECT_GT(dctcp.alpha(), 0.8);
  // The per-window alpha/2 cuts must pin the window far below where an
  // unmarked slow-start would end (~the 500 KB flow size).
  EXPECT_LE(dctcp.cwnd_bytes(), 100'000.0);
}

TEST(EndToEnd, UnboundedFlowStopsAtStopTime) {
  Pipe pipe;
  transport::FlowParams params = flow_of(0);
  params.stop = milliseconds(std::int64_t{2});
  pipe.agent_b->add_receiver(params);
  auto& tx = pipe.agent_a->add_sender(params);
  tx.start();
  pipe.sim.run_until(milliseconds(std::int64_t{100}));
  EXPECT_FALSE(tx.complete());  // unbounded flows never "complete"
  const auto sent_at_stop = tx.stats().bytes_sent;
  pipe.sim.run_until(milliseconds(std::int64_t{200}));
  EXPECT_EQ(tx.stats().bytes_sent, sent_at_stop) << "no new data after stop";
}

// --------------------------------------------------------------- PIAS --

TEST(Pias, TagsFirstBytesHighPriority) {
  transport::FlowParams p;
  p.service_queue = 3;
  p.pias = true;
  p.pias_threshold_bytes = 100'000;
  EXPECT_EQ(transport::queue_for_segment(p, 0), 0);
  EXPECT_EQ(transport::queue_for_segment(p, 99'999), 0);
  EXPECT_EQ(transport::queue_for_segment(p, 100'000), 3);
  EXPECT_EQ(transport::queue_for_segment(p, 5'000'000), 3);
}

TEST(Pias, DisabledUsesServiceQueue) {
  transport::FlowParams p;
  p.service_queue = 2;
  p.pias = false;
  EXPECT_EQ(transport::queue_for_segment(p, 0), 2);
}

// ---------------------------------------------------------- HostAgent --

TEST(HostAgent, CountsStrayPackets) {
  Pipe pipe;
  // No receiver registered at B: data packets for flow 1 are strays.
  const auto params = flow_of(1'460);
  pipe.agent_a->add_sender(params).start();
  pipe.sim.run_until(milliseconds(std::int64_t{50}));
  EXPECT_GT(pipe.agent_b->stray_packets(), 0u);
}

}  // namespace
}  // namespace dynaq
