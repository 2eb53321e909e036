// Unit tests for the net module: packets, ports/links, queue disciplines,
// the ring buffer, schedulers and the multi-queue qdisc plumbing.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "core/policies.hpp"
#include "net/fault_injection.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue_disc.hpp"
#include "net/ring.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "telemetry/hub.hpp"

namespace dynaq {
namespace {

net::Packet data_pkt(int queue, std::int32_t payload = 1460) {
  net::Packet p = net::make_data_packet(1, 0, 1, 0, payload);
  p.queue = static_cast<std::uint8_t>(queue);
  return p;
}

// ------------------------------------------------------------- Packet --

TEST(Packet, FlagsSetClearQuery) {
  net::Packet p;
  EXPECT_FALSE(p.has(net::kFlagCe));
  p.set(net::kFlagCe);
  p.set(net::kFlagEct);
  EXPECT_TRUE(p.has(net::kFlagCe));
  p.clear(net::kFlagCe);
  EXPECT_FALSE(p.has(net::kFlagCe));
  EXPECT_TRUE(p.has(net::kFlagEct));
}

TEST(Packet, FactoriesSetSizes) {
  const net::Packet d = net::make_data_packet(7, 1, 2, 100, 1460);
  EXPECT_EQ(d.size, 1500);
  EXPECT_EQ(d.payload, 1460);
  EXPECT_FALSE(d.is_ack());
  const net::Packet a = net::make_ack_packet(7, 2, 1, 1560);
  EXPECT_EQ(a.size, net::kAckBytes);
  EXPECT_TRUE(a.is_ack());
  EXPECT_EQ(a.seq, 1560u);
}

// ----------------------------------------------------------- DropTail --

TEST(DropTailQueue, DropsWhenFull) {
  net::DropTailQueue q(3000);
  EXPECT_TRUE(q.enqueue(data_pkt(0)));   // 1500
  EXPECT_TRUE(q.enqueue(data_pkt(0)));   // 3000
  EXPECT_FALSE(q.enqueue(data_pkt(0)));  // would exceed
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.backlog_bytes(), 3000);
}

TEST(DropTailQueue, UnlimitedWhenZeroCapacity) {
  net::DropTailQueue q(0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(q.enqueue(data_pkt(0)));
}

TEST(DropTailQueue, FifoOrder) {
  net::DropTailQueue q;
  net::Packet a = data_pkt(0);
  a.seq = 1;
  net::Packet b = data_pkt(0);
  b.seq = 2;
  q.enqueue(std::move(a));
  q.enqueue(std::move(b));
  EXPECT_EQ(q.dequeue()->seq, 1u);
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_FALSE(q.dequeue().has_value());
}

// --------------------------------------------------------------- Port --

TEST(Port, SerializationPlusPropagationDelay) {
  sim::Simulator sim;
  auto tx = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{100}),
                                        std::make_unique<net::DropTailQueue>());
  auto rx = std::make_unique<net::Port>(sim, 1e9, microseconds(std::int64_t{100}),
                                        std::make_unique<net::DropTailQueue>());
  net::connect(*tx, *rx);
  Time delivered = -1;
  rx->set_receiver([&](net::Packet&&) { delivered = sim.now(); });
  tx->send(data_pkt(0));  // 1500 B at 1 Gbps = 12 us, + 100 us propagation
  sim.run();
  EXPECT_EQ(delivered, microseconds(std::int64_t{112}));
}

TEST(Port, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  auto tx = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  auto rx = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  net::connect(*tx, *rx);
  std::vector<Time> arrivals;
  rx->set_receiver([&](net::Packet&&) { arrivals.push_back(sim.now()); });
  tx->send(data_pkt(0));
  tx->send(data_pkt(0));
  tx->send(data_pkt(0));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[1] - arrivals[0], microseconds(std::int64_t{12}));
  EXPECT_EQ(arrivals[2] - arrivals[1], microseconds(std::int64_t{12}));
  EXPECT_EQ(tx->packets_sent(), 3u);
  EXPECT_EQ(tx->bytes_sent(), 4500);
}

TEST(Port, NoPeerDropsSilently) {
  sim::Simulator sim;
  net::Port tx(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  tx.send(data_pkt(0));
  sim.run();  // must not crash
  EXPECT_EQ(tx.packets_sent(), 1u);
}

// --------------------------------------------------------------- Host --

TEST(Host, DeliversToRegisteredHandler) {
  sim::Simulator sim;
  auto nic_a = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  auto nic_b = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  net::connect(*nic_a, *nic_b);
  net::Host a(sim, 0, std::move(nic_a));
  net::Host b(sim, 1, std::move(nic_b));
  int received = 0;
  b.set_packet_handler([&](net::Packet&& p) {
    ++received;
    EXPECT_EQ(p.payload, 1460);
  });
  a.send(data_pkt(0));
  sim.run();
  EXPECT_EQ(received, 1);
}

// ------------------------------------------------------------- Switch --

TEST(Switch, RoutesThroughConfiguredRouter) {
  sim::Simulator sim;
  net::Switch sw(sim, 0);
  auto p0 = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  auto host_nic = std::make_unique<net::Port>(sim, 1e9, 0, std::make_unique<net::DropTailQueue>());
  net::connect(*p0, *host_nic);
  int delivered = 0;
  host_nic->set_receiver([&](net::Packet&&) { ++delivered; });
  sw.add_port(std::move(p0));
  sw.set_router([](const net::Packet&) { return 0; });
  sw.forward(data_pkt(0));
  sim.run();
  EXPECT_EQ(delivered, 1);
  (void)host_nic;
}

TEST(Switch, NegativeRouteCountsAsRoutingDrop) {
  sim::Simulator sim;
  net::Switch sw(sim, 0);
  sw.set_router([](const net::Packet&) { return -1; });
  sw.forward(data_pkt(0));
  EXPECT_EQ(sw.routing_drops(), 1u);
}

// --------------------------------------------------------------- Ring --

std::vector<int> contents(const net::Ring<int>& r) { return {r.begin(), r.end()}; }

TEST(Ring, FifoOrderAcrossWrapAndGrowth) {
  // A deque as the reference; the push/pop mix walks the head around the
  // array many times and grows it while the head sits mid-array.
  net::Ring<int> r;
  std::deque<int> ref;
  int next = 0;
  for (int step = 0; step < 2'000; ++step) {
    const int pushes = step % 7 == 0 ? 5 : 1;
    for (int i = 0; i < pushes; ++i) {
      r.push_back(next);
      ref.push_back(next++);
    }
    if (step % 3 != 0) {
      ASSERT_EQ(r.front(), ref.front());
      r.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(r.size(), ref.size());
    ASSERT_EQ(r.front(), ref.front());
    ASSERT_EQ(r.back(), ref.back());
  }
  EXPECT_EQ(contents(r), std::vector<int>(ref.begin(), ref.end()));
  EXPECT_GE(r.capacity(), r.size());
  EXPECT_EQ(r.capacity() & (r.capacity() - 1), 0u) << "capacity is a power of two";
  while (!ref.empty()) {
    ASSERT_EQ(r.front(), ref.front());
    r.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, PopBackThenPushBack) {
  net::Ring<int> r;
  for (int i = 1; i <= 5; ++i) r.push_back(i);
  r.pop_back();  // eviction takes the tail
  r.pop_back();
  EXPECT_EQ(r.back(), 3);
  r.push_back(9);
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 9}));
  r.pop_front();
  r.pop_back();
  EXPECT_EQ(contents(r), (std::vector<int>{2, 3}));
}

TEST(Ring, IteratesFromTheHead) {
  net::Ring<int> r;
  r.push_back(0);
  const int cap = static_cast<int>(r.capacity());
  for (int i = 1; i < cap; ++i) r.push_back(i);
  for (int i = 0; i < cap - 2; ++i) r.pop_front();
  for (int i = cap; i < cap + 4; ++i) r.push_back(i);  // wraps without growing
  EXPECT_EQ(r.capacity(), static_cast<std::size_t>(cap));
  std::vector<int> want;
  for (int v = cap - 2; v < cap + 4; ++v) want.push_back(v);
  EXPECT_EQ(contents(r), want);
  auto it = r.begin();
  EXPECT_EQ(*it++, cap - 2);
  EXPECT_EQ(*it, cap - 1);
}

TEST(Ring, CopyIsIndependentOfItsSource) {
  net::Ring<int> src;
  for (int i = 0; i < 10; ++i) src.push_back(i);
  for (int i = 0; i < 4; ++i) src.pop_front();
  net::Ring<int> copy(src);
  src.pop_front();
  src.push_back(100);
  copy.push_back(-1);
  EXPECT_EQ(contents(copy), (std::vector<int>{4, 5, 6, 7, 8, 9, -1}));
  EXPECT_EQ(contents(src), (std::vector<int>{5, 6, 7, 8, 9, 100}));

  net::Ring<int> assigned;
  assigned.push_back(42);
  assigned = src;
  src.pop_back();
  EXPECT_EQ(contents(assigned), (std::vector<int>{5, 6, 7, 8, 9, 100}));
  EXPECT_EQ(contents(src), (std::vector<int>{5, 6, 7, 8, 9}));
}

TEST(Ring, PushBackOfOwnFrontAcrossGrowth) {
  // The grow path must read the new element before it frees the old array.
  net::Ring<net::Packet> r;
  r.push_back(data_pkt(0, 100));
  const int cap = static_cast<int>(r.capacity());
  for (int i = 1; i <= cap; ++i) {
    if (i == cap) r.pop_front();
    r.push_back(data_pkt(i % 8, 100 + i));
  }
  ASSERT_EQ(r.size(), r.capacity()) << "full, head one slot in";
  r.push_back(r.front());
  EXPECT_EQ(r.size(), static_cast<std::size_t>(cap) + 1);
  EXPECT_EQ(r.front().payload, 101);
  EXPECT_EQ(r.back().payload, 101);
  EXPECT_EQ(r.back().queue, 1);
  std::vector<int> payloads;
  for (const net::Packet& p : r) payloads.push_back(p.payload);
  std::vector<int> want;
  for (int i = 1; i <= cap; ++i) want.push_back(100 + i);
  want.push_back(101);
  EXPECT_EQ(payloads, want);
}

TEST(Ring, DefaultConstructedAllocatesNothing) {
  net::Ring<net::Packet> r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.begin() == r.end());
  const net::Ring<net::Packet> copy(r);
  EXPECT_EQ(copy.capacity(), 0u);
  // The first push allocates; draining keeps the array for the next burst.
  r.push_back(data_pkt(0));
  const std::size_t cap = r.capacity();
  EXPECT_GT(cap, 0u);
  r.pop_front();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), cap);
}

// --------------------------------------------------------- Schedulers --

net::MqState make_state(std::vector<double> weights, std::int64_t buffer = 1'000'000) {
  net::MqState s;
  s.buffer_bytes = buffer;
  s.queues.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) s.queues[i].weight = weights[i];
  return s;
}

void push(net::MqState& s, net::SchedulerPolicy& sched, int q, std::int32_t size = 1500) {
  net::Packet p = data_pkt(q, size - net::kHeaderBytes);
  s.queue(q).bytes += p.size;
  s.port_bytes += p.size;
  s.queue(q).packets.push_back(std::move(p));
  sched.on_enqueue(s, q);
}

net::Packet pop(net::MqState& s, int q) {
  net::Packet p = std::move(s.queue(q).packets.front());
  s.queue(q).packets.pop_front();
  s.queue(q).bytes -= p.size;
  s.port_bytes -= p.size;
  return p;
}

TEST(SpqScheduler, AlwaysPicksHighestPriorityBacklogged) {
  auto s = make_state({1, 1, 1});
  net::SpqScheduler sched;
  push(s, sched, 2);
  push(s, sched, 1);
  EXPECT_EQ(sched.next_queue(s), 1);
  pop(s, 1);
  EXPECT_EQ(sched.next_queue(s), 2);
  pop(s, 2);
  EXPECT_EQ(sched.next_queue(s), -1);
}

TEST(FifoScheduler, GlobalArrivalOrder) {
  auto s = make_state({1, 1});
  net::FifoScheduler sched;
  push(s, sched, 1);
  push(s, sched, 0);
  push(s, sched, 1);
  EXPECT_EQ(sched.next_queue(s), 1);
  pop(s, 1);
  EXPECT_EQ(sched.next_queue(s), 0);
  pop(s, 0);
  EXPECT_EQ(sched.next_queue(s), 1);
}

TEST(DrrScheduler, EqualWeightsAlternate) {
  auto s = make_state({1, 1});
  net::DrrScheduler sched(1500);
  sched.attach(s);
  for (int i = 0; i < 4; ++i) push(s, sched, 0);
  for (int i = 0; i < 4; ++i) push(s, sched, 1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    const int q = sched.next_queue(s);
    order.push_back(q);
    pop(s, q);
  }
  int q0 = 0;
  for (int i = 0; i < 4; ++i) q0 += order[static_cast<std::size_t>(i)] == 0;
  EXPECT_EQ(q0, 2) << "first 4 dequeues should split 2/2";
}

TEST(DrrScheduler, WeightsRespectedInBytes) {
  auto s = make_state({3, 1});
  net::DrrScheduler sched(1500);
  sched.attach(s);
  for (int i = 0; i < 30; ++i) push(s, sched, 0);
  for (int i = 0; i < 30; ++i) push(s, sched, 1);
  std::int64_t bytes[2] = {0, 0};
  for (int i = 0; i < 24; ++i) {
    const int q = sched.next_queue(s);
    bytes[q] += pop(s, q).size;
  }
  EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 3.0, 0.6);
}

TEST(DrrScheduler, VariablePacketSizesStayProportional) {
  auto s = make_state({1, 1});
  net::DrrScheduler sched(1500);
  sched.attach(s);
  // Queue 0: many small packets; queue 1: few large ones. DRR must still
  // split *bytes* evenly.
  for (int i = 0; i < 60; ++i) push(s, sched, 0, 500);
  for (int i = 0; i < 20; ++i) push(s, sched, 1, 1500);
  std::int64_t bytes[2] = {0, 0};
  for (int i = 0; i < 40; ++i) {
    const int q = sched.next_queue(s);
    bytes[q] += pop(s, q).size;
  }
  EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 1.0, 0.25);
}

TEST(DrrScheduler, EmptiedQueueLeavesRound) {
  auto s = make_state({1, 1});
  net::DrrScheduler sched(1500);
  sched.attach(s);
  push(s, sched, 0);
  push(s, sched, 1);
  push(s, sched, 1);
  // Drain everything; scheduler must serve all three packets.
  int served = 0;
  while (true) {
    const int q = sched.next_queue(s);
    if (q < 0) break;
    pop(s, q);
    ++served;
  }
  EXPECT_EQ(served, 3);
  EXPECT_EQ(sched.deficit(0), 0);
}

TEST(WrrScheduler, PacketSlotsFollowWeights) {
  auto s = make_state({2, 1});
  net::WrrScheduler sched;
  sched.attach(s);
  for (int i = 0; i < 30; ++i) push(s, sched, 0);
  for (int i = 0; i < 30; ++i) push(s, sched, 1);
  int count[2] = {0, 0};
  for (int i = 0; i < 30; ++i) {
    const int q = sched.next_queue(s);
    ++count[q];
    pop(s, q);
  }
  EXPECT_NEAR(static_cast<double>(count[0]) / static_cast<double>(count[1]), 2.0, 0.3);
}

TEST(SpqOverScheduler, HighPriorityPreempts) {
  auto s = make_state({1, 1, 1});
  net::SpqOverScheduler sched(std::make_unique<net::DrrScheduler>(1500));
  sched.attach(s);
  push(s, sched, 1);
  push(s, sched, 2);
  push(s, sched, 0);
  EXPECT_EQ(sched.next_queue(s), 0);  // strict high priority first
  pop(s, 0);
  const int q1 = sched.next_queue(s);
  EXPECT_TRUE(q1 == 1 || q1 == 2);
  pop(s, q1);
  push(s, sched, 0);  // arrives mid-round
  EXPECT_EQ(sched.next_queue(s), 0);
}

// ---------------------------------------------------- MultiQueueQdisc --

TEST(MultiQueueQdisc, EnforcesPhysicalBufferBound) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 4500, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  EXPECT_TRUE(qd.enqueue(data_pkt(0)));
  EXPECT_TRUE(qd.enqueue(data_pkt(1)));
  EXPECT_TRUE(qd.enqueue(data_pkt(1)));
  EXPECT_FALSE(qd.enqueue(data_pkt(0)));  // 4x1500 > 4500
  EXPECT_EQ(qd.stats().dropped, 1u);
  EXPECT_EQ(qd.backlog_bytes(), 4500);
}

TEST(MultiQueueQdisc, DequeueFollowsScheduler) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 100'000, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  qd.enqueue(data_pkt(1));
  qd.enqueue(data_pkt(0));
  EXPECT_EQ(qd.dequeue()->queue, 0);
  EXPECT_EQ(qd.dequeue()->queue, 1);
  EXPECT_TRUE(qd.empty());
}

TEST(MultiQueueQdisc, OutOfRangeQueueClampsToLast) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 100'000, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  qd.enqueue(data_pkt(7));
  EXPECT_EQ(qd.state().queue(1).packets.size(), 1u);
}

TEST(MultiQueueQdisc, RejectsInvalidConfig) {
  sim::Simulator sim;
  EXPECT_THROW(net::MultiQueueQdisc(sim, {}, 1000, std::make_unique<core::BestEffortPolicy>(),
                                    std::make_unique<net::SpqScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(net::MultiQueueQdisc(sim, {1.0}, 0, std::make_unique<core::BestEffortPolicy>(),
                                    std::make_unique<net::SpqScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(net::MultiQueueQdisc(sim, {0.0}, 1000, std::make_unique<core::BestEffortPolicy>(),
                                    std::make_unique<net::SpqScheduler>()),
               std::invalid_argument);
}

TEST(MultiQueueQdisc, SojournTimestampSet) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1}, 100'000, std::make_unique<core::BestEffortPolicy>(),
                          std::make_unique<net::SpqScheduler>());
  sim.schedule_at(microseconds(std::int64_t{50}), [&] { qd.enqueue(data_pkt(0)); });
  sim.run();
  EXPECT_EQ(qd.state().queue(0).packets.front().enqueued_at, microseconds(std::int64_t{50}));
}

// ------------------------------------------- Fault-injection queues --

// set_loss_rate(0.0) must pass every packet: the RNG stream keeps drawing
// (determinism across rate flips) but no draw can fall below zero.
TEST(BernoulliLossQueue, RateZeroAdmitsEverything) {
  sim::Simulator sim;
  telemetry::Hub hub(sim, {.enabled = true});
  net::BernoulliLossQueue q(0.7, /*seed=*/11);
  q.attach_telemetry(hub, "lossy");
  q.set_loss_rate(0.0);
  const int n = 1'000;
  int admitted = 0;
  for (int i = 0; i < n; ++i) {
    if (q.enqueue(data_pkt(0, 100))) {
      ++admitted;
      q.dequeue();
    }
  }
  EXPECT_EQ(admitted, n);
  EXPECT_EQ(q.injected_losses(), 0u);
  EXPECT_EQ(hub.summary().drops(telemetry::DropReason::kInjected), 0u);
}

// set_loss_rate(1.0) must drop every data packet — tagged kInjected, ACKs
// untouched, and the offered = admitted + injected ledger conserved.
TEST(BernoulliLossQueue, RateOneDropsAllDataTaggedInjected) {
  sim::Simulator sim;
  telemetry::Hub hub(sim, {.enabled = true});
  net::BernoulliLossQueue q(0.0, /*seed=*/11);
  q.attach_telemetry(hub, "lossy");
  q.set_loss_rate(1.0);
  const int n = 1'000;
  int admitted = 0;
  for (int i = 0; i < n; ++i) {
    if (q.enqueue(data_pkt(0, 100))) ++admitted;
  }
  EXPECT_EQ(admitted, 0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.injected_losses(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(admitted + static_cast<int>(q.injected_losses()), n);
  // The injector only touches data packets: ACKs pass even at rate 1.0.
  EXPECT_TRUE(q.enqueue(net::make_ack_packet(1, 0, 1, 100)));
  EXPECT_EQ(hub.summary().drops(telemetry::DropReason::kInjected),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(hub.summary().drops(telemetry::DropReason::kPortFull), 0u);
}

}  // namespace
}  // namespace dynaq
