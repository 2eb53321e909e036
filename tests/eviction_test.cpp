// Packet-eviction extension tests (BarberQ-style tail eviction through the
// BufferPolicy::evict_candidate hook).
#include <gtest/gtest.h>

#include <memory>

#include "core/policies.hpp"
#include "core/scheme.hpp"
#include "harness/dynamic_experiment.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

net::Packet pkt(int queue, std::uint64_t seq = 0, std::int32_t payload = 1460) {
  net::Packet p = net::make_data_packet(1, 0, 1, seq, payload);
  p.queue = static_cast<std::uint8_t>(queue);
  return p;
}

TEST(Eviction, AdmitsArrivalByEvictingSurplusQueue) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::DynaQEvictPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  // Pin queue 1 at 4500 B (beyond its 3000 B satisfaction) and queue 0 at
  // its raided 1500 B threshold: port full.
  ASSERT_TRUE(qd.enqueue(pkt(1, 0)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 1'460)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 2'920)));
  ASSERT_TRUE(qd.enqueue(pkt(0, 0)));
  ASSERT_EQ(qd.backlog_bytes(), 6'000);

  // Plain DynaQ would drop here (port full); eviction displaces queue 1's
  // tail packet instead.
  EXPECT_TRUE(qd.enqueue(pkt(0, 1'460)));
  EXPECT_EQ(qd.stats().evicted, 1u);
  EXPECT_EQ(qd.state().queue(1).bytes, 3'000);
  EXPECT_EQ(qd.state().queue(0).bytes, 3'000);
  EXPECT_EQ(qd.backlog_bytes(), 6'000);
  EXPECT_EQ(qd.stats().dropped, 0u);
}

TEST(Eviction, EvictsNewestPacketOfVictim) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::DynaQEvictPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  ASSERT_TRUE(qd.enqueue(pkt(1, 0)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 1'460)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 2'920)));  // tail: seq 2920
  ASSERT_TRUE(qd.enqueue(pkt(0, 0)));
  ASSERT_TRUE(qd.enqueue(pkt(0, 1'460)));  // evicts queue 1's tail

  // Queue 1 must still hold its two oldest packets in order.
  ASSERT_EQ(qd.state().queue(1).packets.size(), 2u);
  EXPECT_EQ(qd.state().queue(1).packets.front().seq, 0u);
  EXPECT_EQ(qd.state().queue(1).packets.back().seq, 1'460u);
}

TEST(Eviction, NeverEvictsBelowSatisfaction) {
  sim::Simulator sim;
  net::MultiQueueQdisc qd(sim, {1, 1}, 6'000, std::make_unique<core::DynaQEvictPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  // Both queues exactly at satisfaction (3000 each): no surplus anywhere.
  ASSERT_TRUE(qd.enqueue(pkt(0, 0)));
  ASSERT_TRUE(qd.enqueue(pkt(0, 1'460)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 0)));
  ASSERT_TRUE(qd.enqueue(pkt(1, 1'460)));
  ASSERT_EQ(qd.backlog_bytes(), 6'000);

  EXPECT_FALSE(qd.enqueue(pkt(0, 2'920))) << "no queue holds surplus to evict";
  EXPECT_EQ(qd.stats().evicted, 0u);
  EXPECT_EQ(qd.state().queue(1).bytes, 3'000);
}

TEST(Eviction, EvictedBytesCountAsDropsForTransport) {
  // End-to-end: eviction must look like loss to the sender (retransmitted)
  // and flows still complete.
  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheme.kind = core::SchemeKind::kDynaQEvict;
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = 300;
  cfg.load = 0.7;
  cfg.dist = &workload::web_search_workload();
  cfg.seed = 3;
  const auto r = harness::run_dynamic_star_experiment(cfg);
  EXPECT_EQ(r.incomplete, 0u);
  EXPECT_GT(r.telemetry.evictions, 0u) << "the scenario should exercise eviction";
}

TEST(Eviction, SchemeRoundTrip) {
  EXPECT_EQ(core::parse_scheme("DynaQ+Evict"), core::SchemeKind::kDynaQEvict);
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQEvict;
  EXPECT_EQ(core::make_policy(spec)->name(), "dynaq+evict");
  EXPECT_FALSE(core::scheme_uses_ecn(core::SchemeKind::kDynaQEvict));
}

TEST(Eviction, InvariantsHoldUnderChurn) {
  sim::Simulator sim;
  sim::Rng rng(17);
  net::MultiQueueQdisc qd(sim, {1, 1, 1, 1}, 40'000, std::make_unique<core::DynaQEvictPolicy>(),
                          std::make_unique<net::DrrScheduler>(1500));
  auto& policy = dynamic_cast<core::DynaQEvictPolicy&>(qd.policy());
  for (int step = 0; step < 40'000; ++step) {
    if (rng.uniform() < 0.6) {
      qd.enqueue(pkt(static_cast<int>(rng.uniform_int(0, 3)), 0,
                     static_cast<std::int32_t>(rng.uniform_int(60, 1460))));
    } else {
      qd.dequeue();
    }
    ASSERT_LE(qd.backlog_bytes(), 40'000);
    ASSERT_EQ(policy.controller().threshold_sum(), 40'000);
    // Byte accounting must match the actual queue contents.
    std::int64_t total = 0;
    for (int i = 0; i < 4; ++i) {
      std::int64_t bytes = 0;
      for (const auto& buffered : qd.state().queue(i).packets) bytes += buffered.size;
      ASSERT_EQ(bytes, qd.state().queue(i).bytes);
      total += bytes;
    }
    ASSERT_EQ(total, qd.backlog_bytes());
  }
}

}  // namespace
}  // namespace dynaq
