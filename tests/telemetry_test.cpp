// Tests for the telemetry subsystem (DESIGN.md §8): histogram bucket
// exactness, subscriber fan-out, the drop-reason taxonomy driven through the
// real qdiscs, hub counters against a qdisc's own MqStats, disabled-hub
// zero-side-effect, and sweep-export byte identity across worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "harness/dynamic_experiment.hpp"
#include "net/fault_injection.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/queue_disc.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep_runner.hpp"
#include "telemetry/hub.hpp"
#include "topo/star.hpp"
#include "transport/host_agent.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

using telemetry::DropReason;
using telemetry::EventKind;

// A data packet destined for service queue `q`. make_data_packet adds the
// 40-byte header, so the wire size is payload + 40.
net::Packet pkt(int q, std::int32_t payload = 1'460, std::uint32_t flow = 1) {
  net::Packet p = net::make_data_packet(flow, 0, 1, 0, payload);
  p.queue = static_cast<std::uint8_t>(q);
  return p;
}

std::unique_ptr<net::MultiQueueQdisc> make_qdisc(sim::Simulator& sim, core::SchemeKind kind,
                                                 int queues, std::int64_t buffer_bytes) {
  core::SchemeSpec spec;
  spec.kind = kind;
  return core::make_mq_qdisc(sim, std::vector<double>(static_cast<std::size_t>(queues), 1.0),
                             buffer_bytes, spec, std::make_unique<net::DrrScheduler>(1'500));
}

// ----------------------------------------------------------- histogram --

TEST(LogHistogram, BucketBoundariesExactEverywhere) {
  using H = telemetry::LogHistogram;
  for (int i = 0; i < H::kNumBuckets; ++i) {
    const std::int64_t lo = H::lower_bound(i);
    EXPECT_EQ(H::index_of(lo), i) << "lower bound of bucket " << i;
    if (i > 0) {
      EXPECT_EQ(H::index_of(lo - 1), i - 1) << "value below bucket " << i;
    }
  }
  EXPECT_EQ(H::index_of(-5), 0) << "negative values clamp to the first bucket";
  EXPECT_EQ(H::index_of(std::int64_t{1} << 60), H::kNumBuckets - 1)
      << "values beyond kMaxBits clamp to the last bucket";
}

TEST(LogHistogram, SmallValuesAndPercentilesAreExact) {
  telemetry::LogHistogram h;
  for (std::int64_t v = 0; v < 8; ++v) h.record(v);  // sub-kSub: exact buckets
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.percentile(100), 7);
  EXPECT_EQ(h.percentile(1), 0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(h.bucket(i), 1u);
}

// ------------------------------------------------------------ event bus --

TEST(Hub, SubscribersSeeEveryEvent) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  std::vector<EventKind> seen;
  hub.subscribe([&](const telemetry::Event& e) { seen.push_back(e.kind); });
  hub.emit({.kind = EventKind::kEnqueue});
  hub.emit({.kind = EventKind::kDrop, .reason = DropReason::kThreshold});
  hub.emit({.kind = EventKind::kEcnMark});
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], EventKind::kDrop);
}

// --------------------------------------------- drop-reason taxonomy ----
// One test per DropReason, each driving the real emitting component.

TEST(DropTaxonomy, ThresholdWhenNoVictimExists) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  // Single service queue, B = 2000: the second 1500 B packet exceeds the
  // threshold and there is no other queue to borrow from.
  auto qd = make_qdisc(sim, core::SchemeKind::kDynaQ, 1, 2'000);
  qd->attach_telemetry(hub, "sw.p0");
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_FALSE(qd->enqueue(pkt(0)));
  const auto s = hub.summary();
  EXPECT_EQ(s.drops(DropReason::kThreshold), 1u);
  EXPECT_EQ(s.total_drops(), 1u);
  EXPECT_EQ(s.enqueues, 1u);
}

TEST(DropTaxonomy, VictimTooSmallWhenThresholdBelowPacket) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  // Two queues, B = 2000 -> T = {1000, 1000}: the very first 1500 B packet
  // needs an exchange but the victim's whole threshold is below the packet.
  auto qd = make_qdisc(sim, core::SchemeKind::kDynaQ, 2, 2'000);
  qd->attach_telemetry(hub, "sw.p0");
  EXPECT_FALSE(qd->enqueue(pkt(0)));
  EXPECT_EQ(hub.summary().drops(DropReason::kVictimTooSmall), 1u);
}

TEST(DropTaxonomy, VictimUnsatisfiedWhenActiveVictimWouldDropBelowS) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  // Two queues, B = 6000 -> T = S = {3000, 3000}. Queue 1 holds one packet
  // (active); queue 0 fills to its threshold, then one more arrival asks
  // queue 1 to donate 1500 B, which would leave T_1 = 1500 < S_1.
  auto qd = make_qdisc(sim, core::SchemeKind::kDynaQ, 2, 6'000);
  qd->attach_telemetry(hub, "sw.p0");
  EXPECT_TRUE(qd->enqueue(pkt(1)));
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_FALSE(qd->enqueue(pkt(0)));
  EXPECT_EQ(hub.summary().drops(DropReason::kVictimUnsatisfied), 1u);
}

TEST(DropTaxonomy, PortFullWhenPolicyAdmitsButBufferCannot) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  // BestEffort has no per-queue quota: the physical bound is the only limit.
  auto qd = make_qdisc(sim, core::SchemeKind::kBestEffort, 2, 2'000);
  qd->attach_telemetry(hub, "sw.p0");
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_FALSE(qd->enqueue(pkt(1)));
  EXPECT_EQ(hub.summary().drops(DropReason::kPortFull), 1u);
}

TEST(DropTaxonomy, NicFullFromHostDropTailQueue) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  net::DropTailQueue nic(2'000);
  nic.attach_telemetry(hub, "h0.nic");
  EXPECT_TRUE(nic.enqueue(pkt(0)));
  EXPECT_FALSE(nic.enqueue(pkt(0)));
  EXPECT_EQ(hub.summary().drops(DropReason::kNicFull), 1u);
  EXPECT_EQ(nic.drops(), 1u);
}

TEST(DropTaxonomy, InjectedFromFaultInjectionQueue) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  net::DeterministicLossQueue loss({0});  // drop the first data packet
  loss.attach_telemetry(hub, "link");
  EXPECT_FALSE(loss.enqueue(pkt(0)));
  EXPECT_TRUE(loss.enqueue(pkt(0)));
  const auto s = hub.summary();
  EXPECT_EQ(s.drops(DropReason::kInjected), 1u);
  EXPECT_EQ(loss.injected_losses(), 1u);
}

// ------------------------------------------------- exchange events -----

TEST(Telemetry, ThresholdExchangeEmittedOnSuccessfulBorrow) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  std::vector<telemetry::Event> events;
  hub.subscribe([&](const telemetry::Event& e) { events.push_back(e); });
  // B = 6000, queue 1 idle: queue 0's third packet borrows 1500 B of
  // threshold from the inactive victim and is admitted.
  auto qd = make_qdisc(sim, core::SchemeKind::kDynaQ, 2, 6'000);
  qd->attach_telemetry(hub, "sw.p0");
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  EXPECT_TRUE(qd->enqueue(pkt(0)));
  const auto s = hub.summary();
  EXPECT_EQ(s.threshold_exchanges, 1u);
  EXPECT_EQ(s.exchanged_bytes, 1'500);
  EXPECT_EQ(s.enqueues, 3u);
  EXPECT_EQ(s.total_drops(), 0u);
  bool saw_exchange = false;
  for (const auto& e : events) {
    if (e.kind != EventKind::kThresholdExchange) continue;
    saw_exchange = true;
    EXPECT_EQ(e.queue, 0) << "requester";
    EXPECT_EQ(e.other_queue, 1) << "victim";
    EXPECT_EQ(e.bytes, 1'500);
  }
  EXPECT_TRUE(saw_exchange);
}

// ---------------------------------------------- disabled-hub fast path --

TEST(Telemetry, DisabledHubHasZeroSideEffects) {
  sim::Simulator sim;
  telemetry::Hub hub(sim, {.enabled = false});
  std::size_t emitted = 0;
  hub.subscribe([&](const telemetry::Event&) { ++emitted; });
  auto qd = make_qdisc(sim, core::SchemeKind::kDynaQ, 2, 6'000);
  qd->attach_telemetry(hub, "sw.p0");
  net::DropTailQueue nic(2'000);
  nic.attach_telemetry(hub, "h0.nic");
  net::DeterministicLossQueue loss({0});
  loss.attach_telemetry(hub, "link");

  for (int i = 0; i < 3; ++i) qd->enqueue(pkt(0));  // exchange + drops happen
  nic.enqueue(pkt(0));
  nic.enqueue(pkt(0));  // NIC drop happens
  loss.enqueue(pkt(0));  // injected loss happens
  while (qd->dequeue()) {
  }

  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(hub.num_delay_queues(), 0u);
  EXPECT_FALSE(hub.sampling_active());
  const auto s = hub.summary();
  EXPECT_EQ(s.total_drops(), 0u);
  EXPECT_EQ(s.enqueues, 0u);
  EXPECT_EQ(s.threshold_exchanges, 0u);
  EXPECT_TRUE(s.queue_delay.empty());
}

// Below the harness (which always observes): the same hand-built star, run
// once with a hub sampling queues and tapping the wire and once with none.
TEST(Telemetry, CollectionDoesNotPerturbTheSimulation) {
  struct Outcome {
    std::uint64_t fingerprint = 0;
    std::uint64_t events = 0;
    net::MqStats bottleneck;
    std::uint64_t observed = 0;  // hub events + wire records seen
  };
  const auto run = [](bool observe) {
    sim::Simulator sim;
    sim.enable_trajectory_fingerprint();
    topo::StarConfig cfg;
    cfg.num_hosts = 4;
    cfg.queue_weights = {1, 1};
    cfg.scheme.kind = core::SchemeKind::kDynaQ;
    topo::StarTopology topo(sim, cfg);
    telemetry::Hub hub(sim);
    Outcome out;
    if (observe) {
      topo.fabric().port(0).attach_telemetry(hub, "sw.p0");
      for (int i = 0; i < topo.num_hosts(); ++i) {
        topo.host(i).nic().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
      }
      hub.enable_queue_sampling(10'000);
      hub.add_wire_listener([&out](const telemetry::WireRecord&) { ++out.observed; });
    }
    std::uint32_t id = 1;
    for (int src = 1; src < 4; ++src) {
      for (int queue = 0; queue < 2; ++queue) {
        const transport::FlowParams params{.id = id++, .src_host = src, .dst_host = 0,
                                           .stop = milliseconds(std::int64_t{400}),
                                           .service_queue = queue};
        topo.agent(0).add_receiver(params);
        topo.agent(src).add_sender(params).start();
      }
    }
    sim.run_until(milliseconds(std::int64_t{500}));
    out.fingerprint = sim.trajectory_fingerprint();
    out.events = sim.events_processed();
    out.bottleneck = topo.port_qdisc(0).stats();
    out.observed += hub.summary().enqueues + hub.queue_samples().size();
    return out;
  };
  const Outcome with = run(true);
  const Outcome without = run(false);

  EXPECT_GT(with.observed, 0u);
  EXPECT_EQ(without.observed, 0u);
  EXPECT_EQ(with.fingerprint, without.fingerprint) << "observation must not change the trajectory";
  EXPECT_EQ(with.events, without.events);
  EXPECT_EQ(with.bottleneck.enqueued, without.bottleneck.enqueued);
  EXPECT_EQ(with.bottleneck.evicted, without.bottleneck.evicted);
  EXPECT_EQ(with.bottleneck.dropped, without.bottleneck.dropped);
  EXPECT_EQ(with.bottleneck.dropped_by_policy, without.bottleneck.dropped_by_policy);
  EXPECT_EQ(with.bottleneck.dropped_port_full, without.bottleneck.dropped_port_full);
  EXPECT_EQ(with.bottleneck.marked, without.bottleneck.marked);
}

// ------------------------------------------------ hub vs qdisc stats -----

// A contended DynaQ star with the bottleneck port and the host NICs on a
// hub, as a harness static run observes them: the hub's counts must equal
// the bottleneck qdisc's own MqStats.
TEST(Telemetry, HarnessSummaryMatchesQdiscStats) {
  sim::Simulator sim;
  topo::StarConfig cfg;
  cfg.num_hosts = 4;
  cfg.buffer_bytes = 40'000;  // small buffer: force policy drops
  topo::StarTopology topo(sim, cfg);
  telemetry::Hub hub(sim);
  topo.fabric().port(0).attach_telemetry(hub, "sw.p0");
  for (int i = 0; i < topo.num_hosts(); ++i) {
    topo.host(i).nic().qdisc().attach_telemetry(hub, "h" + std::to_string(i) + ".nic");
  }
  std::uint64_t seen = 0;
  hub.subscribe([&seen](const telemetry::Event&) { ++seen; });
  std::uint32_t id = 1;
  for (int queue = 0; queue < 2; ++queue) {
    for (int src = 1; src < 4; ++src) {
      const transport::FlowParams params{.id = id++, .src_host = src, .dst_host = 0,
                                         .stop = seconds(std::int64_t{1}),
                                         .service_queue = queue};
      topo.agent(0).add_receiver(params);
      topo.agent(src).add_sender(params).start();
    }
  }
  sim.run_until(seconds(std::int64_t{1}));

  // The bottleneck port is the only MultiQueueQdisc attached to the hub, so
  // the event-bus aggregates must agree with its internal MqStats exactly.
  const net::MqStats& stats = topo.port_qdisc(0).stats();
  const auto s = hub.summary();
  EXPECT_EQ(s.enqueues, stats.enqueued);
  EXPECT_EQ(s.drops(DropReason::kThreshold) + s.drops(DropReason::kVictimUnsatisfied) +
                s.drops(DropReason::kVictimTooSmall),
            stats.dropped_by_policy);
  EXPECT_EQ(s.drops(DropReason::kPortFull), stats.dropped_port_full);
  EXPECT_GT(stats.dropped_by_policy, 0u) << "the small buffer must force policy drops";
  EXPECT_GT(s.threshold_exchanges, 0u) << "contended DynaQ run must exchange thresholds";
  EXPECT_GT(s.exchanged_bytes, 0);

  // Per-queue queueing delay collected at the bottleneck.
  ASSERT_GE(s.queue_delay.size(), 2u);
  for (int q = 0; q < 2; ++q) {
    const auto& d = s.queue_delay[static_cast<std::size_t>(q)];
    EXPECT_GT(d.count, 0u);
    EXPECT_GE(d.p99_us, d.p50_us);
    EXPECT_GE(d.max_us, d.p99_us);
    EXPECT_GT(d.p50_us, 0.0);
  }
  EXPECT_EQ(hub.port_name(0), "sw.p0");
  EXPECT_GT(seen, 0u);
}

// ------------------------------------------------ sweep integration ----

TEST(Telemetry, SweepJsonByteIdenticalAcrossWorkerCounts) {
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::labels("scheme", {"DynaQ", "BestEffort"}),
               sweep::Axis::numeric("seed", {1, 2})};
  const auto job = [](const sweep::JobPoint& p) -> sweep::JobResult {
    harness::DynamicStarConfig cfg;
    cfg.star.scheme.kind = core::parse_scheme(p.label("scheme"));
    cfg.num_flows = 60;
    cfg.load = 0.5;
    cfg.dist = &workload::web_search_workload();
    cfg.seed = static_cast<std::uint64_t>(p.number("seed"));
    auto r = harness::run_dynamic_star_experiment(cfg);
    return sweep::JobResult{{{"flows", static_cast<double>(r.fcts.count())},
                             {"drops", static_cast<double>(r.telemetry.total_drops())}},
                            std::move(r.telemetry)};
  };

  const auto s1 = sweep::SweepRunner(sweep::RunnerOptions{.jobs = 1}).run("tel", spec, job);
  const auto s3 = sweep::SweepRunner(sweep::RunnerOptions{.jobs = 3}).run("tel", spec, job);
  ASSERT_EQ(s1.failures(), 0u);
  ASSERT_EQ(s3.failures(), 0u);

  const std::string j1 = s1.to_json();
  EXPECT_EQ(j1, s3.to_json()) << "telemetry must not break sweep determinism";

  // schema_version 2: per-job telemetry block with the full drop taxonomy.
  EXPECT_NE(j1.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(j1.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(j1.find("\"threshold_exchanges\""), std::string::npos);
  EXPECT_NE(j1.find("\"victim_unsatisfied\""), std::string::npos);
  EXPECT_NE(j1.find("\"queue_delay\""), std::string::npos);

  for (const auto& o : s1.outcomes()) {
    ASSERT_TRUE(o.telemetry.has_value());
    EXPECT_GT(o.telemetry->enqueues, 0u);
  }
}

// ------------------------------------------------------ time series ----

TEST(QueueSeries, RespectsCapacityAndSkip) {
  telemetry::QueueSeries series(3, 2);
  for (int i = 0; i < 10; ++i) series.record(nanoseconds(i), {i}, {});
  ASSERT_EQ(series.samples().size(), 3u);
  EXPECT_EQ(series.samples()[0].queue_bytes[0], 2);  // first two skipped
  EXPECT_EQ(series.samples()[2].queue_bytes[0], 4);
  EXPECT_TRUE(series.full());
}

TEST(QueueSeries, KeepsThresholds) {
  telemetry::QueueSeries series(1, 0);
  series.record(0, {10, 20}, {100, 200});
  ASSERT_EQ(series.samples().size(), 1u);
  EXPECT_EQ(series.samples()[0].thresholds[1], 200);
}

TEST(QueueSeries, HubSamplingStopsAtCapacity) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  EXPECT_FALSE(hub.sampling_active()) << "capacity 0 means sampling is off";
  hub.enable_queue_sampling(2);
  EXPECT_TRUE(hub.sampling_active());
  const std::vector<std::int64_t> occ{100, 200};
  hub.sample(0, occ, {50, 50});
  hub.sample(1, occ, {50, 50});
  EXPECT_FALSE(hub.sampling_active());
  ASSERT_EQ(hub.queue_samples().size(), 2u);
  EXPECT_EQ(hub.queue_samples()[0].thresholds[1], 50);
}

}  // namespace
}  // namespace dynaq
