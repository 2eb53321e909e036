// Kitchen-sink chaos tests: everything at once — mixed transports, PIAS,
// eviction, runtime buffer resizes, lossy links and ECMP — asserting the
// system stays consistent and every flow eventually completes.
#include <gtest/gtest.h>

#include <memory>

#include "harness/dynamic_experiment.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/star.hpp"
#include "transport/host_agent.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

TEST(Chaos, MixedTransportsWithRuntimeResizes) {
  sim::Simulator sim;
  sim::Rng rng(99);
  topo::StarConfig cfg;
  cfg.num_hosts = 9;
  cfg.queue_weights = {1, 2, 1, 2};
  cfg.scheme.kind = core::SchemeKind::kDynaQEvict;
  cfg.scheduler = topo::SchedulerKind::kDrr;
  topo::StarTopology topo(sim, cfg);

  // 40 finite flows with mixed CC kinds, mixed sizes, mixed queues.
  const transport::CcKind kinds[] = {transport::CcKind::kNewReno, transport::CcKind::kCubic,
                                     transport::CcKind::kNewRenoEcn, transport::CcKind::kDctcp};
  int completed = 0;
  for (std::uint32_t id = 1; id <= 40; ++id) {
    transport::FlowParams params;
    params.id = id;
    params.src_host = 1 + static_cast<int>(rng.uniform_int(0, 7));
    params.dst_host = 0;
    params.size_bytes = rng.uniform_int(2'000, 2'000'000);
    params.start = milliseconds(static_cast<std::int64_t>(rng.uniform_int(0, 50)));
    params.service_queue = static_cast<int>(rng.uniform_int(0, 3));
    params.cc = kinds[id % 4];
    params.pias = id % 3 == 0;
    params.initial_srtt = microseconds(std::int64_t{525});
    auto& rx = topo.agent(0).add_receiver(params);
    rx.on_complete = [&completed](const transport::FlowReceiver&) { ++completed; };
    topo.agent(params.src_host).add_sender(params).start();
  }

  // Resize the bottleneck buffer every 20 ms while traffic runs.
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(milliseconds(static_cast<std::int64_t>(20 * i)), [&topo, &rng] {
      topo.port_qdisc(0).resize_buffer(rng.uniform_int(40'000, 170'000));
    });
  }

  sim.run_until(seconds(std::int64_t{60}));
  EXPECT_EQ(completed, 40) << "every flow must complete despite the churn";
  // The DynaQ invariant must have survived all resizes.
  const auto& policy = dynamic_cast<const core::DynaQPolicy&>(topo.port_qdisc(0).policy());
  EXPECT_EQ(policy.controller().threshold_sum(), topo.port_qdisc(0).state().buffer_bytes);
}

TEST(Chaos, LeafSpineSurvivesHotspotAndIncast) {
  // 3x3 fabric; every host fires a burst at one victim host while
  // background traffic runs — ECMP, SPQ/DRR and DynaQ all engaged.
  sim::Simulator sim;
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 3;
  cfg.num_spines = 3;
  cfg.hosts_per_leaf = 3;
  cfg.queue_weights = {1, 1, 1, 1};
  cfg.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.scheduler = topo::SchedulerKind::kSpqOverDrr;
  topo::LeafSpineTopology topo(sim, cfg);

  int completed = 0;
  std::uint32_t id = 1;
  auto flow = [&](int src, int dst, std::int64_t bytes, Time start, int queue) {
    transport::FlowParams params;
    params.id = id++;
    params.src_host = src;
    params.dst_host = dst;
    params.size_bytes = bytes;
    params.start = start;
    params.service_queue = queue;
    params.rto_min = milliseconds(std::int64_t{5});
    params.initial_srtt = microseconds(std::int64_t{90});
    auto& rx = topo.agent(dst).add_receiver(params);
    rx.on_complete = [&completed](const transport::FlowReceiver&) { ++completed; };
    topo.agent(src).add_sender(params).start();
  };

  int launched = 0;
  // Background: ring of medium flows.
  for (int h = 0; h < 9; ++h) {
    flow(h, (h + 4) % 9, 400'000, 0, 1 + h % 3);
    ++launched;
  }
  // Incast: everyone sends 50 KB to host 4 at t=5ms.
  for (int h = 0; h < 9; ++h) {
    if (h == 4) continue;
    flow(h, 4, 50'000, milliseconds(std::int64_t{5}), 1 + h % 3);
    ++launched;
  }
  sim.run_until(seconds(std::int64_t{30}));
  EXPECT_EQ(completed, launched);
  for (const auto* qd : topo.all_qdiscs()) {
    // Byte accounting must be clean everywhere after the storm.
    std::int64_t bytes = 0;
    for (const auto& q : qd->state().queues) bytes += q.bytes;
    EXPECT_EQ(bytes, qd->backlog_bytes());
  }
}

TEST(Chaos, AllSchemesCompleteTheSameWorkload) {
  // Same 300-flow workload through every scheme: completion is mandatory,
  // whatever the drop/mark policy does.
  for (const auto kind :
       {core::SchemeKind::kDynaQ, core::SchemeKind::kDynaQEvict, core::SchemeKind::kBestEffort,
        core::SchemeKind::kPql, core::SchemeKind::kDynamicThreshold, core::SchemeKind::kDynaQEcn,
        core::SchemeKind::kTcn, core::SchemeKind::kPmsb, core::SchemeKind::kPerQueueEcn,
        core::SchemeKind::kMqEcn}) {
    harness::DynamicStarConfig cfg;
    cfg.star.num_hosts = 5;
    cfg.star.queue_weights = {1, 1, 1, 1, 1};
    cfg.star.scheme.kind = kind;
    cfg.star.scheme.ecn.port_threshold_bytes = 30'000;
    cfg.star.scheme.ecn.sojourn_threshold = microseconds(std::int64_t{240});
    cfg.star.scheme.ecn.capacity_bps = 1e9;
    cfg.star.scheme.ecn.rtt = microseconds(std::int64_t{500});
    cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
    cfg.num_flows = 300;
    cfg.load = 0.6;
    cfg.dist = &workload::web_search_workload();
    cfg.cc = core::scheme_uses_ecn(kind) ? transport::CcKind::kDctcp
                                         : transport::CcKind::kNewReno;
    cfg.seed = 13;
    const auto r = harness::run_dynamic_star_experiment(cfg);
    EXPECT_EQ(r.incomplete, 0u) << core::scheme_name(kind);
    EXPECT_EQ(r.fcts.count(), 300u) << core::scheme_name(kind);
  }
}

}  // namespace
}  // namespace dynaq
