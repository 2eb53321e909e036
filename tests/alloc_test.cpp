// Steady-state heap allocation of a switch port (DESIGN.md §9). After a
// warm-up, bursts through a DynaQ multi-queue qdisc allocate nothing under
// every scheduler; under the invariant audit they allocate exactly the two
// threshold copies the auditor takes per admit (BufferPolicy::thresholds()
// returns a vector). This binary replaces the global operator new to count
// every allocation the library makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/policies.hpp"
#include "core/scheme.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "sim/simulator.hpp"
#include "topo/scheduler_factory.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted(std::size_t size) {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so gcc does not pair an inlined free() with a new-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace dynaq {
namespace {

constexpr int kBurst = 40;
constexpr int kRounds = 200;
constexpr int kPatterns = 4;  // rounds repeat every kPatterns; warm-up runs each once

// One round: kBurst arrivals over four queues, most of them full-size into
// queue 0 so DynaQ exchanges thresholds for it, then kBurst dequeues, which
// empty the port. The burst never exceeds half the buffer, so the physical
// bound never rejects an admitted packet (no on_admit_aborted).
void run_round(net::MultiQueueQdisc& qd, int round) {
  const int pattern = round % kPatterns;
  for (int i = 0; i < kBurst; ++i) {
    const int q = i % 5 < 3 ? 0 : (i + pattern) % 4;
    const std::int32_t payload = q == 0 ? 1460 : 40 + (i * 37 + pattern * 11) % 1420;
    net::Packet p = net::make_data_packet(1, 0, 1, 0, payload);
    p.queue = static_cast<std::uint8_t>(q);
    qd.enqueue(std::move(p));
  }
  for (int i = 0; i < kBurst; ++i) (void)qd.dequeue();
}

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t admits = 0;  // enqueue attempts: each makes exactly one admit() call
};

Counted steady_state(net::MultiQueueQdisc& qd) {
  for (int r = 0; r < kPatterns; ++r) run_round(qd, r);
  const std::uint64_t before = g_allocations;
  for (int r = 0; r < kRounds; ++r) run_round(qd, r);
  return {g_allocations - before, static_cast<std::uint64_t>(kRounds) * kBurst};
}

std::unique_ptr<net::MultiQueueQdisc> dynaq_port(sim::Simulator& sim, topo::SchedulerKind kind,
                                                 bool audit) {
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQ;
  spec.audit = audit;
  return core::make_mq_qdisc(sim, {1.0, 1.0, 2.0, 4.0}, 120'000, spec,
                             topo::make_scheduler(kind));
}

class SteadyStateAllocation : public ::testing::TestWithParam<topo::SchedulerKind> {};

TEST_P(SteadyStateAllocation, UnauditedDynaQAllocatesNothing) {
  sim::Simulator sim;
  auto qd = dynaq_port(sim, GetParam(), /*audit=*/false);
  const Counted c = steady_state(*qd);
  EXPECT_EQ(c.allocations, 0u) << "over " << c.admits << " admits";
  EXPECT_EQ(qd->stats().dropped_port_full, 0u);
  EXPECT_GT(dynamic_cast<const core::DynaQPolicy&>(qd->policy()).threshold_adjustments(), 0u)
      << "the rounds must exercise Algorithm 1's threshold exchange";
  EXPECT_TRUE(qd->empty());
}

TEST_P(SteadyStateAllocation, AuditCostsTwoThresholdCopiesPerAdmit) {
  sim::Simulator sim;
  auto qd = dynaq_port(sim, GetParam(), /*audit=*/true);
  const Counted c = steady_state(*qd);
  EXPECT_EQ(c.allocations, 2 * c.admits);
  EXPECT_EQ(qd->stats().dropped_port_full, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SteadyStateAllocation,
                         ::testing::Values(topo::SchedulerKind::kFifo, topo::SchedulerKind::kSpq,
                                           topo::SchedulerKind::kDrr, topo::SchedulerKind::kWrr,
                                           topo::SchedulerKind::kSpqOverDrr),
                         [](const ::testing::TestParamInfo<topo::SchedulerKind>& info) {
                           std::string name(topo::scheduler_kind_name(info.param));
                           for (char& ch : name) {
                             if (ch == '/') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dynaq
