// Tests for the discrete-event engine: ordering, determinism, clock math.
#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dynaq {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(seconds(std::int64_t{1}), 1'000'000'000'000);
  EXPECT_EQ(milliseconds(std::int64_t{1}), 1'000'000'000);
  EXPECT_EQ(microseconds(std::int64_t{1}), 1'000'000);
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(std::int64_t{3})), 3.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(std::int64_t{7})), 7.0);
}

TEST(Time, FractionalConstructors) {
  EXPECT_EQ(seconds(0.5), 500'000'000'000);
  EXPECT_EQ(milliseconds(0.25), 250'000'000);
  EXPECT_EQ(microseconds(1.5), 1'500'000);
}

TEST(Time, TransmissionTime) {
  // 1500 B at 1 Gbps = 12 microseconds.
  EXPECT_EQ(transmission_time(1500, 1e9), microseconds(std::int64_t{12}));
  // 64 B at 100 Gbps = 5.12 ns, exact in picoseconds.
  EXPECT_EQ(transmission_time(64, 100e9), 5'120);
}

TEST(Simulator, ExecutesInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(30));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(nanoseconds(1), [&] {
    ++fired;
    sim.schedule_in(nanoseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), nanoseconds(2));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(nanoseconds(10), [&] { ++fired; });
  sim.schedule_at(nanoseconds(20), [&] { ++fired; });
  sim.run_until(nanoseconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(nanoseconds(25));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  sim::Simulator sim;
  sim.run_until(microseconds(std::int64_t{5}));
  EXPECT_EQ(sim.now(), microseconds(std::int64_t{5}));
}

TEST(Simulator, RunUntilLeavesClockAtDeadline) {
  sim::Simulator sim;
  Time later_fired_at = 0;
  sim.schedule_at(nanoseconds(10), [] {});
  sim.schedule_at(nanoseconds(20), [&] { later_fired_at = sim.now(); });
  sim.run_until(nanoseconds(15));
  EXPECT_EQ(sim.now(), nanoseconds(15)) << "a pending later event must not hold the clock back";
  sim.run_until(nanoseconds(25));
  EXPECT_EQ(later_fired_at, nanoseconds(20));
  EXPECT_EQ(sim.now(), nanoseconds(25));
  // stop() leaves the clock at the stopping event.
  sim.schedule_at(nanoseconds(30), [&] { sim.stop(); });
  sim.run_until(nanoseconds(40));
  EXPECT_EQ(sim.now(), nanoseconds(30));
}

TEST(Simulator, StopHaltsTheLoop) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(nanoseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(nanoseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  sim::Simulator sim;
  sim.schedule_at(nanoseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(nanoseconds(5), [] {}), std::logic_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  sim::Rng a(42);
  sim::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  sim::Rng a(1);
  sim::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  sim::Rng rng(11);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

}  // namespace
}  // namespace dynaq
