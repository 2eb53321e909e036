// Perf-regression harness for the event engine (DESIGN.md §9).
//
// Six workloads exercise the hot paths the models hit:
//   chain  — self-rescheduling tickers (steady-state ring insert/pop)
//   fanout — bulk out-of-order inserts across a wide horizon (overflow +
//            window rebuilds + staged-front sorts)
//   packet — tickers that capture a net::Packet by value (the serialization
//            / propagation hop closure)
//   cancel — a ticker that arms and cancels a far-future decoy per event
//            (the retransmit-timer push-out pattern)
//   skewed — 200 hop chains (one fire per 1.23 us, each scheduling a
//            delivery 10.65 us ahead) against 300 timers spread over
//            50 ms: the leaf-spine run's dense near-term head and far tail,
//            where a width fitted to the whole span turns the staged front
//            into a sorted vector of thousands of entries
//   wire   — 4 links firing every 12 us, each fire a delivery 125 us
//            ahead and each delivery an event 0.32 us ahead, against 250
//            far events over 4 s: the Fig. 8 star's shape, whose tens-of-ms
//            width stages every pending event in one bucket, so near-term
//            pushes land in front of ~45 staged entries
//
// Reports ns/event and events/sec (best of --reps passes). --assert-budget
// (used by ci.sh) fails the run when any workload exceeds its soft
// ns/event budget. Allocation-freedom needs no run-time gate: a closure
// too big for an event slot does not compile (sim::InlineCallable).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "harness/cli.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace dynaq;

namespace {

// Soft budgets (ns/event) for --assert-budget: ~2-2.5x the measured
// post-rewrite numbers (chain ~19, fanout ~150, packet ~27, cancel ~40,
// skewed ~40, wire ~20), loose enough for a busy shared single-core
// machine, tight enough to catch a complexity regression: a bucket width
// fitted to the whole span runs skewed at ~230.
constexpr double kBudgetChainNs = 45.0;
constexpr double kBudgetFanoutNs = 400.0;
constexpr double kBudgetPacketNs = 65.0;
constexpr double kBudgetCancelNs = 95.0;
constexpr double kBudgetSkewedNs = 80.0;
constexpr double kBudgetWireNs = 50.0;

double secs(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Ticker {
  sim::Simulator* sim;
  long* remaining;
  void operator()() const {
    if (--*remaining > 0) sim->schedule_in(nanoseconds(10), *this);
  }
};

double chain_pass(long n) {
  sim::Simulator sim;
  long remaining = n;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < 4; ++c) sim.schedule_in(nanoseconds(10 + c), Ticker{&sim, &remaining});
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return secs(t0, t1) * 1e9 / static_cast<double>(n);
}

double fanout_pass(long width) {
  sim::Simulator sim;
  sim::Rng rng(1);
  long fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < width; ++i) {
    sim.schedule_at(nanoseconds(rng.uniform_int(1, 1'000'000)), [&fired] { ++fired; });
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (fired != width) std::abort();
  return secs(t0, t1) * 1e9 / static_cast<double>(width);
}

// Mirrors the Port::start_transmission closure shape — one context pointer
// plus a Packet by value, the largest capture the models schedule.
struct PacketChain {
  sim::Simulator* sim;
  long remaining;
};

struct PacketHop {
  PacketChain* chain;
  net::Packet pkt;
  void operator()() const {
    if (--chain->remaining > 0) {
      net::Packet next = pkt;
      next.seq += static_cast<std::uint64_t>(next.payload);
      chain->sim->schedule_in(nanoseconds(120), PacketHop{chain, next});
    }
  }
};

double packet_pass(long n) {
  sim::Simulator sim;
  PacketChain chain{&sim, n};
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < 4; ++c) {
    sim.schedule_in(nanoseconds(120 + c),
                    PacketHop{&chain, net::make_data_packet(1, 0, 1, 0, 1460)});
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return secs(t0, t1) * 1e9 / static_cast<double>(n);
}

// Retransmit-timer pattern: every tick re-arms a decoy deadline far in the
// future, cancelling the previous one. Cost is charged per fired event
// (each tick = one fire + one cancel + two schedules).
struct CancelTicker {
  sim::Simulator* sim;
  long* remaining;
  sim::EventId* decoy;
  void operator()() const {
    if (*decoy != sim::kNoEvent && !sim->cancel(*decoy)) std::abort();
    *decoy = sim->schedule_in(milliseconds(std::int64_t{200}), [] { std::abort(); });
    if (--*remaining > 0) sim->schedule_in(nanoseconds(10), *this);
  }
};

double cancel_pass(long n) {
  sim::Simulator sim;
  long remaining = n;
  sim::EventId decoy = sim::kNoEvent;
  const auto t0 = std::chrono::steady_clock::now();
  sim.schedule_in(nanoseconds(10), CancelTicker{&sim, &remaining, &decoy});
  sim.run_until(milliseconds(std::int64_t{100}));  // the last decoy never fires
  const auto t1 = std::chrono::steady_clock::now();
  if (remaining > 0 || sim.events_cancelled() != static_cast<std::uint64_t>(n) - 1) std::abort();
  return secs(t0, t1) * 1e9 / static_cast<double>(n);
}

// One hop chain of the skewed workload: each fire schedules a delivery
// one link delay ahead and the chain's next fire one serialization later.
struct HopChain {
  sim::Simulator* sim;
  long* remaining;
  void operator()() const {
    sim->schedule_in(microseconds(10.65), [] {});
    if (--*remaining > 0) sim->schedule_in(microseconds(1.23), *this);
  }
};

// Cost is charged per fired event: chain fires, deliveries and timers.
double skewed_pass(long n) {
  sim::Simulator sim;
  sim::Rng rng(1);
  long remaining = n;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < 300; ++t) {
    sim.schedule_at(rng.uniform_int(0, milliseconds(std::int64_t{50})), [] {});
  }
  const Time period = microseconds(1.23);
  for (int c = 0; c < 200; ++c) sim.schedule_at(period * c / 200, HopChain{&sim, &remaining});
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return secs(t0, t1) * 1e9 / static_cast<double>(sim.events_processed());
}

// One link of the wire workload: each fire schedules a delivery one
// propagation delay ahead and the link's next fire one serialization
// later; each delivery schedules the next hop's event 0.32 us ahead.
struct WireLink {
  sim::Simulator* sim;
  long* remaining;
  void operator()() const {
    sim->schedule_in(microseconds(std::int64_t{125}),
                     [s = sim] { s->schedule_in(nanoseconds(320), [] {}); });
    if (--*remaining > 0) sim->schedule_in(microseconds(std::int64_t{12}), *this);
  }
};

// Cost is charged per fired event: link fires, deliveries, their
// follow-ups and the far events.
double wire_pass(long n) {
  sim::Simulator sim;
  sim::Rng rng(1);
  long remaining = n;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < 250; ++t) {
    sim.schedule_at(rng.uniform_int(0, seconds(std::int64_t{4})), [] {});
  }
  const Time period = microseconds(std::int64_t{12});
  for (int l = 0; l < 4; ++l) sim.schedule_at(period * l / 4, WireLink{&sim, &remaining});
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return secs(t0, t1) * 1e9 / static_cast<double>(sim.events_processed());
}

template <typename F>
double best_of(F pass, int reps) {
  double best = pass();
  for (int r = 1; r < reps; ++r) best = std::min(best, pass());
  return best;
}

struct Row {
  const char* name;
  double ns_per_event;
  double budget_ns;
};

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const long events = cli.positive("events", 400'000);
  const long fanout_width = cli.positive("fanout-width", 100'000);
  const int reps = static_cast<int>(cli.positive("reps", 5));
  const bool assert_budget = cli.flag("assert-budget");
  cli.reject_unknown();

  std::puts("Event-engine microbench (DESIGN.md §9 perf-regression harness)");
  std::printf("(%ld events per pass, best of %d passes)\n\n", events, reps);

  const Row rows[] = {
      {"chain", best_of([&] { return chain_pass(events); }, reps), kBudgetChainNs},
      {"fanout", best_of([&] { return fanout_pass(fanout_width); }, reps), kBudgetFanoutNs},
      {"packet", best_of([&] { return packet_pass(events); }, reps), kBudgetPacketNs},
      {"cancel", best_of([&] { return cancel_pass(events); }, reps), kBudgetCancelNs},
      {"skewed", best_of([&] { return skewed_pass(events); }, reps), kBudgetSkewedNs},
      {"wire", best_of([&] { return wire_pass(events); }, reps), kBudgetWireNs},
  };

  std::printf("%-8s %12s %14s\n", "workload", "ns/event", "Mevents/s");
  for (const Row& r : rows) {
    std::printf("%-8s %12.2f %14.2f\n", r.name, r.ns_per_event, 1e3 / r.ns_per_event);
  }

  if (assert_budget) {
    bool ok = true;
    for (const Row& r : rows) {
      if (r.ns_per_event > r.budget_ns) {
        std::fprintf(stderr, "FAIL: %s %.2f ns/event exceeds soft budget %.2f\n", r.name,
                     r.ns_per_event, r.budget_ns);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::puts("\nPASS: all workloads within ns/event budgets");
  }
  return 0;
}
