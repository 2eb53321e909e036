// Perf-regression harness for the event engine (DESIGN.md §9).
//
// Four workloads exercise the hot paths the models hit:
//   chain  — self-rescheduling tickers (steady-state ring insert/pop)
//   fanout — bulk out-of-order inserts across a wide horizon (overflow +
//            window rebuilds + staged-front sorts)
//   packet — tickers that capture a net::Packet by value (the serialization
//            / propagation hop closure; must never heap-allocate)
//   cancel — a ticker that arms and cancels a far-future decoy per event
//            (the retransmit-timer push-out pattern)
//
// Reports ns/event and events/sec (best of --reps passes) and the EventFn
// heap-fallback count, which must stay zero (the hot path is
// allocation-free). --assert-budget (used by ci.sh) fails the run when any
// workload exceeds its soft ns/event budget or a closure falls back to the
// heap.
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
// post-rewrite numbers (chain ~19, fanout ~150, packet ~27, cancel ~40),
// loose enough for a busy shared single-core machine, tight enough to
// catch a complexity regression. The hard gate is the heap-fallback
// count: any per-event allocation fails the run regardless of timing.
constexpr double kBudgetChainNs = 45.0;
constexpr double kBudgetFanoutNs = 400.0;
constexpr double kBudgetPacketNs = 65.0;
constexpr double kBudgetCancelNs = 95.0;

struct Measurement {
  double ns_per_event = 0;
  std::uint64_t heap_fallbacks = 0;
};

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

Measurement chain_pass(long n) {
  sim::Simulator sim;
  long remaining = n;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < 4; ++c) sim.schedule_in(nanoseconds(10 + c), Ticker{&sim, &remaining});
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return {secs(t0, t1) * 1e9 / static_cast<double>(n), sim.event_heap_fallbacks()};
}

Measurement fanout_pass(long width) {
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
  return {secs(t0, t1) * 1e9 / static_cast<double>(width), sim.event_heap_fallbacks()};
}

// Mirrors the Port::start_transmission closure shape — one context pointer
// plus a Packet by value (104 bytes, the largest inline-eligible capture;
// see the static_asserts in net/port.hpp).
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
static_assert(sim::EventFn::fits_inline<PacketHop>());

Measurement packet_pass(long n) {
  sim::Simulator sim;
  PacketChain chain{&sim, n};
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < 4; ++c) {
    sim.schedule_in(nanoseconds(120 + c),
                    PacketHop{&chain, net::make_data_packet(1, 0, 1, 0, 1460)});
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return {secs(t0, t1) * 1e9 / static_cast<double>(n), sim.event_heap_fallbacks()};
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

Measurement cancel_pass(long n) {
  sim::Simulator sim;
  long remaining = n;
  sim::EventId decoy = sim::kNoEvent;
  const auto t0 = std::chrono::steady_clock::now();
  sim.schedule_in(nanoseconds(10), CancelTicker{&sim, &remaining, &decoy});
  sim.run_until(milliseconds(std::int64_t{100}));  // the last decoy never fires
  const auto t1 = std::chrono::steady_clock::now();
  if (remaining > 0 || sim.events_cancelled() != static_cast<std::uint64_t>(n) - 1) std::abort();
  return {secs(t0, t1) * 1e9 / static_cast<double>(n), sim.event_heap_fallbacks()};
}

template <typename F>
Measurement best_of(F pass, int reps) {
  Measurement best = pass();
  for (int r = 1; r < reps; ++r) {
    const Measurement m = pass();
    if (m.ns_per_event < best.ns_per_event) best = m;
  }
  return best;
}

struct Row {
  const char* name;
  Measurement m;
  double budget_ns;
};

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const long events = cli.positive("events", 400'000);
  const long fanout_width = cli.positive("fanout-width", 100'000);
  const int reps = static_cast<int>(cli.positive("reps", 5));
  const bool assert_budget = cli.flag("assert-budget");

  std::puts("Event-engine microbench (DESIGN.md §9 perf-regression harness)");
  std::printf("(%ld events per pass, best of %d passes)\n\n", events, reps);

  const Row rows[] = {
      {"chain", best_of([&] { return chain_pass(events); }, reps), kBudgetChainNs},
      {"fanout", best_of([&] { return fanout_pass(fanout_width); }, reps), kBudgetFanoutNs},
      {"packet", best_of([&] { return packet_pass(events); }, reps), kBudgetPacketNs},
      {"cancel", best_of([&] { return cancel_pass(events); }, reps), kBudgetCancelNs},
  };

  std::printf("%-8s %12s %14s %14s\n", "workload", "ns/event", "Mevents/s", "heap-fallback");
  for (const Row& r : rows) {
    std::printf("%-8s %12.2f %14.2f %14llu\n", r.name, r.m.ns_per_event, 1e3 / r.m.ns_per_event,
                static_cast<unsigned long long>(r.m.heap_fallbacks));
  }

  if (assert_budget) {
    bool ok = true;
    for (const Row& r : rows) {
      if (r.m.ns_per_event > r.budget_ns) {
        std::fprintf(stderr, "FAIL: %s %.2f ns/event exceeds soft budget %.2f\n", r.name,
                     r.m.ns_per_event, r.budget_ns);
        ok = false;
      }
      if (r.m.heap_fallbacks != 0) {
        std::fprintf(stderr, "FAIL: %s made %llu heap-fallback allocations (want 0)\n", r.name,
                     static_cast<unsigned long long>(r.m.heap_fallbacks));
        ok = false;
      }
    }
    if (!ok) return 1;
    std::puts("\nPASS: all workloads within ns/event budgets, zero heap fallbacks");
  }
  return 0;
}
