// Micro-benchmark of the telemetry fast path (DESIGN.md §8 overhead
// model): per-op cost of the DynaQ qdisc hot loop with (a) no hub attached
// — one null-pointer test per emission site, (b) a hub attached but
// disabled — one extra bool load, and (c) a hub enabled — the counter
// increments and delay histograms. Run with --assert-budget-ns N (used by
// ci.sh) to fail when the attached-disabled path costs more than N ns/op
// over the no-hub baseline; --ops / --reps scale the measurement.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/scheme.hpp"
#include "harness/cli.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "telemetry/hub.hpp"

using namespace dynaq;

namespace {

enum class HubMode { kNone, kDisabled, kEnabled };

// One measured pass over the DynaQ enqueue/dequeue hot loop; returns ns/op.
double measure(HubMode mode, long ops) {
  sim::Simulator sim;
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQ;
  auto qd = core::make_mq_qdisc(sim, std::vector<double>(8, 1.0), 192'000, spec,
                                std::make_unique<net::DrrScheduler>(1500));
  telemetry::Hub hub(sim, {.enabled = mode == HubMode::kEnabled});
  if (mode != HubMode::kNone) qd->attach_telemetry(hub, "sw.p0");

  std::uint64_t sink = 0;
  int q = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < ops; ++i) {
    net::Packet p = net::make_data_packet(1, 0, 1, 0, 1460);
    p.queue = static_cast<std::uint8_t>(q);
    sink += qd->enqueue(std::move(p)) ? 1 : 0;
    if (qd->backlog_bytes() > 150'000) {
      while (qd->backlog_bytes() > 50'000) sink += qd->dequeue() ? 1 : 0;
    }
    q = (q + 1) & 7;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 0) std::abort();  // keep the loop observable
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(ops);
}

// Minimum over reps — the standard noise filter for short hot loops.
double best_of(HubMode mode, long ops, int reps) {
  double best = measure(mode, ops);
  for (int r = 1; r < reps; ++r) {
    const double ns = measure(mode, ops);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const long ops = cli.positive("ops", 2'000'000);
  const int reps = static_cast<int>(cli.positive("reps", 5));
  const double budget_ns = static_cast<double>(cli.natural("assert-budget-ns", 0));
  cli.reject_unknown();

  std::puts("Telemetry fast-path overhead (DynaQ qdisc enqueue/dequeue hot loop)");
  std::printf("(%ld ops per pass, best of %d passes)\n\n", ops, reps);

  const double none_ns = best_of(HubMode::kNone, ops, reps);
  const double disabled_ns = best_of(HubMode::kDisabled, ops, reps);
  const double enabled_ns = best_of(HubMode::kEnabled, ops, reps);

  std::printf("no hub attached      : %8.2f ns/op\n", none_ns);
  std::printf("attached, disabled   : %8.2f ns/op  (+%.2f)\n", disabled_ns,
              disabled_ns - none_ns);
  std::printf("attached, enabled    : %8.2f ns/op  (+%.2f)\n", enabled_ns,
              enabled_ns - none_ns);

  if (budget_ns > 0) {
    const double overhead = disabled_ns - none_ns;
    if (overhead > budget_ns) {
      std::fprintf(stderr,
                   "FAIL: attached-disabled overhead %.2f ns/op exceeds budget %.2f ns/op\n",
                   overhead, budget_ns);
      return 1;
    }
    std::printf("\nPASS: attached-disabled overhead %.2f ns/op within budget %.2f ns/op\n",
                overhead, budget_ns);
  }
  return 0;
}
