#include "replay.hpp"

#include <optional>

#include "alloc_counter.hpp"
#include "telemetry/hub.hpp"
#include "trace.hpp"

namespace perfbench {

std::string_view variant_name(ReplayVariant variant) {
  switch (variant) {
    case ReplayVariant::kPlain: return "plain";
    case ReplayVariant::kAudited: return "audited";
    case ReplayVariant::kTelemetry: return "telemetry";
  }
  return "?";
}

ReplayPass replay(const PortConfig& port, const std::vector<Op>& ops, ReplayVariant variant) {
  using namespace dynaq;
  sim::Simulator sim;
  core::SchemeSpec scheme = port.scheme;
  scheme.audit = variant == ReplayVariant::kAudited;
  auto qdisc = core::make_mq_qdisc(sim, port.weights, port.buffer_bytes, scheme,
                                   topo::make_scheduler(port.scheduler, port.quantum_base));
  std::optional<telemetry::Hub> hub;
  if (variant == ReplayVariant::kTelemetry) {
    hub.emplace(sim, telemetry::HubConfig{.enabled = true, .fingerprint = true});
    qdisc->attach_telemetry(*hub, "sw.replay");
  }

  ReplayPass pass;
  std::uint64_t rejected = 0;
  std::uint64_t aborted = 0;
  const std::uint64_t allocs_before = alloc::count();
  const Clock::time_point start = Clock::now();
  for (const Op& op : ops) {
    if (op.kind == OpKind::kDequeue) {
      const std::optional<net::Packet> p = qdisc->dequeue();
      if (!p || p->queue != op.queue || p->flow != op.flow) ++pass.mismatches;
      continue;
    }
    net::Packet p;
    p.flow = op.flow;
    p.size = op.size;
    p.flags = op.flags;
    p.queue = op.queue;
    if (qdisc->enqueue(std::move(p)) != (op.kind == OpKind::kAdmitted)) ++pass.mismatches;
    rejected += op.kind == OpKind::kRejected ? 1 : 0;
    aborted += op.kind == OpKind::kAborted ? 1 : 0;
  }
  pass.seconds = seconds_since(start);
  pass.allocations = alloc::count() - allocs_before;
  // Refusals must also split between policy and port bound as logged.
  const net::MqStats& stats = qdisc->stats();
  if (stats.dropped_by_policy != rejected || stats.dropped_port_full != aborted) {
    ++pass.mismatches;
  }
  return pass;
}

}  // namespace perfbench
