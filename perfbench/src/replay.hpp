// Whole-pass replays of one switch port's logged operation stream through
// a fresh multi-queue qdisc (core::make_mq_qdisc) with the port's scheme,
// weights, buffer and scheduler. The qdisc is built before the clock starts
// and destroyed after it stops, so a pass times enqueue/dequeue work alone.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "recorder.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class ReplayVariant {
  kPlain,      // audit off, no hub: the qdisc and buffer policy
  kAudited,    // under check::AuditedBufferPolicy
  kTelemetry,  // with an enabled, fingerprinting telemetry::Hub attached
};

std::string_view variant_name(ReplayVariant variant);

struct ReplayPass {
  double seconds = 0.0;           // the whole pass, steady clock
  std::uint64_t allocations = 0;  // global operator new calls during the pass
  // Admit, drop and dequeue decisions that differ from the log (must be 0).
  std::uint64_t mismatches = 0;
};

ReplayPass replay(const PortConfig& port, const std::vector<Op>& ops, ReplayVariant variant);

}  // namespace perfbench
