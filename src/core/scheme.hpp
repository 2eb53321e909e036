// Scheme catalogue: one-stop construction of every buffer-management /
// ECN configuration evaluated in the paper, as a (BufferPolicy, EcnMarker)
// pair installed into a MultiQueueQdisc.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/dynaq_controller.hpp"
#include "core/ecn_markers.hpp"
#include "core/policies.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/scheduler.hpp"
#include "sim/simulator.hpp"

namespace dynaq::core {

enum class SchemeKind {
  kDynaQ,             // the paper's contribution (drop-based)
  kDynaQEvict,        // extension: DynaQ + BarberQ-style tail eviction
  kBestEffort,        // shared buffer, physical bound only
  kPql,               // static per-queue quota
  kDynamicThreshold,  // classic DT (ablation)
  kLongestQueueDrop,  // LQD push-out (1.5-competitive; oracle baseline)
  kHarmonic,          // Harmonic rank caps ((2+ln n)-competitive; oracle baseline)
  kDynaQEcn,          // DynaQ with ECN transports: frozen thresholds + PMSB marking
  kTcn,               // shared buffer + sojourn-time dequeue marking
  kPmsb,              // shared buffer + port∧queue marking
  kPerQueueEcn,       // shared buffer + per-queue weighted-K marking
  kMqEcn,             // shared buffer + round-time-normalized marking
};

// Every kind, in declaration order.
inline constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kDynaQ,    SchemeKind::kDynaQEvict,       SchemeKind::kBestEffort,
    SchemeKind::kPql,      SchemeKind::kDynamicThreshold, SchemeKind::kLongestQueueDrop,
    SchemeKind::kHarmonic, SchemeKind::kDynaQEcn,         SchemeKind::kTcn,
    SchemeKind::kPmsb,     SchemeKind::kPerQueueEcn,      SchemeKind::kMqEcn};

// Human-readable name (also accepted by parse_scheme).
std::string_view scheme_name(SchemeKind kind);
SchemeKind parse_scheme(std::string_view name);
bool scheme_uses_ecn(SchemeKind kind);

struct SchemeSpec {
  SchemeKind kind = SchemeKind::kDynaQ;
  EcnConfig ecn;                     // for the ECN-based kinds
  double dt_alpha = 1.0;             // kDynamicThreshold
  DynaQPolicy::Options dynaq;        // ablation knobs for kDynaQ
  // User extension point: when set, make_mq_qdisc calls this factory for
  // the buffer policy instead of building one from `kind` (one instance per
  // switch port). `kind` still selects the ECN marker, if any. The factory
  // gets the port's simulator, so a policy may schedule its own events —
  // the dynaq::ctrlplane shim runs its update/watchdog timers on it.
  std::function<std::unique_ptr<net::BufferPolicy>(sim::Simulator&)> custom_policy_sim;
  // Wrap the policy in check::AuditedBufferPolicy (default options:
  // fail-fast) so every admission/eviction/rollback is verified against
  // the buffer-policy contract (DESIGN.md §6). harness::run_*_experiment
  // turns this on by default.
  bool audit = false;
};

// Builds the buffer policy for `spec.kind` (BestEffort for all pure-ECN
// schemes, since they manage a shared buffer and only differ in marking).
std::unique_ptr<net::BufferPolicy> make_policy(const SchemeSpec& spec);

// Builds the ECN marker for `spec`, or nullptr for drop-based schemes.
std::unique_ptr<net::EcnMarker> make_marker(const SchemeSpec& spec);

// Convenience: a fully configured multi-queue egress buffer.
std::unique_ptr<net::MultiQueueQdisc> make_mq_qdisc(
    sim::Simulator& sim, std::vector<double> weights, std::int64_t buffer_bytes,
    const SchemeSpec& spec, std::unique_ptr<net::SchedulerPolicy> scheduler);

}  // namespace dynaq::core
