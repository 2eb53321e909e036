#include "core/scheme.hpp"

#include <stdexcept>

namespace dynaq::core {

std::string_view scheme_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kDynaQ: return "DynaQ";
    case SchemeKind::kDynaQEvict: return "DynaQ+Evict";
    case SchemeKind::kBestEffort: return "BestEffort";
    case SchemeKind::kPql: return "PQL";
    case SchemeKind::kDynamicThreshold: return "DT";
    case SchemeKind::kLongestQueueDrop: return "LQD";
    case SchemeKind::kHarmonic: return "Harmonic";
    case SchemeKind::kDynaQEcn: return "DynaQ+ECN";
    case SchemeKind::kTcn: return "TCN";
    case SchemeKind::kPmsb: return "PMSB";
    case SchemeKind::kPerQueueEcn: return "PerQueueECN";
    case SchemeKind::kMqEcn: return "MQ-ECN";
  }
  return "?";
}

SchemeKind parse_scheme(std::string_view name) {
  for (const SchemeKind k : kAllSchemes) {
    if (name == scheme_name(k)) return k;
  }
  throw std::invalid_argument("unknown scheme: " + std::string(name));
}

bool scheme_uses_ecn(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kDynaQEcn:
    case SchemeKind::kTcn:
    case SchemeKind::kPmsb:
    case SchemeKind::kPerQueueEcn:
    case SchemeKind::kMqEcn:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<net::BufferPolicy> make_policy(const SchemeSpec& spec) {
  switch (spec.kind) {
    case SchemeKind::kDynaQ:
      return std::make_unique<DynaQPolicy>(spec.dynaq);
    case SchemeKind::kDynaQEvict:
      return std::make_unique<DynaQEvictPolicy>(spec.dynaq);
    case SchemeKind::kPql:
      return std::make_unique<PqlPolicy>();
    case SchemeKind::kDynamicThreshold:
      return std::make_unique<DynamicThresholdPolicy>(spec.dt_alpha);
    case SchemeKind::kLongestQueueDrop:
      return std::make_unique<LongestQueueDropPolicy>();
    case SchemeKind::kHarmonic:
      return std::make_unique<HarmonicPolicy>();
    case SchemeKind::kBestEffort:
    case SchemeKind::kDynaQEcn:  // §III-B3: thresholds frozen, buffer shared
    case SchemeKind::kTcn:
    case SchemeKind::kPmsb:
    case SchemeKind::kPerQueueEcn:
    case SchemeKind::kMqEcn:
      return std::make_unique<BestEffortPolicy>();
  }
  throw std::logic_error("unhandled scheme kind");
}

std::unique_ptr<net::EcnMarker> make_marker(const SchemeSpec& spec) {
  switch (spec.kind) {
    case SchemeKind::kDynaQEcn:
    case SchemeKind::kPmsb:
      return std::make_unique<PmsbEcnMarker>(spec.ecn);
    case SchemeKind::kTcn:
      return std::make_unique<TcnEcnMarker>(spec.ecn);
    case SchemeKind::kPerQueueEcn:
      return std::make_unique<PerQueueEcnMarker>(spec.ecn);
    case SchemeKind::kMqEcn:
      return std::make_unique<MqEcnMarker>(spec.ecn);
    default:
      return nullptr;
  }
}

std::unique_ptr<net::MultiQueueQdisc> make_mq_qdisc(
    sim::Simulator& sim, std::vector<double> weights, std::int64_t buffer_bytes,
    const SchemeSpec& spec, std::unique_ptr<net::SchedulerPolicy> scheduler) {
  std::unique_ptr<net::BufferPolicy> policy =
      spec.custom_policy_sim ? spec.custom_policy_sim(sim) : make_policy(spec);
  if (spec.audit) {
    policy = std::make_unique<check::AuditedBufferPolicy>(std::move(policy), &sim);
  }
  return std::make_unique<net::MultiQueueQdisc>(sim, std::move(weights), buffer_bytes,
                                                std::move(policy), std::move(scheduler),
                                                make_marker(spec));
}

}  // namespace dynaq::core
