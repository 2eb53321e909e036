// ECN marking schemes: the paper's comparison set (Per-Queue ECN, TCN,
// PMSB) plus MQ-ECN from related work. DynaQ's own ECN mode (§III-B3)
// *is* PMSB marking over a frozen-threshold shared buffer.
#pragma once

#include <cstdint>

#include "net/ecn_marker.hpp"
#include "sim/time.hpp"

namespace dynaq::core {

// Standard marking threshold K = C·RTT·λ, in bytes. The evaluation uses
// K=30 KB at 1 Gbps (DCTCP's experimentally best value on the testbed).
struct EcnConfig {
  std::int64_t port_threshold_bytes = 0;  // K
  double capacity_bps = 0.0;              // C  (MQ-ECN only)
  Time rtt = 0;                           // base RTT (MQ-ECN only)
  std::int64_t quantum_base = 1500;       // DRR quantum for weight 1 (MQ-ECN only)
  Time sojourn_threshold = 0;             // TCN: T = RTT·λ (e.g. 240 µs)
};

// Per-queue instantaneous marking: CE when q_i + size > K_i with
// K_i = K·w_i/Σw. The naive weighted split of the standard threshold.
class PerQueueEcnMarker final : public net::EcnMarker {
 public:
  explicit PerQueueEcnMarker(EcnConfig cfg) : cfg_(cfg) {}
  bool mark_on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  std::string_view name() const override { return "perqueue-ecn"; }

 private:
  EcnConfig cfg_;
};

// PMSB (Pan et al., ICDCS'18): per-port marking with selective blindness —
// CE only when the port occupancy exceeds K *and* the arriving packet's
// queue exceeds its weighted share K_i, simultaneously.
class PmsbEcnMarker final : public net::EcnMarker {
 public:
  explicit PmsbEcnMarker(EcnConfig cfg) : cfg_(cfg) {}
  bool mark_on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  std::string_view name() const override { return "pmsb"; }

 private:
  EcnConfig cfg_;
};

// TCN (Bai et al., CoNEXT'16): sojourn-time dequeue marking — CE when the
// packet spent longer than T = RTT·λ in the buffer. Works under any
// scheduler because it needs no notion of rounds.
class TcnEcnMarker final : public net::EcnMarker {
 public:
  explicit TcnEcnMarker(EcnConfig cfg) : cfg_(cfg) {}
  bool mark_on_dequeue(const net::MqState& state, int q, const net::Packet& p,
                       Time sojourn) override;
  std::string_view name() const override { return "tcn"; }

 private:
  EcnConfig cfg_;
};

// MQ-ECN (Bai et al., NSDI'16): K_i = min(quantum_i/T_round, C)·RTT·λ with
// λ = 1 (DCTCP's coefficient), where T_round is the (smoothed) time for the
// round-robin scheduler to serve every active queue once. We estimate
// T_round analytically from the backlogged set — Σ_active quantum_j · 8 / C
// — with an EWMA, which matches the published scheme's steady state without
// instrumenting the scheduler.
class MqEcnMarker final : public net::EcnMarker {
 public:
  explicit MqEcnMarker(EcnConfig cfg) : cfg_(cfg) {}
  bool mark_on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  Time smoothed_round() const { return t_round_; }
  std::string_view name() const override { return "mq-ecn"; }

 private:
  EcnConfig cfg_;
  Time t_round_ = 0;  // smoothed DRR round time
};

}  // namespace dynaq::core
