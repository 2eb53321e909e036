// Buffer-management policies: DynaQ and every baseline the paper compares
// against or discusses in related work.
#pragma once

#include <cstdint>
#include <memory>

#include "core/dynaq_controller.hpp"
#include "net/buffer_policy.hpp"
#include "net/shared_memory.hpp"

namespace dynaq::core {

// Best-effort shared buffer (the "BestEffort" baseline): any queue may fill
// the port buffer; admission is purely the physical bound, which the port
// already enforces, so this policy always says yes.
class BestEffortPolicy final : public net::BufferPolicy {
 public:
  bool admit(const net::MqState& state, int q, const net::Packet& p) override {
    (void)state, (void)q, (void)p;
    return true;
  }
  std::string_view name() const override { return "besteffort"; }
};

// Per-Queue Length limit (PQL): a static buffer quota B·w_i/Σw per queue.
// Fair but not work-conserving — the paper's second baseline.
class PqlPolicy final : public net::BufferPolicy {
 public:
  void attach(const net::MqState& state) override;
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  std::vector<std::int64_t> thresholds() const override { return quotas_; }
  // Static quotas are always enforced; they floor to B·w_i/Σw so their sum
  // may fall short of B — no conservation claim.
  bool enforces_thresholds() const override { return true; }
  std::string_view name() const override { return "pql"; }

 private:
  std::vector<std::int64_t> quotas_;
};

// Classic Dynamic Threshold (Choudhury & Hahne) applied per service queue:
// T(t) = alpha · (B − Σq). Discussed in §II-C as insufficient for per-queue
// fairness; implemented for the ablation bench.
class DynamicThresholdPolicy final : public net::BufferPolicy {
 public:
  // With `pool` set, thresholds derive from the chip-wide free memory
  // (T = alpha * pool free) instead of the port's free share — the
  // shared-buffer switch configuration §II-C warns about.
  explicit DynamicThresholdPolicy(double alpha = 1.0,
                                  const net::SharedMemoryPool* pool = nullptr)
      : alpha_(alpha), pool_(pool) {}
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  std::string_view name() const override { return "dt"; }

 private:
  double alpha_;
  const net::SharedMemoryPool* pool_;
};

// Longest-Queue-Drop (Matsakis; 1.5-competitive for shared-buffer output
// queueing — the literature yardstick bench/abl_competitive measures
// against): admit every arrival, and when the buffer is physically full
// push out tail packets of the longest queue. If the arriving queue itself
// would be the longest, the arrival is dropped instead (surfacing as a
// port_full drop, since the policy did admit it).
class LongestQueueDropPolicy final : public net::BufferPolicy {
 public:
  bool admit(const net::MqState& state, int q, const net::Packet& p) override {
    (void)state, (void)q, (void)p;
    return true;
  }
  int evict_candidate(const net::MqState& state, int q, const net::Packet& p) override;
  // No thresholds at all: admission is the physical bound plus push-out, so
  // there is no ΣT = B sum to conserve and nothing to enforce.
  bool conserves_threshold_sum() const override { return false; }
  bool enforces_thresholds() const override { return false; }
  std::string_view name() const override { return "lqd"; }
};

// The Harmonic policy (Addanki, Pacut & Schmid; (2 + ln n)-competitive):
// the i-th longest queue may hold at most B / (i · H_n) bytes, H_n the n-th
// harmonic number — the longest queue gets the biggest cap, so the caps sum
// to B while still guaranteeing every queue a share. Ranks are recomputed
// per admission, deterministically (bytes descending, index ascending).
class HarmonicPolicy final : public net::BufferPolicy {
 public:
  void attach(const net::MqState& state) override;
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  void on_buffer_resize(const net::MqState& state) override { attach(state); }
  void on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  void on_dequeue(const net::MqState& state, int q, const net::Packet& p) override;
  std::vector<std::int64_t> thresholds() const override;
  // Caps floor to B/(i·H_n), so their sum falls (slightly) short of B — no
  // conservation claim; admission, though, is exactly q_p + size ≤ T_p.
  bool conserves_threshold_sum() const override { return false; }
  bool enforces_thresholds() const override { return true; }
  std::string_view name() const override { return "harmonic"; }

 private:
  // Cap for the queue currently ranked `rank` (1-based; rank 1 = longest).
  std::int64_t cap_for_rank(int rank) const;
  // 1-based rank of queue q under (bytes desc, index asc) — deterministic.
  int rank_of(const std::vector<std::int64_t>& lengths, int q) const;

  std::int64_t buffer_bytes_ = 0;
  double harmonic_n_ = 1.0;             // H_n for the attached queue count
  std::vector<std::int64_t> lengths_;   // mirror of per-queue occupancy, so
                                        // thresholds() works without state
};

// DynaQ: dynamic packet-dropping thresholds per Algorithm 1, delegating to
// the pure DynaQController.
class DynaQPolicy : public net::BufferPolicy {
 public:
  // The controller's weights/buffer are taken from the port state at
  // attach() time; `options` carries the ablation knobs.
  struct Options {
    VictimSelection victim = VictimSelection::kLargestExtra;
    SatisfactionRule satisfaction = SatisfactionRule::kBufferShare;
    std::int64_t bdp_bytes = 0;
    // Tofino/TNA emulation (§IV-A2 of the paper): the ingress pipeline
    // cannot read live queue depths; it sees the `deq_qdepth` of the last
    // dequeued packet, fed back through an extern register. With this set,
    // Algorithm 1 runs on those stale per-queue lengths instead of the
    // true occupancy — the abl_tna_staleness bench quantifies the paper's
    // claim that the inaccuracy is tolerable under round-robin scheduling.
    bool stale_queue_info = false;
  };

  DynaQPolicy() = default;
  explicit DynaQPolicy(Options options) : options_(options) {}

  void attach(const net::MqState& state) override;
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  void on_admit_aborted(const net::MqState& state, int q, const net::Packet& p) override;
  // §III-B3: re-initialize all thresholds from the new B via Eq. (1).
  void on_buffer_resize(const net::MqState& state) override {
    controller_->reinitialize(state.buffer_bytes);
  }
  // Scenario weight_update (DESIGN.md §11): rebalance ΣT = B under the new
  // weights without rebuilding the controller (the TNA stale-depth feedback
  // in stale_qlen_ survives the rebalance).
  void on_weights_changed(const net::MqState& state) override;
  // TNA emulation: record deq_qdepth at dequeue time.
  void on_dequeue(const net::MqState& state, int q, const net::Packet& p) override;
  std::vector<std::int64_t> thresholds() const override;
  // ΣT = B is Algorithm 1's core invariant; admission is threshold-enforced
  // (DESIGN.md §4), but TNA staleness makes the live q_p + size ≤ T_p
  // recheck unsound (Algorithm 1 then sees stale depths).
  bool conserves_threshold_sum() const override { return true; }
  bool enforces_thresholds() const override { return !options_.stale_queue_info; }
  // Telemetry: Algorithm 1's drop causes map one-to-one onto the event
  // taxonomy (DESIGN.md §8); exchanges surface as the borrowed-from queue.
  telemetry::DropReason last_drop_reason() const override { return last_drop_reason_; }
  int last_exchange_victim() const override { return last_exchange_victim_; }
  std::string_view name() const override { return "dynaq"; }

  const DynaQController& controller() const { return *controller_; }
  DynaQController& controller() { return *controller_; }
  std::uint64_t threshold_adjustments() const { return adjustments_; }

 private:
  Options options_;
  std::unique_ptr<DynaQController> controller_;
  std::uint64_t adjustments_ = 0;
  std::vector<std::int64_t> stale_qlen_;  // last deq_qdepth per queue (TNA mode)
  telemetry::DropReason last_drop_reason_ = telemetry::DropReason::kThreshold;
  int last_exchange_victim_ = -1;
};

// DynaQ with packet eviction (extension; the BarberQ idea from the paper's
// related work): when an admitted packet does not physically fit because
// other queues pinned the port full, evict a tail packet from the active
// queue holding the most buffer beyond its satisfaction threshold.
// Removes the port-full starvation races that tail small-flow FCTs under
// plain DynaQ (see bench/abl_eviction).
class DynaQEvictPolicy final : public DynaQPolicy {
 public:
  DynaQEvictPolicy() = default;
  explicit DynaQEvictPolicy(Options options) : DynaQPolicy(options) {}

  int evict_candidate(const net::MqState& state, int q, const net::Packet& p) override;
  std::string_view name() const override { return "dynaq+evict"; }
};

}  // namespace dynaq::core
