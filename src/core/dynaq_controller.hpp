// DynaQ threshold controller — the paper's Algorithm 1 as a pure,
// simulator-independent component.
//
// Each service queue i owns a packet-dropping threshold T_i with the global
// invariant ΣT_i = B. On an arrival to queue p that would exceed T_p, the
// controller finds the victim queue v with the largest extra buffer
// T_v^ex = T_v − S_v (S_i = B·w_i/Σw is the satisfaction threshold) and
// either exchanges size(P) of threshold from v to p, or drops the packet if
// the victim cannot give buffer without dipping below its own satisfaction
// threshold while active.
//
// Keeping this logic free of any net/ dependency lets the unit tests and
// the ASIC-cost micro-benchmark exercise Algorithm 1 directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dynaq::core {

// How the victim queue is chosen. The paper argues for kLargestExtra
// (respects weights); kLargestThreshold is the strawman it rejects,
// retained for the ablation bench.
enum class VictimSelection {
  kLargestExtra,
  kLargestThreshold,
};

// How S_i is derived. The paper uses the full weighted buffer share
// (kBufferShare, Eq. 3) after observing that the theoretically sufficient
// weighted BDP (kWeightedBdp) leaves no headroom for threshold fluctuation.
enum class SatisfactionRule {
  kBufferShare,   // S_i = B · w_i / Σw          (Eq. 3)
  kWeightedBdp,   // S_i = C·RTT · w_i / Σw      (ablation, needs bdp_bytes)
};

struct DynaQConfig {
  std::int64_t buffer_bytes = 0;        // port buffer size B
  std::vector<double> weights;          // one per service queue
  VictimSelection victim = VictimSelection::kLargestExtra;
  SatisfactionRule satisfaction = SatisfactionRule::kBufferShare;
  std::int64_t bdp_bytes = 0;           // only for SatisfactionRule::kWeightedBdp
};

enum class Verdict {
  kAdmit,     // below threshold — nothing done (Alg. 1 line 1 false)
  kAdjusted,  // thresholds exchanged, packet may be enqueued (lines 6-7)
  kDrop,      // victim protection triggered (line 4), or the threshold recheck
};

// Why the most recent on_arrival() returned kDrop — the drop taxonomy the
// telemetry layer reports. kThreshold covers the cases where no usable
// exchange exists at all (no victim queue, or the threshold recheck
// rejected the packet even after borrowing).
enum class DropCause {
  kNone,                // last verdict was not kDrop
  kThreshold,           // no victim / threshold recheck: arrival exceeds T_p
  kVictimTooSmall,      // line 3a: T_v < size, victim cannot give that much
  kVictimUnsatisfied,   // line 3b: active victim would dip below S_v
};

class DynaQController {
 public:
  explicit DynaQController(DynaQConfig config);

  // Runs Algorithm 1 for a packet of `size` bytes arriving to queue `p`,
  // given the current per-queue occupancies (`queue_bytes[i]` = q_i).
  Verdict on_arrival(std::span<const std::int64_t> queue_bytes, int p, std::int32_t size);

  // Rolls back the threshold exchange performed by the most recent
  // on_arrival() that returned kAdjusted. Used when the switch's physical
  // buffer bound rejects the packet after the policy admitted it; calling
  // it at any other time is a no-op.
  void undo_last_exchange();

  // Re-initializes all thresholds to T_i = B·w_i/Σw (Eq. 1); also used when
  // the operator resizes the port buffer (§III-B3).
  void reinitialize(std::int64_t buffer_bytes);

  // Installs new per-queue weights mid-run (scenario weight_update,
  // DESIGN.md §11) and rebalances via Eq. (1)/(3) — the analogue of the
  // §III-B3 resize path along the weight axis. The proportional split
  // assigns the rounding remainder deterministically, so ΣT = B holds
  // exactly after the rebalance; any pending undo_last_exchange() snapshot
  // is invalidated (there is nothing meaningful left to undo).
  void set_weights(const std::vector<double>& weights);

  int num_queues() const { return static_cast<int>(thresholds_.size()); }
  std::int64_t buffer_bytes() const { return buffer_bytes_; }
  std::int64_t threshold(int i) const { return thresholds_[static_cast<std::size_t>(i)]; }
  std::span<const std::int64_t> thresholds() const { return thresholds_; }
  std::int64_t satisfaction(int i) const { return satisfaction_[static_cast<std::size_t>(i)]; }
  std::int64_t extra(int i) const { return threshold(i) - satisfaction(i); }

  // Queue i is satisfied iff T_i >= S_i (footnote 1 of the paper).
  bool satisfied(int i) const { return threshold(i) >= satisfaction(i); }

  // Introspection for the telemetry layer: why the most recent on_arrival()
  // dropped, and which queue the most recent (not yet undone) exchange
  // borrowed from (-1 when the last arrival made no exchange).
  DropCause last_drop_cause() const { return last_drop_cause_; }
  int last_victim() const { return last_p_ >= 0 ? last_v_ : -1; }

  // ΣT_i; equals buffer_bytes() at all times (checked by tests).
  std::int64_t threshold_sum() const;

  // Victim search: index of the queue (≠ p) with the largest extra buffer.
  // Exposed publicly so tests and the micro-bench can cross-check the
  // loop-free tournament against the linear reference.
  int find_victim_tournament(int p) const;
  int find_victim_linear(int p) const;

 private:
  std::int64_t victim_key(int i) const {
    return config_.victim == VictimSelection::kLargestExtra ? extra(i) : threshold(i);
  }

  DynaQConfig config_;
  std::int64_t buffer_bytes_ = 0;
  std::vector<std::int64_t> thresholds_;
  std::vector<std::int64_t> satisfaction_;

  // Most recent exchange, for undo_last_exchange().
  int last_p_ = -1;
  int last_v_ = -1;
  std::int32_t last_size_ = 0;
  DropCause last_drop_cause_ = DropCause::kNone;
};

}  // namespace dynaq::core
