#include "core/dynaq_controller.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dynaq::core {
namespace {

// Splits `total` proportionally to `weights`, assigning the rounding
// remainder to the largest-weight entry so the parts always sum to `total`
// exactly — Eq. (1)/(3) need ΣT_i = B as a hard invariant.
std::vector<std::int64_t> proportional_split(std::int64_t total,
                                             std::span<const double> weights) {
  double sum_w = 0.0;
  for (double w : weights) sum_w += w;
  std::vector<std::int64_t> parts(weights.size());
  std::int64_t assigned = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    parts[i] = static_cast<std::int64_t>(
        std::floor(static_cast<double>(total) * weights[i] / sum_w));
    assigned += parts[i];
    if (weights[i] > weights[largest]) largest = i;
  }
  parts[largest] += total - assigned;
  return parts;
}

}  // namespace

DynaQController::DynaQController(DynaQConfig config) : config_(std::move(config)) {
  if (config_.buffer_bytes <= 0) throw std::invalid_argument("buffer_bytes must be positive");
  if (config_.weights.empty()) throw std::invalid_argument("need at least one queue");
  if (config_.weights.size() > 64) {
    // Real switch ASICs expose 4-8 service queues per port; the fixed-depth
    // tournament buffer supports up to 64.
    throw std::invalid_argument("at most 64 service queues supported");
  }
  for (double w : config_.weights) {
    if (w <= 0.0) throw std::invalid_argument("weights must be positive");
  }
  if (config_.satisfaction == SatisfactionRule::kWeightedBdp && config_.bdp_bytes <= 0) {
    throw std::invalid_argument("kWeightedBdp needs bdp_bytes");
  }
  reinitialize(config_.buffer_bytes);
}

void DynaQController::reinitialize(std::int64_t buffer_bytes) {
  if (buffer_bytes <= 0) throw std::invalid_argument("buffer_bytes must be positive");
  buffer_bytes_ = buffer_bytes;
  thresholds_ = proportional_split(buffer_bytes_, config_.weights);  // Eq. (1)
  switch (config_.satisfaction) {
    case SatisfactionRule::kBufferShare:
      satisfaction_ = proportional_split(buffer_bytes_, config_.weights);  // Eq. (3)
      break;
    case SatisfactionRule::kWeightedBdp:
      satisfaction_ = proportional_split(config_.bdp_bytes, config_.weights);
      break;
  }
  // Fresh thresholds carry no exchange history: an undo after a
  // re-initialization would corrupt the just-restored Eq. (1) split.
  last_p_ = -1;
}

void DynaQController::set_weights(const std::vector<double>& weights) {
  if (weights.size() != config_.weights.size()) {
    throw std::invalid_argument("set_weights needs one weight per queue");
  }
  for (double w : weights) {
    if (w <= 0.0) throw std::invalid_argument("weights must be positive");
  }
  config_.weights = weights;
  reinitialize(buffer_bytes_);
}

std::int64_t DynaQController::threshold_sum() const {
  std::int64_t sum = 0;
  for (std::int64_t t : thresholds_) sum += t;
  return sum;
}

int DynaQController::find_victim_linear(int p) const {
  int best = -1;
  std::int64_t best_key = std::numeric_limits<std::int64_t>::min();
  for (int i = 0; i < num_queues(); ++i) {
    if (i == p) continue;
    const std::int64_t key = victim_key(i);
    if (best == -1 || key > best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

int DynaQController::find_victim_tournament(int p) const {
  // The paper's loop-free MaxIdx reduction: pairwise comparisons arranged
  // as a balanced tournament, O(log M) depth. The arriving packet's own
  // queue is excluded by giving it a -inf key; ties break toward the lower
  // index so the result matches the linear reference exactly.
  const int m = num_queues();
  if (m <= 1) return -1;
  const auto key = [this, p](int i) {
    return (i < 0 || i == p) ? std::numeric_limits<std::int64_t>::min() : victim_key(i);
  };
  const auto max_idx = [&key](int a, int b) {
    if (a < 0) return b;
    if (b < 0) return a;
    const std::int64_t ka = key(a);
    const std::int64_t kb = key(b);
    if (kb != ka) return kb > ka ? b : a;
    return b < a ? b : a;  // ties resolve to the lower index at every level
  };

  const auto width = std::bit_ceil(static_cast<unsigned>(m));
  int lanes[64];
  for (unsigned i = 0; i < width; ++i) lanes[i] = i < static_cast<unsigned>(m) ? static_cast<int>(i) : -1;
  for (unsigned stride = width / 2; stride >= 1; stride /= 2) {
    for (unsigned i = 0; i < stride; ++i) lanes[i] = max_idx(lanes[i], lanes[i + stride]);
  }
  const int winner = lanes[0];
  return (winner == p || winner < 0) ? -1 : winner;
}

Verdict DynaQController::on_arrival(std::span<const std::int64_t> queue_bytes, int p,
                                    std::int32_t size) {
  assert(queue_bytes.size() == thresholds_.size());
  assert(p >= 0 && p < num_queues());
  assert(size > 0);
  last_p_ = -1;  // only the exchange made by *this* arrival may be undone
  last_drop_cause_ = DropCause::kNone;

  auto& t_p = thresholds_[static_cast<std::size_t>(p)];

  // Line 1: below threshold — DynaQ does nothing.
  if (queue_bytes[static_cast<std::size_t>(p)] + size <= t_p) return Verdict::kAdmit;

  // Line 2: victim selection.
  const int v = config_.loop_free_search ? find_victim_tournament(p) : find_victim_linear(p);
  if (v < 0) {
    last_drop_cause_ = DropCause::kThreshold;  // single-queue port: no buffer to borrow
    return Verdict::kDrop;
  }

  auto& t_v = thresholds_[static_cast<std::size_t>(v)];
  const std::int64_t s_v = satisfaction_[static_cast<std::size_t>(v)];
  const std::int64_t q_v = queue_bytes[static_cast<std::size_t>(v)];

  // Line 3: drop to keep T_v >= 0, and to protect unsatisfied *active*
  // queues (inactive queues may be raided for work conservation).
  if (t_v < size) {
    last_drop_cause_ = DropCause::kVictimTooSmall;
    return Verdict::kDrop;
  }
  if (q_v > 0 && t_v - size < s_v) {
    last_drop_cause_ = DropCause::kVictimUnsatisfied;
    return Verdict::kDrop;
  }

  // Lines 6-7: exchange exactly size(P); decrease before increase keeps
  // ΣT = B at every instant.
  t_v -= size;
  t_p += size;
  last_p_ = p;
  last_v_ = v;
  last_size_ = size;

  // Threshold-enforced admission: the packet is admitted only if
  // q_p + size <= T_p after the exchange, which preserves q_i <= T_i for
  // every queue and therefore Σq <= ΣT = B — the port bound needs no
  // separate check and a below-threshold queue can never be starved by
  // other queues pinning the port full (DESIGN.md §4).
  if (queue_bytes[static_cast<std::size_t>(p)] + size > t_p) {
    // The packet is dropped anyway, so return the borrowed buffer —
    // otherwise thresholds would drift toward p without carrying packets.
    t_p -= size;
    t_v += size;
    last_p_ = -1;
    last_drop_cause_ = DropCause::kThreshold;
    return Verdict::kDrop;
  }
  return Verdict::kAdjusted;
}

void DynaQController::undo_last_exchange() {
  if (last_p_ < 0) return;
  thresholds_[static_cast<std::size_t>(last_p_)] -= last_size_;
  thresholds_[static_cast<std::size_t>(last_v_)] += last_size_;
  last_p_ = -1;
}

}  // namespace dynaq::core
