#include "core/policies.hpp"

#include <cmath>

namespace dynaq::core {

// ----------------------------------------------------------------- PQL --

void PqlPolicy::attach(const net::MqState& state) {
  quotas_.clear();
  const double sum_w = state.total_weight();
  for (const net::ServiceQueue& q : state.queues) {
    quotas_.push_back(static_cast<std::int64_t>(
        std::floor(static_cast<double>(state.buffer_bytes) * q.weight / sum_w)));
  }
}

bool PqlPolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  return state.queue(q).bytes + p.size <= quotas_[static_cast<std::size_t>(q)];
}

// ------------------------------------------------- Dynamic Threshold --

bool DynamicThresholdPolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  const double free_buffer =
      pool_ != nullptr ? static_cast<double>(pool_->free_bytes())
                       : static_cast<double>(state.buffer_bytes - state.port_bytes);
  const auto threshold = static_cast<std::int64_t>(alpha_ * free_buffer);
  return state.queue(q).bytes + p.size <= threshold;
}

// ----------------------------------------------------------------- LQD --

int LongestQueueDropPolicy::evict_candidate(const net::MqState& state, int q,
                                            const net::Packet& p) {
  // Push out from the longest queue — but only if it is strictly longer
  // than the arriving queue would be with the packet accepted; otherwise
  // the arrival itself belongs to the longest queue and is the drop victim.
  // Ties go to the lowest index for determinism.
  const std::int64_t arriving = state.queue(q).bytes + p.size;
  int best = -1;
  std::int64_t best_bytes = arriving;
  for (int i = 0; i < state.num_queues(); ++i) {
    if (i == q || state.queue(i).empty()) continue;
    if (state.queue(i).bytes > best_bytes) {
      best = i;
      best_bytes = state.queue(i).bytes;
    }
  }
  return best;
}

// ------------------------------------------------------------ Harmonic --

void HarmonicPolicy::attach(const net::MqState& state) {
  buffer_bytes_ = state.buffer_bytes;
  harmonic_n_ = 0.0;
  for (int i = 1; i <= state.num_queues(); ++i) harmonic_n_ += 1.0 / i;
  lengths_.clear();
  for (const net::ServiceQueue& q : state.queues) lengths_.push_back(q.bytes);
}

std::int64_t HarmonicPolicy::cap_for_rank(int rank) const {
  return static_cast<std::int64_t>(
      std::floor(static_cast<double>(buffer_bytes_) / (rank * harmonic_n_)));
}

int HarmonicPolicy::rank_of(const std::vector<std::int64_t>& lengths, int q) const {
  const auto uq = static_cast<std::size_t>(q);
  int rank = 1;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (i == uq) continue;
    if (lengths[i] > lengths[uq] || (lengths[i] == lengths[uq] && i < uq)) ++rank;
  }
  return rank;
}

bool HarmonicPolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  // The decision is exactly the enforced-threshold predicate the auditor
  // re-checks: q_p + size ≤ B / (rank(q) · H_n). Accepting can only improve
  // q's rank (longer → smaller rank number → larger cap), so the admitted
  // packet still fits under the post-enqueue threshold.
  return state.queue(q).bytes + p.size <=
         cap_for_rank(rank_of(lengths_, q));
}

void HarmonicPolicy::on_enqueue(const net::MqState& state, int q, const net::Packet& p) {
  (void)state;
  lengths_[static_cast<std::size_t>(q)] += p.size;
}

void HarmonicPolicy::on_dequeue(const net::MqState& state, int q, const net::Packet& p) {
  (void)state;
  lengths_[static_cast<std::size_t>(q)] -= p.size;
}

std::vector<std::int64_t> HarmonicPolicy::thresholds() const {
  std::vector<std::int64_t> caps(lengths_.size(), 0);
  for (std::size_t q = 0; q < lengths_.size(); ++q) {
    caps[q] = cap_for_rank(rank_of(lengths_, static_cast<int>(q)));
  }
  return caps;
}

// --------------------------------------------------------------- DynaQ --

void DynaQPolicy::attach(const net::MqState& state) {
  stale_qlen_.assign(state.queues.size(), 0);
  DynaQConfig cfg;
  cfg.buffer_bytes = state.buffer_bytes;
  for (const net::ServiceQueue& q : state.queues) cfg.weights.push_back(q.weight);
  cfg.victim = options_.victim;
  cfg.satisfaction = options_.satisfaction;
  cfg.bdp_bytes = options_.bdp_bytes;
  controller_ = std::make_unique<DynaQController>(std::move(cfg));
}

bool DynaQPolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  // Snapshot per-queue occupancies for the pure controller. M <= 8 on real
  // switches, so a fixed-size stack buffer avoids allocation on this path.
  // In TNA-emulation mode the snapshot is the stale deq_qdepth feedback
  // instead of the live occupancy (§IV-A2).
  std::int64_t occupancy[64];
  const int m = state.num_queues();
  if (options_.stale_queue_info) {
    for (int i = 0; i < m; ++i) occupancy[i] = stale_qlen_[static_cast<std::size_t>(i)];
  } else {
    for (int i = 0; i < m; ++i) occupancy[i] = state.queue(i).bytes;
  }

  last_exchange_victim_ = -1;
  switch (controller_->on_arrival({occupancy, static_cast<std::size_t>(m)}, q, p.size)) {
    case Verdict::kAdmit:
      return true;
    case Verdict::kAdjusted:
      ++adjustments_;
      last_exchange_victim_ = controller_->last_victim();
      return true;
    case Verdict::kDrop:
      switch (controller_->last_drop_cause()) {
        case DropCause::kVictimTooSmall:
          last_drop_reason_ = telemetry::DropReason::kVictimTooSmall;
          break;
        case DropCause::kVictimUnsatisfied:
          last_drop_reason_ = telemetry::DropReason::kVictimUnsatisfied;
          break;
        case DropCause::kNone:
        case DropCause::kThreshold:
          last_drop_reason_ = telemetry::DropReason::kThreshold;
          break;
      }
      return false;
  }
  return false;
}

void DynaQPolicy::on_weights_changed(const net::MqState& state) {
  std::vector<double> weights;
  weights.reserve(state.queues.size());
  for (const net::ServiceQueue& q : state.queues) weights.push_back(q.weight);
  controller_->set_weights(weights);
  last_exchange_victim_ = -1;  // the rebalance wiped any exchange history
}

void DynaQPolicy::on_dequeue(const net::MqState& state, int q, const net::Packet& p) {
  (void)p;
  // deq_qdepth: the queue's depth observed when a packet leaves it, which
  // is what TNA's egress intrinsic metadata exposes to the feedback loop.
  stale_qlen_[static_cast<std::size_t>(q)] = state.queue(q).bytes;
}

void DynaQPolicy::on_admit_aborted(const net::MqState& state, int q, const net::Packet& p) {
  (void)state, (void)q, (void)p;
  // The port's physical bound rejected the packet after we exchanged
  // thresholds for it; give the buffer back to the victim.
  controller_->undo_last_exchange();
  last_exchange_victim_ = -1;
}

std::vector<std::int64_t> DynaQPolicy::thresholds() const {
  if (!controller_) return {};
  return {controller_->thresholds().begin(), controller_->thresholds().end()};
}

// ------------------------------------------------------- DynaQ+Evict --

int DynaQEvictPolicy::evict_candidate(const net::MqState& state, int q, const net::Packet& p) {
  (void)p;
  // Evict only from queues buffering beyond their guaranteed share: the
  // victim with the largest q_i - S_i surplus gives back buffer it was
  // only lent.
  int best = -1;
  std::int64_t best_surplus = 0;
  for (int i = 0; i < state.num_queues(); ++i) {
    if (i == q || state.queue(i).empty()) continue;
    const std::int64_t surplus = state.queue(i).bytes - controller().satisfaction(i);
    if (surplus > best_surplus) {
      best = i;
      best_surplus = surplus;
    }
  }
  return best;
}

}  // namespace dynaq::core
