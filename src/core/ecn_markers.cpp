#include "core/ecn_markers.hpp"

#include <algorithm>
#include <cmath>

namespace dynaq::core {
namespace {

std::int64_t weighted_share(std::int64_t total, const net::MqState& state, int q) {
  return static_cast<std::int64_t>(std::floor(static_cast<double>(total) *
                                              state.queue(q).weight / state.total_weight()));
}

}  // namespace

bool PerQueueEcnMarker::mark_on_enqueue(const net::MqState& state, int q,
                                        const net::Packet& p) {
  const std::int64_t k_i = weighted_share(cfg_.port_threshold_bytes, state, q);
  return state.queue(q).bytes + p.size > k_i;
}

bool PmsbEcnMarker::mark_on_enqueue(const net::MqState& state, int q, const net::Packet& p) {
  const bool port_over = state.port_bytes + p.size > cfg_.port_threshold_bytes;
  const std::int64_t k_i = weighted_share(cfg_.port_threshold_bytes, state, q);
  const bool queue_over = state.queue(q).bytes + p.size > k_i;
  return port_over && queue_over;
}

bool TcnEcnMarker::mark_on_dequeue(const net::MqState& state, int q, const net::Packet& p,
                                   Time sojourn) {
  (void)state, (void)q, (void)p;
  return sojourn > cfg_.sojourn_threshold;
}

bool MqEcnMarker::mark_on_enqueue(const net::MqState& state, int q, const net::Packet& p) {
  // Instantaneous round time: one quantum for every backlogged queue.
  double active_quantum_bytes = 0.0;
  for (const net::ServiceQueue& sq : state.queues) {
    if (sq.bytes > 0) {
      active_quantum_bytes += static_cast<double>(cfg_.quantum_base) * sq.weight;
    }
  }
  const double quantum_q = static_cast<double>(cfg_.quantum_base) * state.queue(q).weight;
  if (active_quantum_bytes < quantum_q) active_quantum_bytes = quantum_q;
  const Time t_round_inst = seconds(active_quantum_bytes * 8.0 / cfg_.capacity_bps);
  t_round_ = t_round_ == 0 ? t_round_inst : (3 * t_round_ + t_round_inst) / 4;

  const double rate_share =
      std::min(quantum_q * 8.0 / to_seconds(t_round_), cfg_.capacity_bps);  // bits/s
  const auto k_i = static_cast<std::int64_t>(rate_share * to_seconds(cfg_.rtt) / 8.0);
  return state.queue(q).bytes + p.size > k_i;
}

}  // namespace dynaq::core
