#include "net/schedulers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dynaq::net {

// ---------------------------------------------------------------- FIFO --

void FifoScheduler::on_enqueue(const MqState& state, int q) {
  (void)state;
  order_.push_back(q);
}

int FifoScheduler::next_queue(MqState& state) {
  (void)state;
  if (order_.empty()) return -1;
  const int q = order_.front();
  order_.pop_front();
  return q;
}

// ----------------------------------------------------------------- SPQ --

int SpqScheduler::next_queue(MqState& state) {
  for (int q = 0; q < state.num_queues(); ++q) {
    if (!state.queue(q).empty()) return q;
  }
  return -1;
}

// ----------------------------------------------------------------- DRR --

void DrrScheduler::attach(const MqState& state) {
  if (quantum_base_ <= 0) throw std::invalid_argument("DRR quantum must be positive");
  deficits_.assign(static_cast<std::size_t>(state.num_queues()), 0);
  in_list_.assign(static_cast<std::size_t>(state.num_queues()), false);
  active_ = {};
}

std::int64_t DrrScheduler::quantum_for(const MqState& state, int q) const {
  const double w = state.queue(q).weight;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(
                                       static_cast<double>(quantum_base_) * w)));
}

void DrrScheduler::on_enqueue(const MqState& state, int q) {
  (void)state;
  auto idx = static_cast<std::size_t>(q);
  if (idx >= in_list_.size()) {
    // attach() was not called with enough queues; treat as programming error.
    assert(false && "DRR scheduler not attached to this state");
    return;
  }
  if (!in_list_[idx]) {
    in_list_[idx] = true;
    deficits_[idx] = 0;
    active_.push_back(q);
  }
}

int DrrScheduler::next_queue(MqState& state) {
  if (active_.empty()) return -1;
  // Terminates because each pass around the active list strictly increases
  // the front queue's deficit by a positive quantum.
  while (true) {
    const int q = active_.front();
    auto idx = static_cast<std::size_t>(q);
    ServiceQueue& sq = state.queue(q);
    if (sq.empty()) {
      // Defensive: queues are removed from the list when their last packet
      // is scheduled, so an empty queue here indicates external meddling.
      active_.pop_front();
      in_list_[idx] = false;
      deficits_[idx] = 0;
      if (active_.empty()) return -1;
      continue;
    }
    const std::int64_t head = sq.packets.front().size;
    if (deficits_[idx] >= head) {
      deficits_[idx] -= head;
      if (sq.packets.size() == 1) {
        // Queue drains with this dequeue; leave the round.
        active_.pop_front();
        in_list_[idx] = false;
        deficits_[idx] = 0;
      }
      return q;
    }
    deficits_[idx] += quantum_for(state, q);
    active_.pop_front();
    active_.push_back(q);
  }
}

// ----------------------------------------------------------------- WRR --

void WrrScheduler::attach(const MqState& state) {
  const auto n = static_cast<std::size_t>(state.num_queues());
  slots_left_.assign(n, 0);
  in_list_.assign(n, false);
  active_ = {};
  compute_slots(state);
}

void WrrScheduler::compute_slots(const MqState& state) {
  const auto n = static_cast<std::size_t>(state.num_queues());
  slots_per_round_.assign(n, 1);
  double min_w = 0.0;
  for (const ServiceQueue& q : state.queues) {
    if (q.weight > 0.0 && (min_w == 0.0 || q.weight < min_w)) min_w = q.weight;
  }
  if (min_w <= 0.0) min_w = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = state.queues[i].weight;
    slots_per_round_[i] = std::max(1, static_cast<int>(std::lround(w / min_w)));
  }
}

void WrrScheduler::on_weights_changed(const MqState& state) { compute_slots(state); }

void WrrScheduler::on_enqueue(const MqState& state, int q) {
  (void)state;
  auto idx = static_cast<std::size_t>(q);
  if (!in_list_[idx]) {
    in_list_[idx] = true;
    slots_left_[idx] = 0;  // refilled on first visit
    active_.push_back(q);
  }
}

int WrrScheduler::next_queue(MqState& state) {
  if (active_.empty()) return -1;
  while (true) {
    const int q = active_.front();
    auto idx = static_cast<std::size_t>(q);
    ServiceQueue& sq = state.queue(q);
    if (sq.empty()) {
      active_.pop_front();
      in_list_[idx] = false;
      if (active_.empty()) return -1;
      continue;
    }
    if (slots_left_[idx] <= 0) {
      slots_left_[idx] = slots_per_round_[idx];
      active_.pop_front();
      active_.push_back(q);
      continue;
    }
    --slots_left_[idx];
    if (sq.packets.size() == 1) {
      active_.pop_front();
      in_list_[idx] = false;
      slots_left_[idx] = 0;
    }
    return q;
  }
}

}  // namespace dynaq::net
