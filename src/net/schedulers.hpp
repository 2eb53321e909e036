// Work-conserving packet schedulers: FIFO, strict priority (SPQ), deficit
// round-robin (DRR), weighted round-robin (WRR), and the paper's SPQ/DRR
// hybrid (one strict high-priority queue over a DRR group).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ring.hpp"
#include "net/scheduler.hpp"

namespace dynaq::net {

// Serves buffered packets in global arrival order regardless of queue,
// emulating a single shared FIFO over the per-queue storage.
class FifoScheduler final : public SchedulerPolicy {
 public:
  void on_enqueue(const MqState& state, int q) override;
  int next_queue(MqState& state) override;
  std::string_view name() const override { return "fifo"; }

 private:
  Ring<int> order_;  // queue index of each buffered packet, in arrival order
};

// Strict priority: lower queue index = higher priority.
class SpqScheduler final : public SchedulerPolicy {
 public:
  int next_queue(MqState& state) override;
  std::string_view name() const override { return "spq"; }
};

// Deficit round-robin (Shreedhar & Varghese). Queue i's quantum is
// `quantum_base * weight_i`, with weights taken from MqState; the paper's
// testbed uses a 1.5 KB base quantum.
class DrrScheduler final : public SchedulerPolicy {
 public:
  explicit DrrScheduler(std::int64_t quantum_base = 1500) : quantum_base_(quantum_base) {}

  void attach(const MqState& state) override;
  void on_enqueue(const MqState& state, int q) override;
  int next_queue(MqState& state) override;
  std::string_view name() const override { return "drr"; }

  std::int64_t deficit(int q) const { return deficits_[static_cast<std::size_t>(q)]; }

 private:
  std::int64_t quantum_for(const MqState& state, int q) const;

  std::int64_t quantum_base_;
  std::vector<std::int64_t> deficits_;
  std::vector<bool> in_list_;
  Ring<int> active_;  // round-robin order of backlogged queues
};

// Packet-based weighted round-robin: queue i may send round(w_i / min(w))
// packets per round. Used by the paper's 10/100 Gbps simulations.
class WrrScheduler final : public SchedulerPolicy {
 public:
  void attach(const MqState& state) override;
  void on_enqueue(const MqState& state, int q) override;
  int next_queue(MqState& state) override;
  // Mid-run weight rewrite: recompute only slots_per_round_ — active_,
  // in_list_ and slots_left_ describe buffered packets and the in-flight
  // round, which must survive the reconfiguration (new rates apply from
  // each queue's next refill).
  void on_weights_changed(const MqState& state) override;
  std::string_view name() const override { return "wrr"; }

 private:
  void compute_slots(const MqState& state);

  std::vector<int> slots_per_round_;
  std::vector<int> slots_left_;
  std::vector<bool> in_list_;
  Ring<int> active_;
};

// One strict high-priority queue (index 0) over an inner scheduler serving
// queues 1..M-1. Low-priority packets are dequeued only when the
// high-priority queue is empty — the paper's SPQ(1)/DRR(k) configuration.
// The inner scheduler is simply never notified about queue 0, so its active
// list can only ever contain the low-priority group.
class SpqOverScheduler final : public SchedulerPolicy {
 public:
  explicit SpqOverScheduler(std::unique_ptr<SchedulerPolicy> inner) : inner_(std::move(inner)) {}

  void attach(const MqState& state) override { inner_->attach(state); }

  void on_enqueue(const MqState& state, int q) override {
    if (q != 0) inner_->on_enqueue(state, q);
  }

  int next_queue(MqState& state) override {
    if (!state.queue(0).empty()) return 0;
    return inner_->next_queue(state);
  }

  std::string_view name() const override { return "spq+"; }

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
};

}  // namespace dynaq::net
