// Multi-queue egress buffer of a switch port: per-service-queue storage,
// an admission (buffer-management) policy, a packet scheduler, and an
// optional ECN marker. This is the component the DynaQ paper is about.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/buffer_policy.hpp"
#include "net/ecn_marker.hpp"
#include "net/mq_state.hpp"
#include "net/queue_disc.hpp"
#include "net/scheduler.hpp"
#include "net/shared_memory.hpp"
#include "sim/simulator.hpp"

namespace dynaq::net {

struct MqStats {
  std::uint64_t enqueued = 0;
  std::uint64_t evicted = 0;  // buffered packets removed to admit arrivals
  std::uint64_t dropped = 0;
  std::uint64_t dropped_by_policy = 0;     // admission policy said no
  std::uint64_t dropped_port_full = 0;     // policy admitted, physical bound rejected
  std::uint64_t marked = 0;
};

class MultiQueueQdisc final : public QueueDisc {
 public:
  // `weights` sets both the scheduler weights and the buffer policy's
  // per-queue weights; `buffer_bytes` is the shared port buffer size B.
  MultiQueueQdisc(sim::Simulator& sim, std::vector<double> weights, std::int64_t buffer_bytes,
                  std::unique_ptr<BufferPolicy> policy,
                  std::unique_ptr<SchedulerPolicy> scheduler,
                  std::unique_ptr<EcnMarker> marker = nullptr);

  bool enqueue(Packet&& p) override;
  std::optional<Packet> dequeue() override;
  bool empty() const override { return state_.port_bytes == 0; }
  std::int64_t backlog_bytes() const override { return state_.port_bytes; }

  // Operator buffer resize at runtime (§III-B3): adjusts B and tells the
  // policy to re-derive its thresholds. Buffered packets are kept; if the
  // new size is smaller than the current backlog, arrivals are rejected
  // until the queues drain below the new bound.
  void resize_buffer(std::int64_t buffer_bytes);

  // Operator weight rewrite at runtime (scenario weight_update, DESIGN.md
  // §11): installs the new per-queue weights and notifies the buffer
  // policy (which must rebalance keeping ΣT = B) and the scheduler (which
  // must not disturb buffered packets or its in-flight round). `weights`
  // must match the queue count and be positive.
  void set_weights(const std::vector<double>& weights);

  // Attaches this port to a chip-wide shared memory pool (§II-C's
  // shared-buffer switch model): admissions must additionally reserve pool
  // bytes; `buffer_bytes` then acts as the per-port cap. The pool must
  // outlive the qdisc.
  void attach_memory_pool(SharedMemoryPool* pool) { pool_ = pool; }

  const MqState& state() const { return state_; }
  // Handle-level introspection for scenario orchestration: the director
  // validates weight vectors and buffer sizes against these instead of
  // reaching into MqState (conventions rule 11).
  int num_service_queues() const { return state_.num_queues(); }
  std::int64_t buffer_bytes() const { return state_.buffer_bytes; }
  BufferPolicy& policy() { return *policy_; }
  const BufferPolicy& policy() const { return *policy_; }
  SchedulerPolicy& scheduler() { return *scheduler_; }
  const MqStats& stats() const { return stats_; }

  // Registers this port's buffer on the telemetry hub (DESIGN.md §8):
  // typed events (Enqueue/Drop{reason}/Evict/ThresholdExchange/EcnMark),
  // per-queue queueing-delay histograms and — when the hub has sampling
  // enabled — the occupancy/threshold time series. Costs one null-pointer
  // test per operation until attached.
  void attach_telemetry(telemetry::Hub& hub, const std::string& name) override;

 private:
  // Hub attached and collecting: the single guarded branch of the disabled
  // path (bench/micro_telemetry).
  telemetry::Hub* tel() const {
    return hub_ != nullptr && hub_->enabled() ? hub_ : nullptr;
  }
  void emit_packet_event(telemetry::Hub& hub, telemetry::EventKind kind, int queue,
                         const Packet& p, telemetry::DropReason reason,
                         int other_queue = -1) const;
  void sample_queues(telemetry::Hub& hub) const;

  sim::Simulator& sim_;
  MqState state_;
  SharedMemoryPool* pool_ = nullptr;
  std::unique_ptr<BufferPolicy> policy_;
  std::unique_ptr<SchedulerPolicy> scheduler_;
  std::unique_ptr<EcnMarker> marker_;
  MqStats stats_;
  telemetry::Hub* hub_ = nullptr;
  std::int16_t tel_port_ = -1;
};

}  // namespace dynaq::net
