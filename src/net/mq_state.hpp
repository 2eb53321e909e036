// Shared state of a multi-queue switch port: per-service-queue packet
// storage and byte accounting, visible to buffer policies, ECN markers and
// packet schedulers.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "net/packet.hpp"
#include "net/ring.hpp"

namespace dynaq::net {

struct ServiceQueue {
  Ring<Packet> packets;
  std::int64_t bytes = 0;  // current occupancy
  double weight = 1.0;     // scheduler weight / DRR quantum proportion

  bool empty() const { return packets.empty(); }
};

struct MqState {
  std::vector<ServiceQueue> queues;
  std::int64_t buffer_bytes = 0;  // port buffer size B
  std::int64_t port_bytes = 0;    // current total occupancy

  int num_queues() const { return static_cast<int>(queues.size()); }

  double total_weight() const {
    double sum = 0.0;
    for (const ServiceQueue& q : queues) sum += q.weight;
    return sum;
  }

  const ServiceQueue& queue(int i) const { return queues[static_cast<std::size_t>(i)]; }
  ServiceQueue& queue(int i) { return queues[static_cast<std::size_t>(i)]; }
};

}  // namespace dynaq::net
