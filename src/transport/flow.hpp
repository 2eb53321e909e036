// Flow description shared by senders, receivers and experiment harnesses.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "transport/congestion_control.hpp"

namespace dynaq::transport {

struct FlowParams {
  std::uint32_t id = 0;
  int src_host = 0;
  int dst_host = 0;

  // Application bytes to transfer; 0 means unbounded (iperf-style
  // long-lived flow that keeps sending until `stop`).
  std::int64_t size_bytes = 0;
  Time start = 0;
  Time stop = 0;  // unbounded flows emit no new data after this time (0 = never)

  int service_queue = 0;  // DSCP class → switch service queue
  CcKind cc = CcKind::kNewReno;
  std::int32_t mss = net::kDefaultMss;
  Time rto_min = milliseconds(std::int64_t{10});
  // Pre-seeded RTT estimate. 0 models a cold connection (RFC 6298's 1 s
  // initial RTO applies until the first sample); a positive value models a
  // request on an established persistent connection, as the paper's
  // client/server application uses — first-window losses then recover
  // after ~RTOmin instead of 1 s.
  Time initial_srtt = 0;

  // Two-level PIAS tagging (Bai et al., NSDI'15): the first
  // `pias_threshold_bytes` of every flow ride the strict-priority queue
  // (queue 0 in every topology), the rest drop to the flow's dedicated
  // service queue.
  bool pias = false;
  std::int64_t pias_threshold_bytes = 100'000;

  bool unbounded() const { return size_bytes <= 0; }
};

// Service queue for the packet carrying byte offset `seq` of this flow.
inline int queue_for_segment(const FlowParams& params, std::uint64_t seq) {
  if (params.pias && seq < static_cast<std::uint64_t>(params.pias_threshold_bytes)) {
    return 0;
  }
  return params.service_queue;
}

}  // namespace dynaq::transport
