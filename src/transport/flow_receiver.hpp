// Reliable byte-stream receiver: out-of-order reassembly, an immediate
// cumulative ACK for every data segment, and per-packet ECN echo (CE on a data packet sets ECE on exactly its ACK, giving DCTCP the
// exact marked fraction — the behaviour the testbed gets with LSO/LRO
// disabled).
#pragma once

#include <cstdint>
#include <functional>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"
#include "transport/interval_list.hpp"

namespace dynaq::transport {

class FlowReceiver {
 public:
  FlowReceiver(sim::Simulator& sim, net::Host& host, FlowParams params)
      : sim_(sim), host_(host), params_(params) {}

  void on_data(const net::Packet& data);

  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  std::int64_t bytes_received() const { return static_cast<std::int64_t>(rcv_nxt_); }
  bool complete() const { return complete_; }
  Time completion_time() const { return completion_time_; }
  const FlowParams& params() const { return params_; }
  std::uint64_t acks_sent() const { return acks_sent_; }

  // Invoked once when a finite flow's last byte arrives in order.
  std::function<void(const FlowReceiver&)> on_complete;

 private:
  void insert_segment(std::uint64_t seq, std::uint64_t end);
  void send_ack(std::uint8_t queue, bool ece);

  sim::Simulator& sim_;
  net::Host& host_;
  FlowParams params_;
  std::uint64_t rcv_nxt_ = 0;
  IntervalList out_of_order_;  // received ranges above rcv_nxt_
  bool complete_ = false;
  Time completion_time_ = 0;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace dynaq::transport
