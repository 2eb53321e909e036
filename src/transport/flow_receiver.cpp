#include "transport/flow_receiver.hpp"

#include <algorithm>

namespace dynaq::transport {

void FlowReceiver::insert_segment(std::uint64_t seq, std::uint64_t end) {
  if (end <= rcv_nxt_) return;  // stale retransmission
  seq = std::max(seq, rcv_nxt_);
  if (seq == rcv_nxt_ && out_of_order_.empty()) {
    rcv_nxt_ = end;  // in order with nothing buffered: the common case
    return;
  }
  out_of_order_.insert(seq, end);
  // Advance the cumulative point across any now-contiguous intervals.
  while (!out_of_order_.empty() && out_of_order_.front().first <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, out_of_order_.front().second);
    out_of_order_.pop_front();
  }
}

void FlowReceiver::send_ack(std::uint8_t queue, bool ece) {
  net::Packet ack = net::make_ack_packet(params_.id, static_cast<std::uint32_t>(params_.dst_host),
                                         static_cast<std::uint32_t>(params_.src_host), rcv_nxt_);
  ack.queue = queue;  // ACKs ride the same service class as their data
  if (ece) ack.set(net::kFlagEce);
  // SACK option: advertise up to kMaxSackBlocks out-of-order intervals,
  // nearest the cumulative point first — enough for the sender's
  // scoreboard to locate every hole within a few ACKs.
  for (const auto& [start, end] : out_of_order_) {
    if (ack.num_sack >= net::kMaxSackBlocks) break;
    ack.sack[ack.num_sack++] = net::SackBlock{start, end};
  }
  ++acks_sent_;
  host_.send(std::move(ack));
}

void FlowReceiver::on_data(const net::Packet& data) {
  insert_segment(data.seq, data.seq + static_cast<std::uint64_t>(data.payload));
  send_ack(data.queue, data.has(net::kFlagCe));

  if (!complete_ && !params_.unbounded() &&
      static_cast<std::int64_t>(rcv_nxt_) >= params_.size_bytes) {
    complete_ = true;
    completion_time_ = sim_.now();
    if (on_complete) on_complete(*this);
  }
}

}  // namespace dynaq::transport
