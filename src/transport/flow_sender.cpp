#include "transport/flow_sender.hpp"

#include <algorithm>
#include <limits>

namespace dynaq::transport {
namespace {

constexpr Time kRtoMax = seconds(std::int64_t{60});
constexpr int kMaxBackoff = 64;
constexpr double kInitialCwndPackets = 10.0;  // RFC 6928

}  // namespace

FlowSender::FlowSender(sim::Simulator& sim, net::Host& host, FlowParams params)
    : sim_(sim), host_(host), params_(params), cc_(make_congestion_control(params.cc)) {
  cc_->init(params_.mss, kInitialCwndPackets);
  if (params_.initial_srtt > 0) {
    srtt_ = params_.initial_srtt;
    rttvar_ = params_.initial_srtt / 2;
  }
}

void FlowSender::start() {
  const Time delay = std::max<Time>(0, params_.start - sim_.now());
  sim_.schedule_in(delay, [this] {
    started_ = true;
    send_available();
  });
}

std::int64_t FlowSender::flow_limit() const {
  return params_.unbounded() ? std::numeric_limits<std::int64_t>::max() / 2
                             : params_.size_bytes;
}

void FlowSender::resume() {
  if (!paused_) return;
  paused_ = false;
  // A sender that went fully idle while paused (everything acked, timer
  // cancelled) restarts its ACK clock here; transmit_segment re-arms the RTO.
  if (started_ && !complete_) send_available();
}

bool FlowSender::may_send_new_data() const {
  if (!started_ || complete_ || paused_) return false;
  if (static_cast<std::int64_t>(snd_nxt_) >= flow_limit()) return false;
  if (params_.unbounded() && params_.stop > 0 && sim_.now() >= params_.stop) return false;
  return true;
}

// ------------------------------------------------------ SACK scoreboard --

void FlowSender::merge_sack_blocks(const net::Packet& ack) {
  for (int i = 0; i < ack.num_sack; ++i) {
    const std::uint64_t start = ack.sack[i].start;
    const std::uint64_t end = ack.sack[i].end;
    if (end <= snd_una_ || end <= start) continue;
    sacked_.insert(std::max(start, snd_una_), end);
  }
  sacked_.erase_below(snd_una_);  // prune everything at or below the cumulative point
}

std::int64_t FlowSender::sacked_bytes() const {
  std::int64_t total = 0;
  for (const auto& [start, end] : sacked_) total += static_cast<std::int64_t>(end - start);
  return total;
}

std::uint64_t FlowSender::highest_sacked() const {
  return sacked_.empty() ? snd_una_ : sacked_.back().second;
}

std::int64_t FlowSender::unsacked_in(std::uint64_t lo, std::uint64_t hi) const {
  if (hi <= lo) return 0;
  std::int64_t covered = 0;
  for (const auto& [start, end] : sacked_) {
    const std::uint64_t s = std::max(start, lo);
    const std::uint64_t e = std::min(end, hi);
    if (e > s) covered += static_cast<std::int64_t>(e - s);
  }
  return static_cast<std::int64_t>(hi - lo) - covered;
}

std::optional<std::uint64_t> FlowSender::next_hole(std::uint64_t from) const {
  const std::uint64_t limit = highest_sacked();
  std::uint64_t pos = std::max(from, snd_una_);
  for (const auto& [start, end] : sacked_) {
    if (end <= pos) continue;
    if (start > pos) break;  // pos is in a gap before this block
    pos = end;               // pos was inside a sacked block; skip past it
  }
  if (pos >= limit) return std::nullopt;
  return pos;
}

std::int64_t FlowSender::pipe_bytes() const {
  // In flight = everything sent and unacknowledged, minus SACKed bytes,
  // minus holes below the highest SACK that we have not (re)sent in this
  // recovery (those are presumed lost).
  const auto outstanding = static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  const std::uint64_t hs = highest_sacked();
  const std::int64_t sacked = sacked_bytes();
  const std::int64_t lost_or_resent = unsacked_in(snd_una_, hs);
  const std::int64_t resent = unsacked_in(snd_una_, std::min(rtx_next_, hs));
  return outstanding - sacked - (lost_or_resent - resent);
}

void FlowSender::sack_recovery_send() {
  const double cwnd = cc_->cwnd_bytes();
  while (true) {
    const std::int64_t pipe = pipe_bytes();
    if (pipe > 0 && static_cast<double>(pipe) + params_.mss > cwnd) break;
    // Priority 1: fill the oldest un-retransmitted hole below the highest
    // SACK (RFC 6675 NextSeg rule 1).
    if (const auto hole = next_hole(std::max(rtx_next_, snd_una_)); hole.has_value()) {
      ++stats_.partial_ack_retx;
      transmit_segment(*hole, /*retransmission=*/true);
      const std::int64_t remaining = flow_limit() - static_cast<std::int64_t>(*hole);
      rtx_next_ = *hole + static_cast<std::uint64_t>(
                              std::min<std::int64_t>(params_.mss, remaining));
      continue;
    }
    // Priority 2: new data keeps the ACK clock running.
    if (may_send_new_data()) {
      transmit_segment(snd_nxt_, /*retransmission=*/false);
      continue;
    }
    break;
  }
}

// ----------------------------------------------------------- transmit --

void FlowSender::send_available() {
  if (in_recovery_) {
    sack_recovery_send();
    return;
  }
  const double window = cc_->cwnd_bytes();
  while (may_send_new_data()) {
    const auto inflight = static_cast<double>(snd_nxt_ - snd_una_);
    // Always allow at least one outstanding segment so sub-MSS windows
    // (post-RTO) still make progress.
    if (inflight > 0 && inflight + params_.mss > window) break;
    transmit_segment(snd_nxt_, /*retransmission=*/false);
  }
}

void FlowSender::transmit_segment(std::uint64_t seq, bool retransmission) {
  const std::int64_t remaining = flow_limit() - static_cast<std::int64_t>(seq);
  const std::int32_t payload =
      static_cast<std::int32_t>(std::min<std::int64_t>(params_.mss, remaining));
  net::Packet p = net::make_data_packet(params_.id, static_cast<std::uint32_t>(params_.src_host),
                                        static_cast<std::uint32_t>(params_.dst_host), seq,
                                        payload);
  p.queue = static_cast<std::uint8_t>(queue_for_segment(params_, seq));
  if (cc_->wants_ecn()) p.set(net::kFlagEct);
  if (!params_.unbounded() &&
      static_cast<std::int64_t>(seq) + payload >= params_.size_bytes) {
    p.set(net::kFlagFin);
  }
  const std::uint64_t end = seq + static_cast<std::uint64_t>(payload);
  // Anything at or below the high-water mark has been sent before (either
  // an explicit retransmission or go-back-N resending after an RTO).
  const bool is_retx = retransmission || end <= highest_sent_;
  if (seq == snd_nxt_) snd_nxt_ = end;
  highest_sent_ = std::max(highest_sent_, end);
  if (is_retx) {
    p.set(net::kFlagRetx);
    ++stats_.retransmissions;
    if (!retransmission) ++stats_.goback_retx;
    // Karn's rule: a retransmission invalidates any in-flight RTT probe.
    probe_armed_ = false;
  } else if (!probe_armed_) {
    probe_armed_ = true;
    probe_end_seq_ = end;
    probe_sent_at_ = sim_.now();
  }
  ++stats_.data_packets;
  stats_.bytes_sent += p.size;
  host_.send(std::move(p));
  if (!timer_active_) arm_timer(sim_.now() + current_rto());
}

// ----------------------------------------------------------- RTT / RTO --

Time FlowSender::current_rto() const {
  Time rto;
  if (srtt_ == 0) {
    rto = seconds(std::int64_t{1});  // RFC 6298 initial RTO, before any sample
  } else {
    rto = srtt_ + std::max<Time>(4 * rttvar_, kNanosecond);
  }
  rto = std::clamp(rto, params_.rto_min, kRtoMax);
  return std::min<Time>(rto * rto_backoff_, kRtoMax);
}

void FlowSender::take_rtt_sample(Time sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Time err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
}

// ------------------------------------------------------- ACK processing --

void FlowSender::on_ack(const net::Packet& ack) {
  if (complete_) return;
  const std::uint64_t ack_seq = ack.seq;

  AckInfo info;
  info.now = sim_.now();
  info.ece = ack.has(net::kFlagEce);
  info.snd_nxt = snd_nxt_;

  if (ack_seq > snd_una_) {
    info.bytes_acked = static_cast<std::int64_t>(ack_seq - snd_una_);
    snd_una_ = ack_seq;
    // After a go-back-N rewind the receiver's out-of-order buffer can push
    // the cumulative point past the resend position.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    if (rtx_next_ < snd_una_) rtx_next_ = snd_una_;
    merge_sack_blocks(ack);
    rto_backoff_ = 1;

    if (probe_armed_ && snd_una_ >= probe_end_seq_) {
      probe_armed_ = false;
      info.rtt_sample = sim_.now() - probe_sent_at_;
      take_rtt_sample(info.rtt_sample);
    }
    info.srtt = srtt_;

    if (in_recovery_) {
      if (snd_una_ >= recover_point_) {
        in_recovery_ = false;
        dup_acks_ = 0;
        cc_->on_ack(info);
      } else {
        sack_recovery_send();
      }
    } else {
      dup_acks_ = 0;
      cc_->on_ack(info);
    }

    if (!params_.unbounded() && static_cast<std::int64_t>(snd_una_) >= params_.size_bytes) {
      complete_ = true;
      cancel_timer();
      if (on_complete) on_complete(*this);
      return;
    }
    arm_timer(sim_.now() + current_rto());
    send_available();
    return;
  }

  if (ack_seq == snd_una_ && snd_nxt_ > snd_una_) {
    ++dup_acks_;
    merge_sack_blocks(ack);
    info.snd_una = snd_una_;
    info.srtt = srtt_;
    // Loss detection: three dupACKs, or more than 3 MSS SACKed above a
    // hole even when dupACKs were lost (RFC 6675).
    const bool sack_trigger = sacked_bytes() > 3 * static_cast<std::int64_t>(params_.mss);
    const bool fresh_window = !has_recover_point_ || snd_una_ > recover_point_;
    if (!in_recovery_ && (dup_acks_ >= 3 || sack_trigger) && fresh_window) {
      enter_recovery(info);
    } else {
      send_available();  // the pipe update may open slots
    }
  }
}

void FlowSender::enter_recovery(const AckInfo& info) {
  in_recovery_ = true;
  recover_point_ = snd_nxt_;
  has_recover_point_ = true;
  rtx_next_ = snd_una_;
  ++stats_.fast_retransmits;
  cc_->on_loss_event(info);
  sack_recovery_send();
  arm_timer(sim_.now() + current_rto());
}

void FlowSender::handle_timeout() {
  if (complete_) return;
  if (snd_una_ >= snd_nxt_ && !may_send_new_data()) {
    // Nothing outstanding (e.g. a stopped unbounded flow); go idle.
    cancel_timer();
    return;
  }
  ++stats_.timeouts;
  cc_->on_timeout();
  in_recovery_ = false;
  dup_acks_ = 0;
  rto_backoff_ = std::min(rto_backoff_ * 2, kMaxBackoff);
  // Go-back-N: rewind to the cumulative point and slow-start forward again
  // (ns-2 / pre-SACK TCP behaviour). The receiver's out-of-order buffer
  // turns the resent prefix into fast cumulative jumps. The resends will
  // echo duplicate ACKs; moving the recover guard to the high-water mark
  // keeps them from triggering a spurious fast retransmit (RFC 6582 §5).
  recover_point_ = highest_sent_;
  has_recover_point_ = true;
  sacked_.clear();  // RFC 6675 permits discarding the scoreboard on RTO
  rtx_next_ = snd_una_;
  snd_nxt_ = snd_una_;
  send_available();
  arm_timer(sim_.now() + current_rto());
}

// ---------------------------------------------------------- lazy timer --

void FlowSender::arm_timer(Time deadline) {
  timer_active_ = true;
  timer_deadline_ = deadline;
  if (timer_event_ != sim::kNoEvent) {
    if (timer_event_time_ <= deadline) {
      // The pending event fires first; it will re-arm for the new deadline.
      return;
    }
    // The deadline moved earlier: the pending event is now too late.
    sim_.cancel(timer_event_);
  }
  timer_event_time_ = deadline;
  timer_event_ = sim_.schedule_at(deadline, [this] { timer_fired(); });
}

void FlowSender::cancel_timer() {
  timer_active_ = false;
  if (timer_event_ != sim::kNoEvent) {
    sim_.cancel(timer_event_);
    timer_event_ = sim::kNoEvent;
  }
}

void FlowSender::timer_fired() {
  timer_event_ = sim::kNoEvent;
  if (sim_.now() < timer_deadline_) {
    arm_timer(timer_deadline_);  // deadline was pushed out; sleep again
    return;
  }
  handle_timeout();
}

}  // namespace dynaq::transport
