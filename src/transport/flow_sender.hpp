// Reliable byte-stream sender: window-based transmission with cumulative
// ACKs, triple-dupACK fast retransmit with SACK-based (RFC 6675-style)
// recovery, and an RFC 6298 retransmission timer. Congestion control is a
// strategy object (NewReno / CUBIC / DCTCP).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/congestion_control.hpp"
#include "transport/flow.hpp"
#include "transport/interval_list.hpp"

namespace dynaq::transport {

struct SenderStats {
  std::uint64_t data_packets = 0;
  std::uint64_t retransmissions = 0;      // all resent segments
  std::uint64_t partial_ack_retx = 0;     // SACK hole-filling resends
  std::uint64_t goback_retx = 0;          // go-back-N resends after an RTO
  std::uint64_t fast_retransmits = 0;     // recovery entries
  std::uint64_t timeouts = 0;
  std::int64_t bytes_sent = 0;            // includes retransmissions
};

class FlowSender {
 public:
  FlowSender(sim::Simulator& sim, net::Host& host, FlowParams params);

  // Schedules the first window at params.start.
  void start();

  // ACK arrival from the network (invoked by the host agent).
  void on_ack(const net::Packet& ack);

  // Scenario service_leave / service_join (DESIGN.md §11): a paused sender
  // injects no new data but keeps processing ACKs for bytes already in
  // flight, so the flow drains cleanly and resumes where it left off.
  void pause() { paused_ = true; }
  void resume();
  bool paused() const { return paused_; }

  bool complete() const { return complete_; }
  const FlowParams& params() const { return params_; }
  const SenderStats& stats() const { return stats_; }
  const CongestionControl& cc() const { return *cc_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return snd_nxt_; }
  Time current_rto() const;
  Time srtt() const { return srtt_; }

  // SACK scoreboard introspection (testing).
  std::int64_t sacked_bytes() const;
  std::uint64_t highest_sacked() const;
  // First unsacked byte at or above max(from, snd_una) below the highest
  // SACK, if any (RFC 6675 NextSeg's hole scan).
  std::optional<std::uint64_t> next_hole(std::uint64_t from) const;
  std::int64_t pipe_bytes() const;
  std::uint64_t rtx_next() const { return rtx_next_; }

  // Invoked once when a finite flow has all bytes acknowledged.
  std::function<void(const FlowSender&)> on_complete;

 private:
  std::int64_t flow_limit() const;  // total bytes, or "infinite"
  bool may_send_new_data() const;
  void send_available();
  void transmit_segment(std::uint64_t seq, bool retransmission);
  void enter_recovery(const AckInfo& info);
  void handle_timeout();
  void take_rtt_sample(Time sample);

  // SACK machinery (RFC 6675-style pipe-driven recovery).
  void merge_sack_blocks(const net::Packet& ack);
  std::int64_t unsacked_in(std::uint64_t lo, std::uint64_t hi) const;
  void sack_recovery_send();

  // Lazy retransmission timer (at most one live event per RTO period).
  // Pushing the deadline out keeps the pending event (it re-arms when it
  // fires); pulling it in or disarming cancels the event via
  // Simulator::cancel, so no dead closure ever reaches the event loop.
  void arm_timer(Time deadline);
  void cancel_timer();
  void timer_fired();

  sim::Simulator& sim_;
  net::Host& host_;
  FlowParams params_;
  std::unique_ptr<CongestionControl> cc_;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t highest_sent_ = 0;  // high-water mark of transmitted bytes
  bool started_ = false;
  bool complete_ = false;
  bool paused_ = false;  // service_leave gate; see pause()/resume()

  // Fast retransmit / recovery. `recover_point_` persists after recovery
  // exits and implements RFC 6582's "recover" guard: dupACKs belonging to a
  // window that already went through recovery (or an RTO) must not trigger
  // a new fast retransmit, otherwise every stale dupACK cascades into a
  // full spurious recovery that retransmits an entire received window.
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  bool has_recover_point_ = false;

  // SACK scoreboard: received intervals above snd_una, and the hole-scan
  // position of the current recovery episode (everything in
  // [snd_una, rtx_next_) that is unsacked has been retransmitted).
  IntervalList sacked_;
  std::uint64_t rtx_next_ = 0;

  // RTT estimation (RFC 6298).
  Time srtt_ = 0;
  Time rttvar_ = 0;
  int rto_backoff_ = 1;
  std::uint64_t probe_end_seq_ = 0;  // cumulative ACK that completes the probe
  Time probe_sent_at_ = 0;
  bool probe_armed_ = false;

  // Timer bookkeeping. timer_event_ is the pending simulator event (or
  // kNoEvent); timer_event_time_ is when it fires, which may be earlier
  // than timer_deadline_ after the deadline was pushed out.
  bool timer_active_ = false;
  Time timer_deadline_ = 0;
  sim::EventId timer_event_ = sim::kNoEvent;
  Time timer_event_time_ = 0;

  SenderStats stats_;
};

}  // namespace dynaq::transport
