// A unidirectional-transmit network port: a queue discipline feeding a
// serializing transmitter connected to a peer port over a propagation-delay
// channel. Two ports connected back-to-back form a full-duplex link.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "net/packet.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"

namespace dynaq::net {

class Port {
 public:
  Port(sim::Simulator& sim, double rate_bps, Time propagation_delay,
       std::unique_ptr<QueueDisc> qdisc)
      : sim_(sim),
        rate_bps_(rate_bps),
        prop_delay_(propagation_delay),
        qdisc_(std::move(qdisc)) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Sets the port at the other end of the wire. Must be called on both
  // ports (see connect()).
  void set_peer(Port* peer) { peer_ = peer; }

  // Handler invoked at the owning node when a packet arrives from the wire.
  void set_receiver(std::function<void(Packet&&)> receiver) { receiver_ = std::move(receiver); }

  // Queues `p` for transmission, kicking the transmitter if idle. Returns
  // false when the queue discipline dropped the packet.
  bool send(Packet&& p) {
    const bool queued = qdisc_->enqueue(std::move(p));
    if (!transmitting_ && !down_) start_transmission();
    return queued;
  }

  // ---- runtime link control (scenario link actions, DESIGN.md §11) ------
  // Takes the link down: the in-flight serialization event is cancelled via
  // Simulator::cancel — no dead closure ever fires — and the packet being
  // serialized is lost with it. Bits already propagating (the peer-deliver
  // closure) still arrive: they left the port before the cut. The queue
  // discipline keeps buffering while the link is down.
  void set_link_down() {
    if (down_) return;
    down_ = true;
    if (tx_event_ != sim::kNoEvent) {
      sim_.cancel(tx_event_);
      tx_event_ = sim::kNoEvent;
      ++packets_lost_link_down_;
    }
    transmitting_ = false;
  }

  // Brings the link back up and restarts transmission from the backlog.
  void set_link_up() {
    if (!down_) return;
    down_ = false;
    if (!transmitting_) start_transmission();
  }

  // Rewrites the line rate; takes effect from the next packet's
  // serialization (the in-flight packet finishes at the old rate).
  void set_rate(double rate_bps) {
    if (rate_bps <= 0.0) return;
    rate_bps_ = rate_bps;
  }

  QueueDisc& qdisc() { return *qdisc_; }
  const QueueDisc& qdisc() const { return *qdisc_; }
  double rate_bps() const { return rate_bps_; }
  Time propagation_delay() const { return prop_delay_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::int64_t bytes_sent() const { return bytes_sent_; }
  bool busy() const { return transmitting_; }
  bool link_down() const { return down_; }
  std::uint64_t packets_lost_link_down() const { return packets_lost_link_down_; }

  // Registers this port on the telemetry hub under `name`: wire records
  // (transmit-start / deliver, consumed by PacketTracer) flow to the hub's
  // wire listeners, and the queue discipline is registered under the same
  // observation-point name. The hub must outlive the port.
  void attach_telemetry(telemetry::Hub& hub, const std::string& name) {
    hub_ = &hub;
    tel_port_ = static_cast<std::int16_t>(hub.register_port(name));
    qdisc_->attach_telemetry(hub, name);
  }

  // Called by the peer's transmitter after the propagation delay.
  void deliver(Packet&& p) {
    if (hub_ != nullptr && hub_->wants_wire()) emit_wire(p, /*transmit=*/false);
    if (receiver_) receiver_(std::move(p));
  }

 private:
  void emit_wire(const Packet& p, bool transmit) {
    hub_->emit_wire({.port = tel_port_,
                     .transmit = transmit,
                     .is_ack = p.is_ack(),
                     .retx = p.has(kFlagRetx),
                     .ce = p.has(kFlagCe),
                     .queue = p.queue,
                     .size = p.size,
                     .flow = p.flow,
                     .seq = p.seq});
  }

  void start_transmission() {
    if (down_) return;
    auto next = qdisc_->dequeue();
    if (!next) return;
    transmitting_ = true;
    ++packets_sent_;
    bytes_sent_ += next->size;
    if (hub_ != nullptr && hub_->wants_wire()) emit_wire(*next, /*transmit=*/true);
    const Time tx = transmission_time(next->size, rate_bps_);
    // Serialization completes at now+tx; the last bit reaches the peer one
    // propagation delay later. The serialization event is tracked in
    // tx_event_ so set_link_down() can cancel it (losing the packet with
    // it); the propagate closure is untracked on purpose — those bits
    // already left the port.
    tx_event_ = sim_.schedule_in(tx, [this, pkt = std::move(*next)]() mutable {
      tx_event_ = sim::kNoEvent;
      Port* peer = peer_;
      if (peer != nullptr) {
        sim_.schedule_in(prop_delay_, [peer, p = std::move(pkt)]() mutable {
          peer->deliver(std::move(p));
        });
      }
      transmitting_ = false;
      start_transmission();
    });
  }

  sim::Simulator& sim_;
  double rate_bps_;
  Time prop_delay_;
  std::unique_ptr<QueueDisc> qdisc_;
  Port* peer_ = nullptr;
  std::function<void(Packet&&)> receiver_;
  bool transmitting_ = false;
  bool down_ = false;
  sim::EventId tx_event_ = sim::kNoEvent;
  std::uint64_t packets_sent_ = 0;
  std::int64_t bytes_sent_ = 0;
  std::uint64_t packets_lost_link_down_ = 0;
  telemetry::Hub* hub_ = nullptr;
  std::int16_t tel_port_ = -1;
};

// Wires two ports into a full-duplex link.
inline void connect(Port& a, Port& b) {
  a.set_peer(&b);
  b.set_peer(&a);
}

}  // namespace dynaq::net
