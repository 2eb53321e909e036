// Fault-injection queue disciplines for tests and experiments: wrap any
// link with deterministic or random loss without touching the component
// under test. When attached to a telemetry hub, injected losses emit
// Drop{reason: injected} events, so they stay distinguishable from policy
// drops in every summary.
#pragma once

#include <set>

#include "net/queue_disc.hpp"
#include "sim/random.hpp"

namespace dynaq::net {

namespace detail {

// Telemetry plumbing shared by the loss queues: the wrapper and its inner
// DropTailQueue register under the same observation-point name, and every
// injected loss is emitted on the event bus.
class LossTelemetry {
 public:
  void attach(telemetry::Hub& hub, const std::string& name, QueueDisc& inner) {
    hub_ = &hub;
    tel_port_ = static_cast<std::int16_t>(hub.register_port(name));
    inner.attach_telemetry(hub, name);
  }

  void on_injected(const Packet& p) {
    if (hub_ == nullptr || !hub_->enabled()) return;
    hub_->emit({.kind = telemetry::EventKind::kDrop,
                .reason = telemetry::DropReason::kInjected,
                .port = tel_port_,
                .queue = static_cast<std::int16_t>(p.queue),
                .bytes = p.size,
                .flow = p.flow});
  }

 private:
  telemetry::Hub* hub_ = nullptr;
  std::int16_t tel_port_ = -1;
};

}  // namespace detail

// Drops the data packets whose arrival ordinals (0-based, ACKs excluded)
// are listed — precise loss placement for retransmission-path tests.
class DeterministicLossQueue final : public QueueDisc {
 public:
  explicit DeterministicLossQueue(std::set<std::uint64_t> drop_ordinals,
                                  std::int64_t capacity_bytes = 0)
      : drops_(std::move(drop_ordinals)), inner_(capacity_bytes) {}

  bool enqueue(Packet&& p) override {
    if (!p.is_ack() && drops_.erase(data_seen_++) > 0) {
      ++injected_;
      telemetry_.on_injected(p);
      return false;
    }
    return inner_.enqueue(std::move(p));
  }
  std::optional<Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }
  void attach_telemetry(telemetry::Hub& hub, const std::string& name) override {
    telemetry_.attach(hub, name, inner_);
  }
  std::uint64_t injected_losses() const { return injected_; }

 private:
  std::set<std::uint64_t> drops_;
  std::uint64_t data_seen_ = 0;
  std::uint64_t injected_ = 0;
  DropTailQueue inner_;
  detail::LossTelemetry telemetry_;
};

// Drops each data packet independently with probability `loss_rate` —
// random-loss soak tests (a lossy cable, an overloaded middlebox).
class BernoulliLossQueue final : public QueueDisc {
 public:
  BernoulliLossQueue(double loss_rate, std::uint64_t seed, std::int64_t capacity_bytes = 0)
      : loss_rate_(loss_rate), rng_(seed), inner_(capacity_bytes) {}

  // Changes the loss probability at runtime. The RNG stream keeps
  // advancing one draw per data packet regardless of the rate, so two runs
  // that flip the rate at the same instants see identical draws —
  // determinism is per seed.
  void set_loss_rate(double loss_rate) { loss_rate_ = loss_rate; }
  double loss_rate() const { return loss_rate_; }

  bool enqueue(Packet&& p) override {
    if (!p.is_ack() && rng_.uniform() < loss_rate_) {
      ++injected_;
      telemetry_.on_injected(p);
      return false;
    }
    return inner_.enqueue(std::move(p));
  }
  std::optional<Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }
  void attach_telemetry(telemetry::Hub& hub, const std::string& name) override {
    telemetry_.attach(hub, name, inner_);
  }
  std::uint64_t injected_losses() const { return injected_; }

 private:
  double loss_rate_;
  sim::Rng rng_;
  std::uint64_t injected_ = 0;
  DropTailQueue inner_;
  detail::LossTelemetry telemetry_;
};

// Sets CE on every ECN-capable data packet — a fully congested marking hop
// for DCTCP feedback tests.
class CeMarkAllQueue final : public QueueDisc {
 public:
  bool enqueue(Packet&& p) override {
    if (!p.is_ack() && p.has(kFlagEct)) p.set(kFlagCe);
    return inner_.enqueue(std::move(p));
  }
  std::optional<Packet> dequeue() override { return inner_.dequeue(); }
  bool empty() const override { return inner_.empty(); }
  std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }
  void attach_telemetry(telemetry::Hub& hub, const std::string& name) override {
    inner_.attach_telemetry(hub, name);
  }

 private:
  DropTailQueue inner_;
};

}  // namespace dynaq::net
