#include "recorder.hpp"

#include <string>

#include "alloc_counter.hpp"

namespace perfbench {
namespace {

using dynaq::net::MqState;
using dynaq::net::Packet;

class RecordingPolicy final : public dynaq::net::BufferPolicy {
 public:
  RecordingPolicy(std::unique_ptr<dynaq::net::BufferPolicy> inner, PortLog& port, TraceLog& log)
      : inner_(std::move(inner)), port_(port), log_(log) {}
  ~RecordingPolicy() override { log_.end(port_.span); }
  RecordingPolicy(const RecordingPolicy&) = delete;
  RecordingPolicy& operator=(const RecordingPolicy&) = delete;

  void attach(const MqState& state) override {
    ++port_.counts.other_calls;
    inner_->attach(state);
  }

  bool admit(const MqState& state, int q, const Packet& p) override {
    PortCounts& c = port_.counts;
    ++c.admit_calls;
    if (!p.is_ack()) {
      ++c.data_arrivals;
      if (p.has(dynaq::net::kFlagRetx)) ++c.retx_arrivals;
    }
    const bool admitted = inner_->admit(state, q, p);
    if (admitted) {
      ++c.admitted;
      in_enqueue_ = true;
    } else {
      log(OpKind::kRejected, q, p);
    }
    return admitted;
  }

  void on_admit_aborted(const MqState& state, int q, const Packet& p) override {
    ++port_.counts.aborted;
    in_enqueue_ = false;
    log(OpKind::kAborted, q, p);
    inner_->on_admit_aborted(state, q, p);
  }

  int evict_candidate(const MqState& state, int q, const Packet& p) override {
    ++port_.counts.evict_calls;
    return inner_->evict_candidate(state, q, p);
  }

  void on_buffer_resize(const MqState& state) override {
    ++port_.counts.other_calls;
    inner_->on_buffer_resize(state);
  }

  void on_weights_changed(const MqState& state) override {
    ++port_.counts.other_calls;
    inner_->on_weights_changed(state);
  }

  void on_enqueue(const MqState& state, int q, const Packet& p) override {
    ++port_.counts.enqueues;
    in_enqueue_ = false;
    log(OpKind::kAdmitted, q, p);
    inner_->on_enqueue(state, q, p);
  }

  void on_dequeue(const MqState& state, int q, const Packet& p) override {
    // Inside an admitted enqueue, a dequeue is an eviction the replay's
    // enqueue reproduces by itself.
    if (in_enqueue_) {
      ++port_.counts.evictions;
    } else {
      ++port_.counts.dequeues;
      log(OpKind::kDequeue, q, p);
    }
    inner_->on_dequeue(state, q, p);
  }

  std::vector<std::int64_t> thresholds() const override {
    ++port_.counts.threshold_reads;
    return inner_->thresholds();
  }
  bool conserves_threshold_sum() const override { return inner_->conserves_threshold_sum(); }
  bool enforces_thresholds() const override { return inner_->enforces_thresholds(); }
  dynaq::Time threshold_staleness_bound() const override {
    return inner_->threshold_staleness_bound();
  }
  dynaq::telemetry::DropReason last_drop_reason() const override {
    return inner_->last_drop_reason();
  }
  int last_exchange_victim() const override { return inner_->last_exchange_victim(); }
  void attach_telemetry(dynaq::telemetry::Hub& hub, int tel_port) override {
    ++port_.counts.other_calls;
    inner_->attach_telemetry(hub, tel_port);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  void log(OpKind kind, int q, const Packet& p) {
    const alloc::Pause own_bookkeeping;
    port_.ops.push_back({p.flow, p.size, p.flags, static_cast<std::uint8_t>(q), kind});
  }

  std::unique_ptr<dynaq::net::BufferPolicy> inner_;
  PortLog& port_;
  TraceLog& log_;
  bool in_enqueue_ = false;  // between an admitting admit() and its outcome
};

}  // namespace

PolicyFactory Recorder::factory(const dynaq::core::SchemeSpec& scheme) {
  return [this, scheme](dynaq::sim::Simulator&) -> std::unique_ptr<dynaq::net::BufferPolicy> {
    // The policy is the library's own allocation, so it is counted.
    std::unique_ptr<dynaq::net::BufferPolicy> inner = dynaq::core::make_policy(scheme);
    const alloc::Pause own_bookkeeping;
    auto port = std::make_unique<PortLog>();
    port->span = log_.begin("policy.port" + std::to_string(ports_.size()), parent_span_);
    ports_.push_back(std::move(port));
    return std::make_unique<RecordingPolicy>(std::move(inner), *ports_.back(), log_);
  };
}

PortCounts Recorder::totals() const {
  PortCounts t;
  for (const auto& port : ports_) {
    const PortCounts& c = port->counts;
    t.admit_calls += c.admit_calls;
    t.admitted += c.admitted;
    t.aborted += c.aborted;
    t.enqueues += c.enqueues;
    t.dequeues += c.dequeues;
    t.evictions += c.evictions;
    t.evict_calls += c.evict_calls;
    t.threshold_reads += c.threshold_reads;
    t.data_arrivals += c.data_arrivals;
    t.retx_arrivals += c.retx_arrivals;
    t.other_calls += c.other_calls;
  }
  return t;
}

int Recorder::busiest_port() const {
  int best = -1;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (best < 0 || ports_[i]->ops.size() > ports_[static_cast<std::size_t>(best)]->ops.size()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace perfbench
