#include "check/invariant_auditor.hpp"

#include <sstream>
#include <utility>

namespace dynaq::check {

std::string_view violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kThresholdSumMismatch: return "threshold-sum-mismatch";
    case ViolationKind::kNegativeThreshold: return "negative-threshold";
    case ViolationKind::kRejectMutatedState: return "reject-mutated-state";
    case ViolationKind::kAdmitBeyondThreshold: return "admit-beyond-threshold";
    case ViolationKind::kAbortRollbackLeak: return "abort-rollback-leak";
    case ViolationKind::kBadEvictionVictim: return "bad-eviction-victim";
    case ViolationKind::kConservationMismatch: return "conservation-mismatch";
    case ViolationKind::kQueueAccountingDrift: return "queue-accounting-drift";
    case ViolationKind::kStaleThresholdWindow: return "stale-threshold-window";
  }
  return "?";
}

std::string to_string(const Violation& v) {
  std::ostringstream os;
  os << "[audit:" << violation_kind_name(v.kind) << "] scheme=" << v.scheme << " in=" << v.where
     << " t=" << to_microseconds(v.when) << "us";
  if (v.queue >= 0) os << " queue=" << v.queue;
  os << " B=" << v.buffer_bytes << " port_bytes=" << v.port_bytes;
  if (!v.thresholds.empty()) {
    os << " T=[";
    for (std::size_t i = 0; i < v.thresholds.size(); ++i) {
      if (i > 0) os << ",";
      os << v.thresholds[i];
    }
    os << "]";
  }
  os << ": " << v.detail;
  return os.str();
}

AuditError::AuditError(Violation v) : std::runtime_error(to_string(v)), violation_(std::move(v)) {}

AuditedBufferPolicy::AuditedBufferPolicy(std::unique_ptr<net::BufferPolicy> inner,
                                         const sim::Simulator* sim, AuditOptions options)
    : inner_(std::move(inner)), sim_(sim), options_(options) {
  if (!inner_) throw std::invalid_argument("AuditedBufferPolicy needs a policy to wrap");
}

void AuditedBufferPolicy::report(ViolationKind kind, const net::MqState& state, const char* where,
                                 int queue, std::string detail) {
  Violation v;
  v.kind = kind;
  v.when = sim_ != nullptr ? sim_->now() : 0;
  v.scheme = std::string(inner_->name());
  v.where = where;
  v.queue = queue;
  v.detail = std::move(detail);
  v.buffer_bytes = state.buffer_bytes;
  v.port_bytes = state.port_bytes;
  v.thresholds = inner_->thresholds();
  if (options_.throw_on_violation) throw AuditError(std::move(v));
  if (violations_.size() < options_.max_recorded) violations_.push_back(std::move(v));
}

void AuditedBufferPolicy::check_thresholds(const net::MqState& state, const char* where) {
  ++checks_run_;
  scratch_ = inner_->thresholds();
  if (scratch_.empty()) return;  // policy has no threshold notion (e.g. BestEffort)
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    sum += scratch_[i];
    if (scratch_[i] < 0) {
      std::ostringstream os;
      os << "T_" << i << " = " << scratch_[i] << " < 0";
      report(ViolationKind::kNegativeThreshold, state, where, static_cast<int>(i), os.str());
    }
  }
  if (!inner_->conserves_threshold_sum()) return;
  if (sum == state.buffer_bytes) {
    stale_since_ = -1;  // the sum re-balanced; close any staleness window
    return;
  }
  // Bounded staleness (DESIGN.md §14): an asynchronously-updated policy may
  // run on stale thresholds after a resize/weight change until the next
  // control update commits, so ΣT = B is checked at commit points rather
  // than mid-flight. The drift still has a hard deadline: the first
  // mismatched observation opens a window, and a mismatch persisting past
  // the policy's declared bound is a violation. Without a simulator there
  // is no clock to bound the window, so the strict check applies.
  const Time bound = inner_->threshold_staleness_bound();
  if (bound > 0 && sim_ != nullptr) {
    const Time now = sim_->now();
    if (stale_since_ < 0) stale_since_ = now;
    if (now - stale_since_ > bound) {
      std::ostringstream os;
      os << "sum(T) = " << sum << " != B = " << state.buffer_bytes << " for "
         << to_microseconds(now - stale_since_) << "us > staleness bound "
         << to_microseconds(bound) << "us";
      report(ViolationKind::kStaleThresholdWindow, state, where, -1, os.str());
      stale_since_ = now;  // one violation per expired window in record mode
    }
    return;
  }
  std::ostringstream os;
  os << "sum(T) = " << sum << " != B = " << state.buffer_bytes;
  report(ViolationKind::kThresholdSumMismatch, state, where, -1, os.str());
}

void AuditedBufferPolicy::check_conservation(const net::MqState& state, const char* where) {
  ++checks_run_;
  std::int64_t queue_bytes = 0;
  std::uint64_t queue_packets = 0;
  for (const net::ServiceQueue& q : state.queues) {
    queue_bytes += q.bytes;
    queue_packets += q.packets.size();
  }
  if (queue_bytes != state.port_bytes) {
    std::ostringstream os;
    os << "sum(q_i) = " << queue_bytes << " != port_bytes = " << state.port_bytes;
    report(ViolationKind::kConservationMismatch, state, where, -1, os.str());
  }
  if (ledger_.resident_bytes() != state.port_bytes ||
      ledger_.resident_packets() != queue_packets) {
    std::ostringstream os;
    os << "ledger: enqueued(" << ledger_.enqueued_bytes << "B/" << ledger_.enqueued_packets
       << "p) - dequeued(" << ledger_.dequeued_bytes << "B/" << ledger_.dequeued_packets
       << "p) != resident(" << state.port_bytes << "B/" << queue_packets << "p)";
    report(ViolationKind::kConservationMismatch, state, where, -1, os.str());
  }
  if (options_.deep_check_every > 0 && ++ops_since_deep_check_ >= options_.deep_check_every) {
    ops_since_deep_check_ = 0;
    deep_check(state, where);
  }
}

void AuditedBufferPolicy::deep_check(const net::MqState& state, const char* where) {
  ++checks_run_;
  for (int i = 0; i < state.num_queues(); ++i) {
    const net::ServiceQueue& q = state.queue(i);
    std::int64_t bytes = 0;
    for (const net::Packet& p : q.packets) bytes += p.size;
    if (bytes != q.bytes) {
      std::ostringstream os;
      os << "queue byte counter " << q.bytes << " != sum of " << q.packets.size()
         << " resident packet sizes " << bytes;
      report(ViolationKind::kQueueAccountingDrift, state, where, i, os.str());
    }
  }
}

void AuditedBufferPolicy::attach(const net::MqState& state) {
  inner_->attach(state);
  ledger_ = AuditLedger{};
  ops_since_deep_check_ = 0;
  pre_admit_valid_ = false;
  stale_since_ = -1;
  check_thresholds(state, "attach");
}

bool AuditedBufferPolicy::admit(const net::MqState& state, int q, const net::Packet& p) {
  pre_admit_thresholds_ = inner_->thresholds();
  pre_admit_valid_ = true;
  const bool admitted = inner_->admit(state, q, p);
  // Leaves the post-admit thresholds in scratch_, which both checks below
  // read: nothing can change the thresholds between here and there.
  check_thresholds(state, "admit");
  if (admitted) {
    ++ledger_.admits_allowed;
    if (inner_->enforces_thresholds()) {
      // Threshold-enforced admission (DESIGN.md §4): the arriving queue must
      // fit under its (possibly just-raised) threshold. Victim queues may
      // transiently exceed their reduced T_v; only the arrival is checked.
      if (q >= 0 && static_cast<std::size_t>(q) < scratch_.size() &&
          state.queue(q).bytes + p.size > scratch_[static_cast<std::size_t>(q)]) {
        std::ostringstream os;
        os << "admitted with q_p + size = " << state.queue(q).bytes + p.size
           << " > T_p = " << scratch_[static_cast<std::size_t>(q)];
        report(ViolationKind::kAdmitBeyondThreshold, state, "admit", q, os.str());
      }
    }
  } else {
    ++ledger_.admits_rejected;
    // A rejected packet must leave the policy state untouched: the qdisc
    // never calls on_admit_aborted() for it, so any mutation here is drift.
    if (scratch_ != pre_admit_thresholds_) {
      report(ViolationKind::kRejectMutatedState, state, "admit", q,
             "admit() returned false but thresholds changed");
    }
    pre_admit_valid_ = false;
  }
  return admitted;
}

void AuditedBufferPolicy::on_admit_aborted(const net::MqState& state, int q,
                                           const net::Packet& p) {
  inner_->on_admit_aborted(state, q, p);
  ++ledger_.aborts;
  ++checks_run_;
  // Snapshot-diff proof of exact rollback: after the abort the thresholds
  // must equal what they were immediately before the aborted admit().
  if (pre_admit_valid_ && inner_->thresholds() != pre_admit_thresholds_) {
    std::ostringstream os;
    os << "on_admit_aborted() did not restore pre-admit thresholds; expected [";
    for (std::size_t i = 0; i < pre_admit_thresholds_.size(); ++i) {
      if (i > 0) os << ",";
      os << pre_admit_thresholds_[i];
    }
    os << "]";
    report(ViolationKind::kAbortRollbackLeak, state, "on_admit_aborted", q, os.str());
  }
  pre_admit_valid_ = false;
  check_thresholds(state, "on_admit_aborted");
}

int AuditedBufferPolicy::evict_candidate(const net::MqState& state, int q, const net::Packet& p) {
  const int victim = inner_->evict_candidate(state, q, p);
  ++checks_run_;
  if (victim >= 0) {  // -1 is the legal "decline" answer
    if (victim >= state.num_queues()) {
      std::ostringstream os;
      os << "victim " << victim << " out of range (M = " << state.num_queues() << ")";
      report(ViolationKind::kBadEvictionVictim, state, "evict_candidate", q, os.str());
    } else if (victim == q) {
      report(ViolationKind::kBadEvictionVictim, state, "evict_candidate", q,
             "victim equals the arriving queue");
    } else if (state.queue(victim).empty()) {
      std::ostringstream os;
      os << "victim " << victim << " is empty";
      report(ViolationKind::kBadEvictionVictim, state, "evict_candidate", q, os.str());
    }
  }
  return victim;
}

void AuditedBufferPolicy::on_buffer_resize(const net::MqState& state) {
  inner_->on_buffer_resize(state);
  pre_admit_valid_ = false;  // resize invalidates any pending admit snapshot
  check_thresholds(state, "on_buffer_resize");
}

void AuditedBufferPolicy::on_weights_changed(const net::MqState& state) {
  inner_->on_weights_changed(state);
  pre_admit_valid_ = false;  // the rebalance invalidates any pending admit snapshot
  check_thresholds(state, "on_weights_changed");
}

void AuditedBufferPolicy::on_enqueue(const net::MqState& state, int q, const net::Packet& p) {
  inner_->on_enqueue(state, q, p);
  pre_admit_valid_ = false;  // the admitted packet is in; the snapshot is spent
  ++ledger_.enqueued_packets;
  ledger_.enqueued_bytes += p.size;
  check_conservation(state, "on_enqueue");
}

void AuditedBufferPolicy::on_dequeue(const net::MqState& state, int q, const net::Packet& p) {
  inner_->on_dequeue(state, q, p);
  ++ledger_.dequeued_packets;
  ledger_.dequeued_bytes += p.size;
  check_conservation(state, "on_dequeue");
}

}  // namespace dynaq::check
