// Runtime invariant auditor for the buffer-policy contract (DESIGN.md §6).
//
// AuditedBufferPolicy is a transparent decorator around any net::BufferPolicy:
// it forwards every call to the wrapped policy and, around each one, verifies
// the invariants the DynaQ paper states but ordinary tests only spot-check:
//
//   * ΣT_i = B at all times for threshold-conserving policies (Eq. 1), and
//     T_i ≥ 0 for every advertised threshold;
//   * a rejected admit() leaves the thresholds untouched (no drift without
//     packets entering the buffer);
//   * an admitted packet fits under its queue's threshold when the policy
//     declares threshold-enforced admission (q_p + size ≤ T_p, DESIGN.md §4);
//   * on_admit_aborted() restores the exact pre-admit thresholds
//     (snapshot-diff proof of DynaQController::undo_last_exchange);
//   * evict_candidate() only names in-range, non-empty queues other than the
//     arriving one;
//   * on_buffer_resize() re-derives thresholds for the new B;
//   * port-level packet conservation: the auditor keeps its own ledger of
//     enqueued/dequeued bytes and packets and cross-checks it against the
//     MqState occupancy on every operation (enqueued = dequeued + resident).
//
// Violations become structured diagnostics (sim time, scheme, queue, state
// snapshot) and either throw AuditError (default — fails the test that
// triggered it) or accumulate in violations() for inspection.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/buffer_policy.hpp"
#include "net/mq_state.hpp"
#include "sim/simulator.hpp"

namespace dynaq::check {

enum class ViolationKind {
  kThresholdSumMismatch,  // ΣT != B for a threshold-conserving policy
  kNegativeThreshold,     // some advertised T_i < 0
  kRejectMutatedState,    // admit() returned false but thresholds changed
  kAdmitBeyondThreshold,  // enforcing policy admitted beyond T_q
  kAbortRollbackLeak,     // on_admit_aborted() did not restore pre-admit thresholds
  kBadEvictionVictim,     // victim out of range, == arriving queue, or empty
  kConservationMismatch,  // ledger vs MqState byte/packet accounting drift
  kQueueAccountingDrift,  // queue byte counter != sum of resident packet sizes
  kStaleThresholdWindow,  // ΣT != B persisted beyond threshold_staleness_bound()
};

std::string_view violation_kind_name(ViolationKind kind);

// One contract violation, with enough context to reproduce: which check
// fired, when (sim time, if a simulator was attached), on which policy and
// queue, and the buffer state at that instant.
struct Violation {
  ViolationKind kind = ViolationKind::kThresholdSumMismatch;
  Time when = 0;
  std::string scheme;    // wrapped policy's name()
  std::string where;     // hook that fired the check (e.g. "admit")
  int queue = -1;        // service queue involved; -1 for port-level checks
  std::string detail;    // human-readable specifics with the offending numbers
  std::int64_t buffer_bytes = 0;
  std::int64_t port_bytes = 0;
  std::vector<std::int64_t> thresholds;  // policy thresholds at violation time
};

std::string to_string(const Violation& v);

class AuditError : public std::runtime_error {
 public:
  explicit AuditError(Violation v);
  const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

struct AuditOptions {
  // true: throw AuditError at the first violation (fail fast — the default
  // wired into the harness). false: record into violations() and keep going,
  // which the auditor's own tests use to collect multiple diagnostics.
  bool throw_on_violation = true;
  std::size_t max_recorded = 1024;
  // Every N audited operations, additionally recompute each queue's byte and
  // packet totals from the actual packet rings (O(resident) sweep) and
  // compare with the incremental counters. 0 disables the sweep.
  std::uint64_t deep_check_every = 256;
};

// Monotonic per-port accounting maintained by the auditor, independent of
// MqStats: conservation requires enqueued == dequeued + resident at all times
// (evictions count as dequeues; drops never enter the ledger).
struct AuditLedger {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dequeued_packets = 0;
  std::int64_t enqueued_bytes = 0;
  std::int64_t dequeued_bytes = 0;
  std::uint64_t admits_allowed = 0;
  std::uint64_t admits_rejected = 0;
  std::uint64_t aborts = 0;

  std::int64_t resident_bytes() const { return enqueued_bytes - dequeued_bytes; }
  std::uint64_t resident_packets() const { return enqueued_packets - dequeued_packets; }
};

class AuditedBufferPolicy final : public net::BufferPolicy {
 public:
  // `sim` is optional and only used to stamp diagnostics with the sim time.
  explicit AuditedBufferPolicy(std::unique_ptr<net::BufferPolicy> inner,
                               const sim::Simulator* sim = nullptr, AuditOptions options = {});

  void attach(const net::MqState& state) override;
  bool admit(const net::MqState& state, int q, const net::Packet& p) override;
  void on_admit_aborted(const net::MqState& state, int q, const net::Packet& p) override;
  int evict_candidate(const net::MqState& state, int q, const net::Packet& p) override;
  void on_buffer_resize(const net::MqState& state) override;
  // Mid-run weight rebalance (DESIGN.md §11): ΣT = B must hold again the
  // instant the rebalance returns — this is the audit point the scenario
  // weight_update action is checked at.
  void on_weights_changed(const net::MqState& state) override;
  void on_enqueue(const net::MqState& state, int q, const net::Packet& p) override;
  void on_dequeue(const net::MqState& state, int q, const net::Packet& p) override;

  // The decorator is transparent: introspection reflects the wrapped policy.
  std::vector<std::int64_t> thresholds() const override { return inner_->thresholds(); }
  bool conserves_threshold_sum() const override { return inner_->conserves_threshold_sum(); }
  bool enforces_thresholds() const override { return inner_->enforces_thresholds(); }
  Time threshold_staleness_bound() const override { return inner_->threshold_staleness_bound(); }
  void attach_telemetry(telemetry::Hub& hub, int tel_port) override {
    inner_->attach_telemetry(hub, tel_port);
  }
  telemetry::DropReason last_drop_reason() const override { return inner_->last_drop_reason(); }
  int last_exchange_victim() const override { return inner_->last_exchange_victim(); }
  std::string_view name() const override { return inner_->name(); }

  net::BufferPolicy& inner() { return *inner_; }
  const net::BufferPolicy& inner() const { return *inner_; }

  const std::vector<Violation>& violations() const { return violations_; }
  const AuditLedger& ledger() const { return ledger_; }
  std::uint64_t checks_run() const { return checks_run_; }
  void clear_violations() { violations_.clear(); }

  // Bounded-staleness introspection (DESIGN.md §14): the sim time of the
  // first still-unresolved ΣT ≠ B observation, or -1 when the sum currently
  // balances. Only meaningful for policies with a nonzero staleness bound.
  Time stale_since() const { return stale_since_; }

 private:
  void report(ViolationKind kind, const net::MqState& state, const char* where, int queue,
              std::string detail);
  // ΣT = B (conserving policies) and T_i ≥ 0 on the thresholds it reads
  // into scratch_, where they stay for the caller.
  void check_thresholds(const net::MqState& state, const char* where);
  // Ledger vs MqState: Σq_i == port_bytes, ledger resident == port state.
  void check_conservation(const net::MqState& state, const char* where);
  void deep_check(const net::MqState& state, const char* where);

  std::unique_ptr<net::BufferPolicy> inner_;
  const sim::Simulator* sim_ = nullptr;
  AuditOptions options_;
  AuditLedger ledger_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t ops_since_deep_check_ = 0;
  // Thresholds captured immediately before the last admit(), against which
  // both the reject path and on_admit_aborted() are diffed.
  std::vector<std::int64_t> pre_admit_thresholds_;
  bool pre_admit_valid_ = false;
  std::vector<std::int64_t> scratch_;
  // First audited observation of ΣT ≠ B that has not rebalanced yet; -1
  // while the sum holds. Drives the bounded-staleness window (§14).
  Time stale_since_ = -1;
};

}  // namespace dynaq::check
