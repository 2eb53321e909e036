// Invariant-auditor tests: deliberately broken buffer policies that the
// auditor must flag, plus property tests that the honest policies — the
// whole scheme catalogue — run clean under audit (the tier-1 suite itself
// runs audited via harness defaults; these tests exercise the auditor's
// own detection logic).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/policies.hpp"
#include "core/scheme.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "net/multi_queue_qdisc.hpp"
#include "net/schedulers.hpp"
#include "sim/simulator.hpp"
#include "topo/scheduler_factory.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq {
namespace {

using check::AuditedBufferPolicy;
using check::AuditOptions;
using check::ViolationKind;

// A policy that commits every sin in the contract, selectable per test:
// advertises ΣT = B conservation and threshold enforcement but leaks
// threshold on abort, names illegal eviction victims, reports a wrong sum,
// admits beyond its thresholds, and mutates state on rejected admits.
struct Sins {
  bool bad_sum = false;            // thresholds sum to B - 1000
  bool negative_threshold = false; // T_0 = -1
  bool leak_on_abort = false;      // on_admit_aborted() restores nothing
  bool admit_beyond = false;       // admits packets that exceed T_q
  bool mutate_on_reject = false;   // shifts thresholds on a rejected admit
  int evict_victim = -1;           // forced evict_candidate() answer
};

class BrokenPolicy final : public net::BufferPolicy {
 public:
  explicit BrokenPolicy(Sins sins) : sins_(sins) {}

  void attach(const net::MqState& state) override {
    const auto share = state.buffer_bytes / state.num_queues();
    thresholds_.assign(state.queues.size(), share);
    thresholds_.back() += state.buffer_bytes - share * state.num_queues();
    if (sins_.bad_sum) thresholds_.back() -= 1000;
    if (sins_.negative_threshold) {
      thresholds_.back() += thresholds_.front() + 1;
      thresholds_.front() = -1;
    }
  }

  bool admit(const net::MqState& state, int q, const net::Packet& p) override {
    const auto qi = static_cast<std::size_t>(q);
    if (state.queue(q).bytes + p.size <= thresholds_[qi]) return true;
    if (sins_.admit_beyond) return true;
    if (sins_.mutate_on_reject) {
      // Drift: takes buffer from another queue even though the packet drops.
      thresholds_[qi] += p.size;
      thresholds_[(qi + 1) % thresholds_.size()] -= p.size;
      return false;
    }
    // A "DynaQ-like" exchange that on_admit_aborted() may fail to undo.
    thresholds_[qi] += p.size;
    thresholds_[(qi + 1) % thresholds_.size()] -= p.size;
    return true;
  }

  void on_admit_aborted(const net::MqState&, int q, const net::Packet& p) override {
    if (sins_.leak_on_abort) return;  // the leak: borrowed threshold kept
    const auto qi = static_cast<std::size_t>(q);
    thresholds_[qi] -= p.size;
    thresholds_[(qi + 1) % thresholds_.size()] += p.size;
  }

  int evict_candidate(const net::MqState&, int, const net::Packet&) override {
    return sins_.evict_victim;
  }

  std::vector<std::int64_t> thresholds() const override { return thresholds_; }
  bool conserves_threshold_sum() const override { return true; }
  bool enforces_thresholds() const override { return true; }
  std::string_view name() const override { return "broken"; }

 private:
  Sins sins_;
  std::vector<std::int64_t> thresholds_;
};

net::MqState small_state(int queues = 2, std::int64_t buffer = 10'000) {
  net::MqState s;
  s.queues.resize(static_cast<std::size_t>(queues));
  s.buffer_bytes = buffer;
  return s;
}

AuditedBufferPolicy make_audited(Sins sins) {
  AuditOptions opts;
  opts.throw_on_violation = false;
  return AuditedBufferPolicy(std::make_unique<BrokenPolicy>(sins), nullptr, opts);
}

// ------------------------------------------- individual detections --

TEST(Auditor, FlagsThresholdSumMismatch) {
  auto audited = make_audited({.bad_sum = true});
  audited.attach(small_state());
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kThresholdSumMismatch);
}

TEST(Auditor, FlagsNegativeThreshold) {
  auto audited = make_audited({.negative_threshold = true});
  audited.attach(small_state());
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kNegativeThreshold);
  EXPECT_EQ(audited.violations()[0].queue, 0);
}

TEST(Auditor, FlagsAbortRollbackLeak) {
  auto audited = make_audited({.leak_on_abort = true});
  auto state = small_state();
  audited.attach(state);
  // Fill queue 0 beyond its threshold so admit() performs the exchange,
  // then abort: the leak leaves the exchange in place.
  state.queue(0).bytes = 5'000;
  state.port_bytes = 5'000;
  const auto p = net::make_data_packet(1, 0, 1, 0, 1460);
  ASSERT_TRUE(audited.admit(state, 0, p));
  EXPECT_TRUE(audited.violations().empty());
  audited.on_admit_aborted(state, 0, p);
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kAbortRollbackLeak);
  EXPECT_EQ(audited.ledger().aborts, 1u);
}

TEST(Auditor, ExactRollbackPassesSnapshotDiff) {
  auto audited = make_audited({});
  auto state = small_state();
  audited.attach(state);
  state.queue(0).bytes = 5'000;
  state.port_bytes = 5'000;
  const auto p = net::make_data_packet(1, 0, 1, 0, 1460);
  ASSERT_TRUE(audited.admit(state, 0, p));
  audited.on_admit_aborted(state, 0, p);
  EXPECT_TRUE(audited.violations().empty());
}

TEST(Auditor, FlagsAdmitBeyondThreshold) {
  auto audited = make_audited({.admit_beyond = true});
  auto state = small_state();
  audited.attach(state);
  state.queue(0).bytes = 4'990;  // T_0 = 5000; a 1500 B packet cannot fit
  state.port_bytes = 4'990;
  ASSERT_TRUE(audited.admit(state, 0, net::make_data_packet(1, 0, 1, 0, 1460)));
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kAdmitBeyondThreshold);
}

TEST(Auditor, FlagsRejectThatMutatesState) {
  auto audited = make_audited({.mutate_on_reject = true});
  auto state = small_state();
  audited.attach(state);
  state.queue(0).bytes = 4'990;
  state.port_bytes = 4'990;
  EXPECT_FALSE(audited.admit(state, 0, net::make_data_packet(1, 0, 1, 0, 1460)));
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kRejectMutatedState);
}

TEST(Auditor, FlagsIllegalEvictionVictims) {
  auto state = small_state(/*queues=*/3);
  const auto p = net::make_data_packet(1, 0, 1, 0, 1460);
  state.queue(1).packets.push_back(p);  // only queue 1 is non-empty
  state.queue(1).bytes = p.size;
  state.port_bytes = p.size;

  auto self = make_audited({.evict_victim = 0});
  self.attach(state);
  self.evict_candidate(state, 0, p);
  ASSERT_FALSE(self.violations().empty());
  EXPECT_EQ(self.violations()[0].kind, ViolationKind::kBadEvictionVictim);

  auto empty = make_audited({.evict_victim = 2});
  empty.attach(state);
  empty.evict_candidate(state, 0, p);
  ASSERT_FALSE(empty.violations().empty());
  EXPECT_EQ(empty.violations()[0].kind, ViolationKind::kBadEvictionVictim);

  auto range = make_audited({.evict_victim = 17});
  range.attach(state);
  range.evict_candidate(state, 0, p);
  ASSERT_FALSE(range.violations().empty());
  EXPECT_EQ(range.violations()[0].kind, ViolationKind::kBadEvictionVictim);

  auto legal = make_audited({.evict_victim = 1});
  legal.attach(state);
  legal.evict_candidate(state, 0, p);
  EXPECT_TRUE(legal.violations().empty());

  auto decline = make_audited({.evict_victim = -1});
  decline.attach(state);
  decline.evict_candidate(state, 0, p);
  EXPECT_TRUE(decline.violations().empty());
}

TEST(Auditor, FlagsConservationMismatch) {
  auto audited = make_audited({});
  auto state = small_state();
  audited.attach(state);
  // Port counter says 3000 resident bytes but the queues hold 1500: the
  // independent ledger and the Σq_i cross-check both fire.
  const auto p = net::make_data_packet(1, 0, 1, 0, 1460);
  state.queue(0).packets.push_back(p);
  state.queue(0).bytes = p.size;
  state.port_bytes = 2 * p.size;
  audited.on_enqueue(state, 0, p);
  ASSERT_FALSE(audited.violations().empty());
  EXPECT_EQ(audited.violations()[0].kind, ViolationKind::kConservationMismatch);
}

TEST(Auditor, DeepCheckCatchesQueueByteDrift) {
  AuditOptions opts;
  opts.throw_on_violation = false;
  opts.deep_check_every = 1;  // sweep on every operation
  AuditedBufferPolicy audited(std::make_unique<BrokenPolicy>(Sins{}), nullptr, opts);
  auto state = small_state();
  audited.attach(state);
  auto p = net::make_data_packet(1, 0, 1, 0, 1460);
  state.queue(0).packets.push_back(p);
  state.queue(0).bytes = p.size + 7;  // counter drifted from the deque contents
  state.port_bytes = p.size + 7;
  audited.on_enqueue(state, 0, p);
  bool found = false;
  for (const auto& v : audited.violations()) {
    found = found || v.kind == ViolationKind::kQueueAccountingDrift;
  }
  EXPECT_TRUE(found);
}

TEST(Auditor, ThrowModeRaisesAuditError) {
  AuditedBufferPolicy audited(std::make_unique<BrokenPolicy>(Sins{.bad_sum = true}));
  EXPECT_THROW(audited.attach(small_state()), check::AuditError);
}

TEST(Auditor, DiagnosticsCarrySchemeAndState) {
  auto audited = make_audited({.bad_sum = true});
  audited.attach(small_state());
  ASSERT_FALSE(audited.violations().empty());
  const check::Violation& v = audited.violations()[0];
  EXPECT_EQ(v.scheme, "broken");
  EXPECT_EQ(v.where, "attach");
  EXPECT_EQ(v.buffer_bytes, 10'000);
  EXPECT_EQ(v.thresholds.size(), 2u);
  const std::string text = check::to_string(v);
  EXPECT_NE(text.find("threshold-sum-mismatch"), std::string::npos);
  EXPECT_NE(text.find("broken"), std::string::npos);
}

// ------------------------- the acceptance fixture: qdisc end-to-end --

// Driving a fully broken policy through a real MultiQueueQdisc must trip
// at least three distinct diagnostics (ISSUE acceptance criterion).
TEST(Auditor, BrokenPolicyTripsThreeDistinctDiagnosticsThroughQdisc) {
  sim::Simulator sim;
  AuditOptions opts;
  opts.throw_on_violation = false;
  auto audited = std::make_unique<AuditedBufferPolicy>(
      std::make_unique<BrokenPolicy>(Sins{.bad_sum = true,
                                          .leak_on_abort = true,
                                          .admit_beyond = true,
                                          .evict_victim = 0}),
      &sim, opts);
  AuditedBufferPolicy* auditor = audited.get();
  net::MultiQueueQdisc qdisc(sim, {1, 1}, /*buffer_bytes=*/6'000, std::move(audited),
                             std::make_unique<net::DrrScheduler>(1500));
  // Overfill queue 0: the bad sum fires at attach, admit-beyond-threshold
  // once q_0 exceeds its 3 KB share, eviction self-victim when the port is
  // physically full, and the rollback leak on the final abort.
  for (int i = 0; i < 8; ++i) {
    net::Packet p = net::make_data_packet(1, 0, 1, static_cast<std::uint64_t>(i) * 1460, 1460);
    qdisc.enqueue(std::move(p));
  }
  std::set<ViolationKind> kinds;
  for (const auto& v : auditor->violations()) kinds.insert(v.kind);
  EXPECT_GE(kinds.size(), 3u) << "expected >= 3 distinct diagnostics, got "
                              << auditor->violations().size() << " violations";
  EXPECT_TRUE(kinds.count(ViolationKind::kThresholdSumMismatch));
  EXPECT_TRUE(kinds.count(ViolationKind::kAdmitBeyondThreshold));
  EXPECT_TRUE(kinds.count(ViolationKind::kBadEvictionVictim));
}

// ----------------------------------------- honest policies run clean --

// Every scheme in the catalogue, driven end-to-end through the star
// harness with the auditor in fail-fast mode (the harness default):
// a violation would abort the run with check::AuditError.
TEST(AuditorProperty, AllSchemesRunCleanUnderAudit) {
  for (core::SchemeKind kind :
       {core::SchemeKind::kDynaQ, core::SchemeKind::kDynaQEvict, core::SchemeKind::kBestEffort,
        core::SchemeKind::kPql, core::SchemeKind::kDynamicThreshold, core::SchemeKind::kDynaQEcn,
        core::SchemeKind::kTcn, core::SchemeKind::kPmsb, core::SchemeKind::kPerQueueEcn,
        core::SchemeKind::kMqEcn, core::SchemeKind::kLongestQueueDrop,
        core::SchemeKind::kHarmonic}) {
    harness::StaticExperimentConfig cfg;
    cfg.star.num_hosts = 3;
    cfg.star.queue_weights = {1, 2};
    cfg.star.buffer_bytes = 40'000;  // small buffer: exercise drops/exchanges
    cfg.star.scheme.kind = kind;
    cfg.star.scheme.ecn.port_threshold_bytes = 15'000;
    cfg.star.scheme.ecn.capacity_bps = 1e9;
    cfg.star.scheme.ecn.rtt = microseconds(std::int64_t{500});
    cfg.groups = {{.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
                   .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
                  {.queue = 1, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
                   .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno}};
    cfg.duration = milliseconds(std::int64_t{300});
    const auto r = harness::run_static_experiment(cfg);
    EXPECT_GT(r.telemetry.enqueues, 0u) << scheme_name(kind);
  }
}

// Every harness entry point runs its switch policies under the auditor: a
// policy whose thresholds do not sum to B stops each of them at the first
// check.
TEST(AuditorProperty, EveryHarnessEntryPointAudits) {
  const auto broken = [](sim::Simulator&) {
    return std::make_unique<BrokenPolicy>(Sins{.bad_sum = true});
  };

  harness::StaticExperimentConfig st;
  st.star.num_hosts = 3;
  st.star.queue_weights = {1, 1};
  st.star.scheme.custom_policy_sim = broken;
  st.groups = {{.queue = 0, .num_flows = 1, .first_src_host = 1, .num_src_hosts = 1}};
  st.duration = milliseconds(std::int64_t{10});
  EXPECT_THROW(harness::run_static_experiment(st), check::AuditError);

  harness::DynamicStarConfig ds;
  ds.star.queue_weights = {1, 1, 1};
  ds.star.scheme.custom_policy_sim = broken;
  ds.num_flows = 10;
  ds.dist = &workload::web_search_workload();
  EXPECT_THROW(harness::run_dynamic_star_experiment(ds), check::AuditError);

  harness::DynamicLeafSpineConfig ls;
  ls.fabric.num_leaves = 2;
  ls.fabric.num_spines = 2;
  ls.fabric.hosts_per_leaf = 2;
  ls.fabric.scheme.custom_policy_sim = broken;
  ls.num_flows = 10;
  EXPECT_THROW(harness::run_dynamic_leaf_spine_experiment(ls), check::AuditError);
}

// TNA-staleness ablation runs Algorithm 1 on stale queue depths; the
// enforcement recheck is declared unsound there and must stay disabled
// while ΣT = B auditing still applies.
TEST(AuditorProperty, StaleQueueInfoModeRunsCleanUnderAudit) {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 3;
  cfg.star.buffer_bytes = 40'000;
  cfg.star.queue_weights = {1, 1};
  cfg.star.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.star.scheme.dynaq.stale_queue_info = true;
  cfg.groups = {{.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
                 .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
                {.queue = 1, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
                 .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno}};
  cfg.duration = milliseconds(std::int64_t{300});
  const auto r = harness::run_static_experiment(cfg);
  EXPECT_GT(r.telemetry.enqueues, 0u);
}

// Runtime buffer resizes (§III-B3) must re-derive thresholds so ΣT tracks
// the new B — audited in fail-fast mode end-to-end.
TEST(AuditorProperty, ResizeKeepsContractUnderAudit) {
  sim::Simulator sim;
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQ;
  spec.audit = true;
  auto qdisc = core::make_mq_qdisc(sim, {1, 1, 1}, 30'000, spec,
                                   topo::make_scheduler(topo::SchedulerKind::kDrr));
  for (int i = 0; i < 12; ++i) {
    qdisc->enqueue(net::make_data_packet(1, 0, 1, static_cast<std::uint64_t>(i) * 1460, 1460));
  }
  qdisc->resize_buffer(12'000);   // shrink below the current backlog
  qdisc->resize_buffer(120'000);  // grow
  for (int i = 0; i < 12; ++i) {
    qdisc->enqueue(net::make_data_packet(1, 0, 1, static_cast<std::uint64_t>(i) * 1460, 1460));
    qdisc->dequeue();
  }
  while (qdisc->dequeue().has_value()) {
  }
  auto& auditor = dynamic_cast<AuditedBufferPolicy&>(qdisc->policy());
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.ledger().resident_bytes(), 0);
}

// The eviction scheme exercises the evict_candidate() path for real:
// overfill a DynaQ+Evict port and let the auditor watch every eviction.
TEST(AuditorProperty, EvictionSchemeRunsCleanUnderAudit) {
  sim::Simulator sim;
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQEvict;
  spec.audit = true;
  auto qdisc = core::make_mq_qdisc(sim, {1, 1}, 8'000, spec,
                                   topo::make_scheduler(topo::SchedulerKind::kDrr));
  for (int q = 0; q < 2; ++q) {
    for (int i = 0; i < 10; ++i) {
      net::Packet p =
          net::make_data_packet(1, 0, 1, static_cast<std::uint64_t>(i) * 1460, 1460);
      p.queue = static_cast<std::uint8_t>(q);
      qdisc->enqueue(std::move(p));
    }
  }
  const auto& stats = qdisc->stats();
  EXPECT_GT(stats.enqueued, 0u);
  auto& auditor = dynamic_cast<AuditedBufferPolicy&>(qdisc->policy());
  EXPECT_TRUE(auditor.violations().empty());
}

// -------------------------------------------------- transparency --

TEST(Auditor, DecoratorIsTransparent) {
  AuditedBufferPolicy audited(std::make_unique<core::DynaQPolicy>());
  EXPECT_EQ(audited.name(), "dynaq");
  EXPECT_TRUE(audited.conserves_threshold_sum());
  EXPECT_TRUE(audited.enforces_thresholds());
  auto state = small_state();
  audited.attach(state);
  EXPECT_EQ(audited.thresholds(), audited.inner().thresholds());
}

TEST(Auditor, LedgerBalancesThroughQdisc) {
  sim::Simulator sim;
  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kDynaQ;
  spec.audit = true;
  auto qdisc = core::make_mq_qdisc(sim, {1, 1}, 30'000, spec,
                                   topo::make_scheduler(topo::SchedulerKind::kDrr));
  for (int i = 0; i < 6; ++i) {
    qdisc->enqueue(net::make_data_packet(1, 0, 1, static_cast<std::uint64_t>(i) * 1460, 1460));
  }
  qdisc->dequeue();
  qdisc->dequeue();
  const auto& auditor = dynamic_cast<const AuditedBufferPolicy&>(qdisc->policy());
  EXPECT_EQ(auditor.ledger().enqueued_packets, 6u);
  EXPECT_EQ(auditor.ledger().dequeued_packets, 2u);
  EXPECT_EQ(auditor.ledger().resident_bytes(), qdisc->backlog_bytes());
  EXPECT_GT(auditor.checks_run(), 0u);
}

}  // namespace
}  // namespace dynaq
