// Extending the library: write your own buffer-management policy.
//
// This example implements "ReserveHalf", a policy that statically reserves
// half of each queue's fair share and lets the rest of the buffer float
// first-come-first-served, then races it against DynaQ, PQL and BestEffort
// on the 2-vs-16-flows scenario. The point is the API: a policy implements
// admit() (plus optional hooks), is plugged in through
// SchemeSpec::custom_policy_sim, and every topology/harness/bench in the
// library can then run it.
#include <cstdio>
#include <memory>

#include "harness/cli.hpp"
#include "harness/static_experiment.hpp"
#include "harness/table.hpp"
#include "net/buffer_policy.hpp"

using namespace dynaq;

namespace {

// Admission rule: queue i may always use its reservation R_i = B·w_i/(2Σw);
// spill beyond the reservation must fit into the shared floating pool of
// B/2 bytes, counted across all queues.
class ReserveHalfPolicy final : public net::BufferPolicy {
 public:
  void attach(const net::MqState& state) override {
    reserved_.clear();
    const double sum_w = state.total_weight();
    for (const net::ServiceQueue& q : state.queues) {
      reserved_.push_back(static_cast<std::int64_t>(
          static_cast<double>(state.buffer_bytes) * q.weight / (2.0 * sum_w)));
    }
    floating_pool_ = state.buffer_bytes / 2;
  }

  bool admit(const net::MqState& state, int q, const net::Packet& p) override {
    const std::int64_t after = state.queue(q).bytes + p.size;
    const std::int64_t r_q = reserved_[static_cast<std::size_t>(q)];
    if (after <= r_q) return true;
    std::int64_t floating_used = 0;
    for (std::size_t i = 0; i < state.queues.size(); ++i) {
      if (static_cast<int>(i) == q) continue;
      floating_used += std::max<std::int64_t>(state.queues[i].bytes - reserved_[i], 0);
    }
    return floating_used + (after - r_q) <= floating_pool_;
  }

  std::vector<std::int64_t> thresholds() const override { return reserved_; }
  std::string_view name() const override { return "reserve-half"; }

 private:
  std::vector<std::int64_t> reserved_;
  std::int64_t floating_pool_ = 0;
};

harness::StaticExperimentConfig experiment_config() {
  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.link_rate_bps = 1e9;
  cfg.star.link_delay = microseconds(std::int64_t{125});
  cfg.star.buffer_bytes = 85'000;
  cfg.star.queue_weights = {1, 1};
  cfg.star.scheduler = topo::SchedulerKind::kDrr;
  cfg.groups = {
      {.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
      {.queue = 1, .num_flows = 16, .first_src_host = 3, .num_src_hosts = 2,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
  };
  cfg.duration = seconds(std::int64_t{5});
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Cli(argc, argv).reject_unknown();
  std::puts("Custom policy demo: queue1 has 2 flows, queue2 has 16; fair split is 0.5/0.5\n");

  harness::Table t({"policy", "queue1_Gbps", "queue2_Gbps", "aggregate"});

  // Built-in schemes go through SchemeSpec::kind...
  for (const auto kind : {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                          core::SchemeKind::kDynaQ}) {
    auto cfg = experiment_config();
    cfg.star.scheme.kind = kind;
    const auto r = harness::run_static_experiment(cfg);
    const double q1 = r.meter.mean_gbps(0, 2, r.meter.num_windows());
    const double q2 = r.meter.mean_gbps(1, 2, r.meter.num_windows());
    t.row({std::string(core::scheme_name(kind)), harness::Table::num(q1),
           harness::Table::num(q2), harness::Table::num(q1 + q2)});
  }

  // ...and a user-defined policy goes through SchemeSpec::custom_policy_sim.
  {
    auto cfg = experiment_config();
    cfg.star.scheme.custom_policy_sim = [](sim::Simulator&) {
      return std::make_unique<ReserveHalfPolicy>();
    };
    const auto r = harness::run_static_experiment(cfg);
    const double q1 = r.meter.mean_gbps(0, 2, r.meter.num_windows());
    const double q2 = r.meter.mean_gbps(1, 2, r.meter.num_windows());
    t.row({"ReserveHalf (custom)", harness::Table::num(q1), harness::Table::num(q2),
           harness::Table::num(q1 + q2)});
  }

  t.print();
  std::puts("\nReserveHalf sits between PQL (fair, not work-conserving) and BestEffort");
  std::puts("(work-conserving, unfair): the reservation protects half the fair share,");
  std::puts("the floating pool still favours the aggressive queue. See");
  std::puts("ReserveHalfPolicy above for the ~30-line implementation.");
  return 0;
}
