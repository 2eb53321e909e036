// Datacenter FCT workbench: replay a production-derived request workload
// (web search / data mining / cache / hadoop) against any buffer scheme
// and report the flow-completion-time breakdown the paper uses.
//
// Examples:
//   datacenter_fct --scheme DynaQ --workload websearch --load 0.6
//   datacenter_fct --scheme TCN --workload cache --flows 5000
//   datacenter_fct --scheme BestEffort --leaf-spine --load 0.4
#include <cstdio>
#include <exception>

#include "harness/cli.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/scheme_cli.hpp"
#include "harness/table.hpp"
#include "workload/flow_size_distribution.hpp"

using namespace dynaq;

namespace {

const workload::FlowSizeDistribution& pick_workload(const std::string& name) {
  for (const auto* w : workload::all_workloads()) {
    if (w->name() == name) return *w;
  }
  std::fprintf(stderr, "unknown workload '%s' (try websearch/datamining/cache/hadoop)\n",
               name.c_str());
  std::exit(1);
}

void print_summary(const stats::FctSummary& s, std::size_t incomplete) {
  harness::Table t({"metric", "value"});
  t.row({"flows completed", std::to_string(s.count)});
  t.row({"avg FCT overall", harness::Table::num(s.avg_overall_ms, 2) + " ms"});
  t.row({"avg FCT small (<=100KB)", harness::Table::num(s.avg_small_ms, 2) + " ms"});
  t.row({"avg FCT medium", harness::Table::num(s.avg_medium_ms, 2) + " ms"});
  t.row({"avg FCT large (>10MB)", harness::Table::num(s.avg_large_ms, 2) + " ms"});
  t.row({"p99 FCT small", harness::Table::num(s.p99_small_ms, 2) + " ms"});
  t.row({"p99 FCT overall", harness::Table::num(s.p99_overall_ms, 2) + " ms"});
  t.print();
  if (incomplete > 0) std::printf("WARNING: %zu flows did not complete\n", incomplete);
}

}  // namespace

// A config the run builders reject (a one-host fabric, say) exits 1 with
// the reason instead of aborting on an uncaught exception.
int main(int argc, char** argv) try {
  const harness::Cli cli(argc, argv);
  const auto scheme = harness::scheme_flag("scheme", cli.text("scheme", "DynaQ"));
  const auto& dist = pick_workload(cli.text("workload", "websearch"));
  const double load = cli.real("load", 0.6);
  const auto flows = static_cast<std::size_t>(cli.positive("flows", 2000));
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));

  if (cli.flag("leaf-spine")) {
    harness::DynamicLeafSpineConfig cfg;
    cfg.fabric.num_leaves = static_cast<int>(cli.positive("leaves", 4));
    cfg.fabric.num_spines = cfg.fabric.num_leaves;
    cfg.fabric.hosts_per_leaf = cfg.fabric.num_leaves;
    cfg.fabric.queue_weights.assign(8, 1.0);
    cfg.fabric.scheme.kind = scheme;
    // ECN settings scaled to the 10 Gbps fabric (K = C*RTT-class value).
    cfg.fabric.scheme.ecn.port_threshold_bytes = 96'000;
    cfg.fabric.scheme.ecn.sojourn_threshold = microseconds(std::int64_t{80});
    cfg.fabric.scheme.ecn.capacity_bps = cfg.fabric.link_rate_bps;
    cfg.fabric.scheme.ecn.rtt = microseconds(std::int64_t{85});
    cfg.cc = core::scheme_uses_ecn(scheme) ? transport::CcKind::kDctcp
                                           : transport::CcKind::kNewReno;
    cfg.num_flows = flows;
    cfg.load = load;
    cfg.seed = seed;
    std::printf("leaf-spine %dx%d, scheme=%s, load=%.0f%%, %zu flows\n\n",
                cfg.fabric.num_leaves, cfg.fabric.num_spines,
                std::string(core::scheme_name(scheme)).c_str(), load * 100, flows);
    const auto r = harness::run_dynamic_leaf_spine_experiment(cfg);
    print_summary(r.fcts.summarize(), r.incomplete);
    return 0;
  }

  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.link_rate_bps = 1e9;
  cfg.star.link_delay = microseconds(std::int64_t{125});
  cfg.star.buffer_bytes = 85'000;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheme.kind = scheme;
  cfg.star.scheme.ecn.port_threshold_bytes = 30'000;
  cfg.star.scheme.ecn.sojourn_threshold = microseconds(std::int64_t{240});
  cfg.star.scheme.ecn.capacity_bps = 1e9;
  cfg.star.scheme.ecn.rtt = microseconds(std::int64_t{500});
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = flows;
  cfg.load = load;
  cfg.dist = &dist;
  cfg.cc = core::scheme_uses_ecn(scheme) ? transport::CcKind::kDctcp
                                         : transport::CcKind::kNewReno;
  cfg.seed = seed;

  std::printf("1G star (4 servers -> 1 client), scheme=%s, workload=%s, load=%.0f%%, %zu flows\n",
              std::string(core::scheme_name(scheme)).c_str(), dist.name().c_str(), load * 100,
              flows);
  std::printf("transport=%s, SPQ(1)/DRR(4) with PIAS tagging at 100KB\n\n",
              std::string(transport::cc_name(cfg.cc)).c_str());
  const auto r = harness::run_dynamic_star_experiment(cfg);
  print_summary(r.fcts.summarize(), r.incomplete);
  std::printf("\nbottleneck: %llu drops, %llu ECN marks\n",
              static_cast<unsigned long long>(r.drops),
              static_cast<unsigned long long>(r.marks));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
