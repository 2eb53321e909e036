// Rack fair-sharing explorer: an iperf-style workbench for comparing
// buffer-management schemes under configurable service queues, weights and
// flow counts.
//
// Examples:
//   rack_fair_sharing --scheme BestEffort
//   rack_fair_sharing --scheme DynaQ --weights 4,3,2,1 --flows 2,4,8,16
//   rack_fair_sharing --scheme PQL --rate-gbps 10 --buffer-kb 192 --seconds 5
#include <cstdio>

#include "harness/cli.hpp"
#include "harness/scheme_cli.hpp"
#include "harness/static_experiment.hpp"
#include "harness/table.hpp"
#include "stats/fairness.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto scheme = harness::scheme_flag("scheme", cli.text("scheme", "DynaQ"));
  const auto weights = cli.reals("weights", {1, 1, 1, 1});
  const auto flows = cli.reals("flows", {2, 4, 8, 16});
  const double rate_gbps = cli.real("rate-gbps", 1.0);
  const auto buffer_kb = cli.positive("buffer-kb", 85);
  const auto duration = seconds(cli.positive("seconds", 5));

  if (weights.size() != flows.size()) {
    std::fprintf(stderr, "--weights and --flows must have the same length\n");
    return 1;
  }
  const int queues = static_cast<int>(weights.size());

  harness::StaticExperimentConfig cfg;
  cfg.star.num_hosts = 1 + 2 * queues;  // receiver + 2 sender hosts per queue
  cfg.star.link_rate_bps = rate_gbps * 1e9;
  cfg.star.link_delay = microseconds(std::int64_t{125});
  cfg.star.buffer_bytes = buffer_kb * 1000;
  cfg.star.queue_weights = weights;
  cfg.star.scheme.kind = scheme;
  cfg.star.scheduler = topo::SchedulerKind::kDrr;
  for (int q = 0; q < queues; ++q) {
    cfg.groups.push_back({.queue = q,
                          .num_flows = static_cast<int>(flows[static_cast<std::size_t>(q)]),
                          .first_src_host = 1 + 2 * q,
                          .num_src_hosts = 2,
                          .start = 0,
                          .stop = 0,
                          .cc = transport::CcKind::kNewReno});
  }
  cfg.duration = duration;
  cfg.meter_window = milliseconds(std::int64_t{500});
  cfg.seed = static_cast<std::uint64_t>(cli.natural("seed", 1));

  std::printf("scheme=%s  rate=%.1fG  buffer=%lldKB  queues=%d\n\n",
              std::string(core::scheme_name(scheme)).c_str(), rate_gbps,
              static_cast<long long>(buffer_kb), queues);
  const auto r = harness::run_static_experiment(cfg);

  std::vector<std::string> header{"time_s"};
  for (int q = 0; q < queues; ++q) header.push_back("q" + std::to_string(q + 1));
  header.push_back("aggregate");
  header.push_back("jain");
  harness::Table t(std::move(header));
  for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
    std::vector<std::string> row{harness::Table::num((static_cast<double>(w) + 0.5) * 0.5, 2)};
    const auto xs = r.meter.window_gbps(w);
    for (int q = 0; q < queues; ++q) {
      row.push_back(harness::Table::num(xs[static_cast<std::size_t>(q)]));
    }
    row.push_back(harness::Table::num(r.meter.aggregate_gbps(w)));
    row.push_back(harness::Table::num(stats::jain_index(xs), 3));
    t.row(std::move(row));
  }
  t.print();

  std::printf("\nbottleneck drops: %llu (policy %llu, port-full %llu)\n",
              static_cast<unsigned long long>(r.bottleneck_stats.dropped),
              static_cast<unsigned long long>(r.bottleneck_stats.dropped_by_policy),
              static_cast<unsigned long long>(r.bottleneck_stats.dropped_port_full));
  std::printf("sender totals: %llu fast retransmits, %llu timeouts\n",
              static_cast<unsigned long long>(r.sender_totals.fast_retransmits),
              static_cast<unsigned long long>(r.sender_totals.timeouts));
  return 0;
}
