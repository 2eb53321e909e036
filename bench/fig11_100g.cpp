// Figure 11: bandwidth sharing on 100 Gbps links — the Figure 10 scenario
// on Trident 3-class ports (1 MB buffer), 40 us base RTT, jumbo frames.
#include "bench/highspeed_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  const bool series = cli.flag("series");
  const auto csv_dir = bench::artifact_dir(cli, "csv");
  cli.reject_unknown();

  std::puts("Figure 11 — bandwidth sharing on 100Gbps links (Trident 3, 1MB/port, jumbo)");
  std::puts("(8 WRR queues, queue i has 2i single-flow senders, stops every 50ms)\n");

  for (const auto kind : {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                          core::SchemeKind::kDynaQ}) {
    bench::HighSpeedConfig cfg;
    cfg.star = bench::sim100g_star(kind, /*num_hosts=*/1, std::vector<double>(8, 1.0));
    for (int i = 1; i <= 8; ++i) cfg.senders_per_queue.push_back(2 * i);
    cfg.mss = net::kJumboMss;
    cfg.seed = seed;
    const auto rows = bench::run_high_speed(std::move(cfg)).rows;
    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    if (series) bench::print_high_speed(rows);
    std::vector<std::vector<double>> csv_rows;
    for (const auto& row : rows) csv_rows.push_back({row.time_ms, row.jain, row.aggregate_gbps});
    bench::maybe_write_csv(csv_dir, "fig11_" + std::string(core::scheme_name(kind)),
                           {"time_ms", "jain", "aggregate_gbps"}, csv_rows);
    bench::print_high_speed_summary(rows, 100.0);
    std::puts("");
  }
  std::puts("paper shape: same tendency as 10G — BestEffort unfair, PQL loses a large");
  std::puts("amount of throughput once queue 1 is alone, DynaQ keeps both properties");
  return 0;
}
