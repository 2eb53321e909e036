// Figure 10: bandwidth sharing on 10 Gbps links — 8 WRR queues with equal
// weights, queue i fed by 2i senders, queues 2-8 stopping every 50 ms from
// 200 ms. Jain's index across active queues and aggregate throughput per
// 10 ms window.
#include "bench/highspeed_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  const bool series = cli.flag("series");
  const auto csv_dir = bench::artifact_dir(cli, "csv");  // print full per-window series
  cli.reject_unknown();

  std::puts("Figure 10 — bandwidth sharing on 10Gbps links (Trident+, 192KB/port)");
  std::puts("(8 WRR queues, queue i has 2i single-flow senders, stops every 50ms)\n");

  for (const auto kind : {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                          core::SchemeKind::kDynaQ}) {
    bench::HighSpeedConfig cfg;
    cfg.star = bench::sim10g_star(kind, /*num_hosts=*/1, std::vector<double>(8, 1.0));
    for (int i = 1; i <= 8; ++i) cfg.senders_per_queue.push_back(2 * i);
    cfg.seed = seed;
    const auto rows = bench::run_high_speed(std::move(cfg)).rows;
    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    if (series) bench::print_high_speed(rows);
    std::vector<std::vector<double>> csv_rows;
    for (const auto& row : rows) csv_rows.push_back({row.time_ms, row.jain, row.aggregate_gbps});
    bench::maybe_write_csv(csv_dir, "fig10_" + std::string(core::scheme_name(kind)),
                           {"time_ms", "jain", "aggregate_gbps"}, csv_rows);
    bench::print_high_speed_summary(rows, 10.0);
    std::puts("");
  }
  std::puts("paper shape: DynaQ and PQL near-1 fairness (BestEffort plunges to ~0.67);");
  std::puts("only DynaQ keeps aggregate ~10G after queue 8 stops at 500ms (PQL ~8.5G)");
  std::puts("(pass --series for the full 10ms-window table)");
  return 0;
}
