// Figure 12: robustness to traffic dynamics — 100 Gbps links where queue i
// is fed by 2^(3+i) single-flow senders (16..2048, 4080 flows in total).
// The (scheme x seed) grid runs through the sweep engine; each job stores
// its 10 ms time series in a per-job slot so the report prints in grid
// order no matter how many workers ran it.
#include "bench/highspeed_common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seeds = cli.naturals("seeds", {1});
  const bool series = cli.flag("series");
  const auto csv_dir = bench::artifact_dir(cli, "csv");
  // Paper scale by default (16..2048 senders, 4080 flows) — the run is
  // short enough; --reduced shrinks the counts 4x for quick smoke tests.
  const int shift = cli.flag("reduced") ? 1 : 3;
  const auto kinds = bench::schemes_from_cli(
      cli, {core::SchemeKind::kBestEffort, core::SchemeKind::kPql, core::SchemeKind::kDynaQ});

  std::puts("Figure 12 — 100Gbps links with many flows (queue i has 2^(3+i) senders)");
  std::printf("(queue sender counts %d..%d)\n\n", 2 << shift, (2 << shift) << 7);

  const sweep::SweepSpec spec = bench::scheme_seed_spec(kinds, seeds);
  std::vector<std::vector<bench::HighSpeedRow>> all_rows(spec.num_jobs());

  const auto run = bench::run_sweep(
      cli, "fig12_many_flows", spec, [&](const sweep::JobPoint& point) {
        bench::HighSpeedConfig cfg;
        const auto kind = core::parse_scheme(point.label("scheme"));
        cfg.star = bench::sim100g_star(kind, /*num_hosts=*/1, std::vector<double>(8, 1.0));
        for (int i = 1; i <= 8; ++i) cfg.senders_per_queue.push_back(1 << (shift + i));
        cfg.mss = net::kJumboMss;
        cfg.seed = static_cast<std::uint64_t>(point.number("seed"));
        auto hs = bench::run_high_speed(std::move(cfg));
        auto job = bench::job_record(bench::high_speed_metrics(hs.rows), hs);
        all_rows[point.job_id] = std::move(hs.rows);  // private slot: no locking
        return job;
      });

  for (const auto& o : run.store.outcomes()) {
    if (!o.ok) continue;
    const auto& rows = all_rows[o.point.job_id];
    const bool first_seed = o.point.number("seed") == seeds.front();
    const auto scheme = o.point.label("scheme");
    if (first_seed) std::printf("--- %s ---\n", scheme.c_str());
    if (series && first_seed) bench::print_high_speed(rows);
    if (first_seed) {
      std::vector<std::vector<double>> csv_rows;
      for (const auto& row : rows) csv_rows.push_back({row.time_ms, row.jain, row.aggregate_gbps});
      bench::maybe_write_csv(csv_dir, "fig12_" + scheme,
                             {"time_ms", "jain", "aggregate_gbps"}, csv_rows);
    }
    if (seeds.size() > 1) std::printf("seed %g: ", o.point.number("seed"));
    bench::print_high_speed_summary(rows, 100.0);
    if (o.point.number("seed") == seeds.back()) std::puts("");
  }
  std::puts("paper shape: BestEffort fairness collapses (~0.24 for the first 200ms) and");
  std::puts("briefly loses throughput at 300ms; PQL stays below ~94.5G after 500ms;");
  std::puts("DynaQ is robust to the extreme flow counts");
  return run.exit_code;
}
