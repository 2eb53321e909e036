// Figure 1: motivation — violated fair sharing by unfair buffer occupancy.
//
// DRR with equal weights, best-effort shared buffer. Queue 1 has 8 flows
// from one sender; queue 2 has 24 flows from three senders. The paper
// measures per-queue throughput every 0.5 s for 60 s and 1 K sequential
// queue-length samples; queue 1 cannot reach its fair share because it
// cannot hold its weighted BDP in the buffer.
#include "bench/common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const auto duration = seconds(cli.positive("seconds", full ? 60 : 10));

  harness::StaticExperimentConfig cfg;
  cfg.star = bench::testbed_star(core::SchemeKind::kBestEffort, /*num_hosts=*/5);
  cfg.star.queue_weights = {1, 1};  // the figure uses two service queues
  cfg.groups = {
      {.queue = 0, .num_flows = 8, .first_src_host = 1, .num_src_hosts = 1,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
      {.queue = 1, .num_flows = 24, .first_src_host = 2, .num_src_hosts = 3,
       .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
  };
  cfg.duration = duration;
  cfg.meter_window = milliseconds(std::int64_t{500});
  cfg.queue_samples = 1000;
  cfg.queue_sample_skip = full ? 2'000'000 : 400'000;
  cfg.seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  cli.reject_unknown();

  std::puts("Figure 1 — violated fair sharing with the best-effort shared buffer");
  std::puts("(4 senders: queue1 <- 8 flows from 1 host, queue2 <- 24 flows from 3 hosts)\n");
  const auto r = harness::run_static_experiment(cfg);

  std::puts("(a) Throughput per 0.5 s window [Gbps]");
  harness::Table t({"time_s", "queue1", "queue2", "share1", "share2"});
  for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
    const auto xs = r.meter.window_gbps(w);
    t.row({bench::fmt((static_cast<double>(w) + 0.5) * 0.5, 1), bench::fmt(xs[0]),
           bench::fmt(xs[1]), bench::fmt(stats::share_of(xs, 0), 2),
           bench::fmt(stats::share_of(xs, 1), 2)});
  }
  t.print();

  const double q1 = r.meter.mean_gbps(0, 2, r.meter.num_windows());
  const double q2 = r.meter.mean_gbps(1, 2, r.meter.num_windows());
  std::printf("\nmean after warmup: queue1=%.3f Gbps queue2=%.3f Gbps (fair: ~0.5 each)\n", q1,
              q2);

  std::puts("\n(b) Queue length samples (1K sequential per-operation samples)");
  std::vector<double> occ1;
  std::vector<double> occ2;
  for (const auto& s : r.queue_samples) {
    occ1.push_back(static_cast<double>(s.queue_bytes[0]) / 1000.0);
    occ2.push_back(static_cast<double>(s.queue_bytes[1]) / 1000.0);
  }
  harness::Table qt({"queue", "mean_KB", "p10_KB", "p50_KB", "p90_KB"});
  qt.row({"queue1", bench::fmt(stats::mean(occ1), 1), bench::fmt(stats::percentile(occ1, 10), 1),
          bench::fmt(stats::percentile(occ1, 50), 1), bench::fmt(stats::percentile(occ1, 90), 1)});
  qt.row({"queue2", bench::fmt(stats::mean(occ2), 1), bench::fmt(stats::percentile(occ2, 10), 1),
          bench::fmt(stats::percentile(occ2, 50), 1), bench::fmt(stats::percentile(occ2, 90), 1)});
  qt.print();
  std::printf("\npaper shape: queue2 dominates the 85KB buffer; queue1 throughput < fair share\n");
  return 0;
}
