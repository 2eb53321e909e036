// Figure 4: queue-length evolution for the Figure 3 scenario — 1K
// sequential per-operation samples of both active queues' occupancy (and,
// for DynaQ, the dynamic drop thresholds).
#include "bench/common.hpp"

using namespace dynaq;

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.natural("seed", 1));
  const auto samples = static_cast<std::size_t>(cli.positive("samples", 1000));
  cli.reject_unknown();

  std::puts("Figure 4 — queue length evolution of 2 active DRR queues (equal weights)");
  std::puts("(1K sequential per-enqueue/dequeue samples after warmup)\n");

  const core::SchemeKind kinds[] = {core::SchemeKind::kBestEffort, core::SchemeKind::kPql,
                                    core::SchemeKind::kDynaQ};
  for (const auto kind : kinds) {
    harness::StaticExperimentConfig cfg;
    cfg.star = bench::testbed_star(kind, /*num_hosts=*/5);
    cfg.groups = {
        {.queue = 0, .num_flows = 2, .first_src_host = 1, .num_src_hosts = 2,
         .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
        {.queue = 1, .num_flows = 16, .first_src_host = 3, .num_src_hosts = 2,
         .start = 0, .stop = 0, .cc = transport::CcKind::kNewReno},
    };
    cfg.duration = seconds(std::int64_t{6});
    cfg.queue_samples = samples;
    cfg.queue_sample_skip = 500'000;  // sample deep in steady state
    cfg.seed = seed;
    const auto r = harness::run_static_experiment(cfg);

    std::printf("--- %s ---\n", std::string(core::scheme_name(kind)).c_str());
    std::vector<double> q1;
    std::vector<double> q2;
    std::vector<double> t1;
    std::vector<double> t2;
    for (const auto& s : r.queue_samples) {
      q1.push_back(static_cast<double>(s.queue_bytes[0]) / 1000.0);
      q2.push_back(static_cast<double>(s.queue_bytes[1]) / 1000.0);
      if (s.thresholds.size() >= 2) {
        t1.push_back(static_cast<double>(s.thresholds[0]) / 1000.0);
        t2.push_back(static_cast<double>(s.thresholds[1]) / 1000.0);
      }
    }
    harness::Table t({"metric", "queue1_KB", "queue2_KB"});
    t.row({"mean occupancy", bench::fmt(stats::mean(q1), 1), bench::fmt(stats::mean(q2), 1)});
    t.row({"p50 occupancy", bench::fmt(stats::percentile(q1, 50), 1),
           bench::fmt(stats::percentile(q2, 50), 1)});
    t.row({"p90 occupancy", bench::fmt(stats::percentile(q1, 90), 1),
           bench::fmt(stats::percentile(q2, 90), 1)});
    if (!t1.empty()) {
      t.row({"mean drop threshold", bench::fmt(stats::mean(t1), 1),
             bench::fmt(stats::mean(t2), 1)});
    }
    if (r.telemetry.queue_delay.size() >= 2) {
      t.row({"p99 queueing delay us", bench::fmt(r.telemetry.queue_delay[0].p99_us, 1),
             bench::fmt(r.telemetry.queue_delay[1].p99_us, 1)});
    }
    t.print();
    std::puts("");
  }
  std::puts("paper shape: BestEffort lets queue2 dominate the buffer; PQL caps each queue");
  std::puts("at its 21.25KB reservation; DynaQ's thresholds move so both queues hold");
  std::puts("enough buffer for their fair share");
  return 0;
}
