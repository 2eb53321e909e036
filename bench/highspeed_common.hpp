// Shared driver for the high-speed static-flow simulations (Figures 10-12):
// 8 WRR queues with equal weights, queue i fed by its own set of sender
// hosts, queues 2..8 deactivating every 50 ms from 200 ms. Reports Jain's
// fairness index across active queues and the aggregate throughput per
// 10 ms window.
#pragma once

#include "bench/common.hpp"

namespace dynaq::bench {

struct HighSpeedConfig {
  topo::StarConfig star;                // 8-queue WRR star, receiver host 0
  std::vector<int> senders_per_queue;   // queue i gets senders_per_queue[i] hosts
  std::int32_t mss = net::kDefaultMss;
  Time rto_min = milliseconds(std::int64_t{5});
  Time duration = milliseconds(std::int64_t{700});
  std::uint64_t seed = 1;
};

struct HighSpeedRow {
  double time_ms;
  double jain;
  double aggregate_gbps;
};

// The run's telemetry and trajectory hash, and its per-window rows.
struct HighSpeedRun : harness::RunResult {
  std::vector<HighSpeedRow> rows;  // one per 10 ms meter window
};

inline HighSpeedRun run_high_speed(HighSpeedConfig cfg) {
  const int num_queues = 8;
  harness::StaticExperimentConfig exp;
  exp.star = std::move(cfg.star);
  int next_host = 1;
  std::vector<Time> stop_at(num_queues, 0);
  for (int q = 0; q < num_queues; ++q) {
    // Queue q (paper queue q+1) stops at 200 + 50*(q-1) ms; queue 1 (q=0)
    // runs to the end.
    stop_at[static_cast<std::size_t>(q)] =
        q == 0 ? cfg.duration : milliseconds(std::int64_t{200 + 50 * (q - 1)});
    exp.groups.push_back({.queue = q,
                          .num_flows = cfg.senders_per_queue[static_cast<std::size_t>(q)],
                          .first_src_host = next_host,
                          .num_src_hosts = cfg.senders_per_queue[static_cast<std::size_t>(q)],
                          .start = 0,
                          .stop = stop_at[static_cast<std::size_t>(q)],
                          .cc = transport::CcKind::kNewReno});
    next_host += cfg.senders_per_queue[static_cast<std::size_t>(q)];
  }
  exp.star.num_hosts = next_host;
  exp.duration = cfg.duration;
  exp.meter_window = milliseconds(std::int64_t{10});
  exp.start_jitter = milliseconds(std::int64_t{1});
  exp.mss = cfg.mss;
  exp.rto_min = cfg.rto_min;
  exp.seed = cfg.seed;

  auto r = harness::run_static_experiment(exp);
  std::vector<HighSpeedRow> rows;
  for (std::size_t w = 0; w < r.meter.num_windows(); ++w) {
    const Time window_start = static_cast<Time>(w) * exp.meter_window;
    std::vector<bool> active(num_queues);
    for (int q = 0; q < num_queues; ++q) {
      active[static_cast<std::size_t>(q)] = window_start < stop_at[static_cast<std::size_t>(q)];
    }
    rows.push_back(HighSpeedRow{to_milliseconds(window_start) + 5.0,
                                active_jain(r.meter, w, active), r.meter.aggregate_gbps(w)});
  }
  return HighSpeedRun{std::move(r), std::move(rows)};
}

inline void print_high_speed(const std::vector<HighSpeedRow>& rows) {
  harness::Table t({"time_ms", "jain_index", "aggregate_Gbps"});
  for (const auto& row : rows) {
    t.row({fmt(row.time_ms, 0), fmt(row.jain, 3), fmt(row.aggregate_gbps, 2)});
  }
  t.print();
}

// Scalar summary of one high-speed run, as stored per sweep job and printed
// by print_high_speed_summary.
inline std::map<std::string, double> high_speed_metrics(const std::vector<HighSpeedRow>& rows) {
  double min_jain = 1.0;
  double sum_jain = 0.0;
  double sum_agg = 0.0;
  double last_phase_agg = 0.0;
  std::size_t last_n = 0;
  for (const auto& row : rows) {
    min_jain = std::min(min_jain, row.jain);
    sum_jain += row.jain;
    sum_agg += row.aggregate_gbps;
    if (row.time_ms > 520.0) {
      last_phase_agg += row.aggregate_gbps;
      ++last_n;
    }
  }
  const double n = rows.empty() ? 1.0 : static_cast<double>(rows.size());
  return {{"mean_jain", sum_jain / n},
          {"min_jain", min_jain},
          {"mean_aggregate_gbps", sum_agg / n},
          {"last_phase_gbps", last_n > 0 ? last_phase_agg / static_cast<double>(last_n) : 0.0}};
}

inline void print_high_speed_summary(const std::vector<HighSpeedRow>& rows, double line_gbps) {
  const auto m = high_speed_metrics(rows);
  std::printf("mean jain=%.3f min jain=%.3f mean aggregate=%.2f/%.0f Gbps", m.at("mean_jain"),
              m.at("min_jain"), m.at("mean_aggregate_gbps"), line_gbps);
  // The last phase (only paper-queue 1 active) is the rows past 520 ms.
  if (!rows.empty() && rows.back().time_ms > 520.0) {
    std::printf("  last-phase aggregate=%.2f Gbps", m.at("last_phase_gbps"));
  }
  std::puts("");
}

}  // namespace dynaq::bench
