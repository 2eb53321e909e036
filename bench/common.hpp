// Shared configuration for the figure-reproduction benches: the paper's
// three operating points (1 GbE testbed, 10 Gbps and 100 Gbps simulations)
// with their buffer sizes, RTTs, ECN thresholds and scheduler settings.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "harness/cli.hpp"
#include "stats/csv_writer.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/scheme_cli.hpp"
#include "harness/static_experiment.hpp"
#include "harness/table.hpp"
#include "stats/fairness.hpp"
#include "stats/percentile.hpp"
#include "sweep/sweep_runner.hpp"
#include "topo/star.hpp"

namespace dynaq::bench {

// 1 GbE testbed: Broadcom 56538-class port buffer, ~500 us base RTT.
inline topo::StarConfig testbed_star(core::SchemeKind kind, int num_hosts = 5,
                                     std::vector<double> weights = {1, 1, 1, 1}) {
  topo::StarConfig cfg;
  cfg.num_hosts = num_hosts;
  cfg.link_rate_bps = 1e9;
  cfg.link_delay = microseconds(std::int64_t{125});
  cfg.buffer_bytes = 85'000;
  cfg.queue_weights = std::move(weights);
  cfg.scheme.kind = kind;
  // Testbed ECN settings: K = 30 KB (DCTCP's experimentally best value at
  // 1 Gbps), TCN sojourn threshold 240 us.
  cfg.scheme.ecn.port_threshold_bytes = 30'000;
  cfg.scheme.ecn.sojourn_threshold = microseconds(std::int64_t{240});
  cfg.scheme.ecn.capacity_bps = 1e9;
  cfg.scheme.ecn.rtt = microseconds(std::int64_t{500});
  cfg.scheduler = topo::SchedulerKind::kDrr;
  cfg.quantum_base = 1500;
  return cfg;
}

// 10 Gbps rack simulation: Broadcom Trident+ (192 KB/port), 84 us base RTT.
inline topo::StarConfig sim10g_star(core::SchemeKind kind, int num_hosts,
                                    std::vector<double> weights) {
  topo::StarConfig cfg;
  cfg.num_hosts = num_hosts;
  cfg.link_rate_bps = 10e9;
  cfg.link_delay = microseconds(std::int64_t{21});
  cfg.buffer_bytes = 192'000;
  cfg.queue_weights = std::move(weights);
  cfg.scheme.kind = kind;
  cfg.scheme.ecn.port_threshold_bytes = 192'000 / 2;
  cfg.scheme.ecn.capacity_bps = 10e9;
  cfg.scheme.ecn.rtt = microseconds(std::int64_t{84});
  cfg.scheduler = topo::SchedulerKind::kWrr;
  cfg.quantum_base = 1500;
  return cfg;
}

// 100 Gbps rack simulation: Broadcom Trident 3 (1 MB/port), 40 us base RTT,
// jumbo frames.
inline topo::StarConfig sim100g_star(core::SchemeKind kind, int num_hosts,
                                     std::vector<double> weights) {
  topo::StarConfig cfg;
  cfg.num_hosts = num_hosts;
  cfg.link_rate_bps = 100e9;
  cfg.link_delay = microseconds(std::int64_t{10});
  cfg.buffer_bytes = 1'000'000;
  cfg.queue_weights = std::move(weights);
  cfg.scheme.kind = kind;
  cfg.scheme.ecn.capacity_bps = 100e9;
  cfg.scheme.ecn.rtt = microseconds(std::int64_t{40});
  cfg.scheduler = topo::SchedulerKind::kWrr;
  cfg.quantum_base = 9000;
  cfg.host_queue_bytes = 4'000'000;  // txqueuelen-scale at jumbo MTU
  return cfg;
}

// Jain's fairness index over the throughput of queues active in window `w`.
inline double active_jain(const stats::ThroughputMeter& meter, std::size_t w,
                          const std::vector<bool>& active) {
  std::vector<double> xs;
  for (int q = 0; q < meter.num_queues(); ++q) {
    if (active[static_cast<std::size_t>(q)]) xs.push_back(meter.gbps(w, q));
  }
  return stats::jain_index(xs);
}

// Drops at the switch ports a harness run observes: every drop on its hub
// except the host NICs' tail drops.
inline std::uint64_t switch_drops(const telemetry::TelemetrySummary& s) {
  return s.total_drops() - s.drops(telemetry::DropReason::kNicFull);
}

inline std::string fmt(double v, int precision = 3) {
  return harness::Table::num(v, precision);
}

// Reads an artifact-directory flag (--json, --csv) and checks, before any
// simulation runs, that files can be created there: a missing or
// read-only directory prints "error: cannot write <dir>" and exits 1
// instead of discarding a finished run. "" when the flag is absent.
inline std::string artifact_dir(const harness::Cli& cli, const char* flag) {
  std::string dir = cli.text(flag, "");
  std::error_code ec;
  const bool writable = std::filesystem::is_directory(dir, ec) && ::access(dir.c_str(), W_OK) == 0;
  if (!dir.empty() && !writable) {
    std::fprintf(stderr, "error: cannot write %s\n", dir.c_str());
    std::exit(1);
  }
  return dir;
}

// Writes a numeric time series to `<dir>/<name>.csv` when `dir` is
// non-empty: --csv <dir> of fig03, fig10, fig11 and fig12, whose
// per-window series no other artifact holds. A file that cannot be opened
// exits 1: the artifact was asked for.
inline void maybe_write_csv(const std::string& dir, const std::string& name,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<double>>& rows) {
  if (dir.empty()) return;
  stats::CsvWriter csv(dir + "/" + name + ".csv");
  if (!csv.ok()) {
    std::fprintf(stderr, "error: cannot write %s/%s.csv\n", dir.c_str(), name.c_str());
    std::exit(1);
  }
  csv.header(header);
  for (const auto& r : rows) {
    std::vector<std::string> cells;
    cells.reserve(r.size());
    for (const double v : r) cells.push_back(harness::Table::num(v, 6));
    csv.row(cells);
  }
  std::printf("wrote %s/%s.csv\n", dir.c_str(), name.c_str());
}

// ---------------------------------------------------------------------------
// Sweep-engine entry point shared by the fig binaries (DESIGN.md §7). Reads
// the common sweep flags, fans the grid out over a worker pool, reports
// failed jobs on stderr in job order, and writes the machine-readable JSON.
// A failed job or a JSON file that cannot be written makes the exit code 1;
// a --json directory that cannot be written exits 1 before any job runs.
//
//   --jobs N        worker threads (default and 0: hardware concurrency)
//   --json DIR      write <DIR>/<name>.json (sweep results schema), the same
//                   bytes for any --jobs
//
// Call after main() has read every binary-specific flag: reading these is
// the last flag read, so an unrecognized flag exits 2 here, before any job.
struct SweepRun {
  sweep::ResultStore store;
  int exit_code = 0;  // 1 when a job failed or the JSON was not written
};

inline SweepRun run_sweep(const harness::Cli& cli, std::string name, sweep::SweepSpec spec,
                          const sweep::JobFn& fn) {
  sweep::RunnerOptions options;
  options.jobs = static_cast<int>(cli.natural("jobs", 0));
  const std::string json_dir = artifact_dir(cli, "json");
  cli.reject_unknown();

  const sweep::SweepRunner runner(options);
  auto store = runner.run(std::move(name), spec, fn);
  for (const auto& o : store.outcomes()) {
    if (!o.ok) {
      std::fprintf(stderr, "sweep job %zu failed [%s]: %s\n", o.point.job_id,
                   o.point.name().c_str(), o.error.c_str());
    }
  }
  int exit_code = store.all_ok() ? 0 : 1;
  if (!json_dir.empty()) {
    const std::string path = json_dir + "/" + store.name() + ".json";
    if (store.write_json(path)) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      exit_code = 1;
    }
  }
  return SweepRun{std::move(store), exit_code};
}

// A sweep job's record of one harness run: its metrics, the run's telemetry
// summary (moved out of `r`) and its trajectory hash.
inline sweep::JobResult job_record(std::map<std::string, double> metrics,
                                   harness::RunResult& r) {
  sweep::JobResult job{std::move(metrics), std::move(r.telemetry)};
  job.trajectory_hash = r.trajectory_hash;
  return job;
}

// Seed-mean of one metric in an aggregated sweep row (0 when absent).
inline double row_mean(const sweep::AggregateRow& row, const char* name) {
  const auto it = row.metrics.find(name);
  return it == row.metrics.end() ? 0.0 : it->second.mean;
}

// Parses --schemes=DynaQ,PQL,... into SchemeKinds, defaulting to `fallback`.
inline std::vector<core::SchemeKind> schemes_from_cli(const harness::Cli& cli,
                                                      std::vector<core::SchemeKind> fallback) {
  if (!cli.has("schemes")) return fallback;
  std::vector<core::SchemeKind> kinds;
  for (const auto& name : cli.list("schemes", {})) {
    kinds.push_back(harness::scheme_flag("schemes", name));
  }
  return kinds;
}

// The scheme/seed grid of the static-flow sweeps (Fig. 12, rob_*).
inline sweep::SweepSpec scheme_seed_spec(const std::vector<core::SchemeKind>& schemes,
                                         const std::vector<double>& seeds) {
  std::vector<std::string> names;
  names.reserve(schemes.size());
  for (const auto kind : schemes) names.emplace_back(core::scheme_name(kind));
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::labels("scheme", std::move(names)),
               sweep::Axis::numeric("seed", seeds)};
  return spec;
}

// The scheme/load/seed grid every FCT-style figure sweeps.
inline sweep::SweepSpec scheme_load_seed_spec(const std::vector<core::SchemeKind>& schemes,
                                              const std::vector<double>& loads,
                                              const std::vector<double>& seeds) {
  sweep::SweepSpec spec = scheme_seed_spec(schemes, seeds);
  spec.axes.insert(spec.axes.begin() + 1, sweep::Axis::numeric("load", loads));
  return spec;
}

}  // namespace dynaq::bench
