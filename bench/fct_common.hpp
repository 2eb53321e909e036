// Shared driver for the FCT comparison figures (8, 9): the testbed's
// client/server request workload on a star topology with SPQ(1)/DRR(4) and
// two-level PIAS tagging, swept over (scheme x load x seed) through the
// dynaq::sweep engine — every grid point builds its own simulator on a
// worker thread, so --jobs N parallelizes the grid without changing any
// number (see DESIGN.md §7).
#pragma once

#include <array>
#include <cmath>
#include <map>

#include "bench/common.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq::bench {

struct FctSweepConfig {
  std::vector<core::SchemeKind> schemes;
  std::vector<double> loads;          // fractions of client link capacity
  std::vector<double> seeds = {1};    // seed replicas, aggregated in the JSON
  std::size_t flows = 1000;
  transport::CcKind default_cc = transport::CcKind::kNewReno;
  transport::CcKind ecn_cc = transport::CcKind::kDctcp;  // for ECN schemes
};

using FctResults =
    std::map<core::SchemeKind, std::map<double, stats::FctSummary>>;

// Scalar metrics of one dynamic run, as stored per sweep job. Drops, marks,
// the drop-reason breakdown and the exchange count all come from the run's
// telemetry summary; "drops" counts the switch drops (switch_drops).
inline std::map<std::string, double> fct_metrics(const harness::DynamicExperimentResult& r) {
  const auto s = r.fcts.summarize();
  std::map<std::string, double> m = {{"avg_overall_ms", s.avg_overall_ms},
                                     {"avg_small_ms", s.avg_small_ms},
                                     {"avg_medium_ms", s.avg_medium_ms},
                                     {"avg_large_ms", s.avg_large_ms},
                                     {"p99_small_ms", s.p99_small_ms},
                                     {"p99_overall_ms", s.p99_overall_ms},
                                     {"flows", static_cast<double>(s.count)},
                                     {"incomplete", static_cast<double>(r.incomplete)},
                                     {"drops", static_cast<double>(switch_drops(r.telemetry))},
                                     {"marks", static_cast<double>(r.telemetry.ecn_marks)}};
  for (std::size_t i = 0; i < telemetry::kNumDropReasons; ++i) {
    const auto reason = static_cast<telemetry::DropReason>(i);
    m["drops_" + std::string(telemetry::drop_reason_name(reason))] =
        static_cast<double>(r.telemetry.drops(reason));
  }
  m["threshold_exchanges"] = static_cast<double>(r.telemetry.threshold_exchanges);
  return m;
}

// Folds the (scheme, load) aggregates (seed-mean of every metric) back into
// the map the table printers consume. With a single seed this is
// exactly the per-run summary, so the output matches the old serial driver
// byte for byte.
inline FctResults fct_results_from_store(const sweep::ResultStore& store) {
  FctResults results;
  for (const auto& row : store.aggregate()) {
    if (row.replicas == 0) continue;  // every replica failed; printers show n/a
    stats::FctSummary s;
    const auto metric = [&row](const char* name) { return row_mean(row, name); };
    s.avg_overall_ms = metric("avg_overall_ms");
    s.avg_small_ms = metric("avg_small_ms");
    s.avg_medium_ms = metric("avg_medium_ms");
    s.avg_large_ms = metric("avg_large_ms");
    s.p99_small_ms = metric("p99_small_ms");
    s.p99_overall_ms = metric("p99_overall_ms");
    s.count = static_cast<std::size_t>(std::llround(metric("flows")));
    std::string scheme;
    double load = 0.0;
    for (const auto& [axis, value] : row.coords) {
      if (axis == "scheme") scheme = value.label;
      if (axis == "load") load = value.number;
    }
    results[core::parse_scheme(scheme)][load] = s;
  }
  return results;
}

// One grid point of the Fig. 8/9 scenario. Constructs a fresh simulator and
// star topology from the point alone (required by the sweep contract).
inline sweep::JobResult run_fct_job(const FctSweepConfig& sweep,
                                    const sweep::JobPoint& point) {
  const auto kind = core::parse_scheme(point.label("scheme"));
  harness::DynamicStarConfig cfg;
  cfg.star = testbed_star(kind, /*num_hosts=*/5, {1, 1, 1, 1, 1});
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.client_host = 0;
  cfg.num_servers = 4;
  cfg.num_flows = sweep.flows;
  cfg.load = point.number("load");
  cfg.dist = &workload::web_search_workload();
  cfg.cc = core::scheme_uses_ecn(kind) ? sweep.ecn_cc : sweep.default_cc;
  cfg.pias = true;
  cfg.pias_threshold_bytes = 100'000;
  cfg.first_service_queue = 1;
  cfg.seed = static_cast<std::uint64_t>(point.number("seed"));
  auto r = harness::run_dynamic_star_experiment(cfg);
  return job_record(fct_metrics(r), r);
}

// Runs an FCT grid (scheme x load x seed) through the sweep engine
// (--jobs/--json, see run_sweep) and prints, in job order, a warning for
// every job that left flows incomplete.
inline SweepRun run_fct_sweep(const harness::Cli& cli, std::string name,
                              sweep::SweepSpec spec, const sweep::JobFn& fn) {
  auto run = run_sweep(cli, std::move(name), std::move(spec), fn);
  for (const auto& o : run.store.outcomes()) {
    const auto it = o.metrics.find("incomplete");
    if (it != o.metrics.end() && it->second > 0) {
      std::fprintf(stderr, "warning: %.0f flows incomplete (%s, load %.0f%%)\n", it->second,
                   o.point.label("scheme").c_str(), o.point.number("load") * 100);
    }
  }
  return run;
}

// The Fig. 8/9 grid of `sweep`, one run_fct_job per point.
inline SweepRun run_fct_sweep(const harness::Cli& cli, std::string name,
                              const FctSweepConfig& sweep) {
  return run_fct_sweep(
      cli, std::move(name), scheme_load_seed_spec(sweep.schemes, sweep.loads, sweep.seeds),
      [&sweep](const sweep::JobPoint& point) { return run_fct_job(sweep, point); });
}

// Prints one metric table: rows = schemes, columns = loads, values
// normalized by the reference scheme (the paper normalizes by DynaQ).
inline void print_fct_metric(const FctResults& results, core::SchemeKind reference,
                             const std::vector<double>& loads, const char* title,
                             double stats::FctSummary::*metric) {
  std::printf("%s (normalized by %s; raw %s values in ms on the reference row)\n", title,
              std::string(core::scheme_name(reference)).c_str(),
              std::string(core::scheme_name(reference)).c_str());
  std::vector<std::string> header{"scheme"};
  for (const double l : loads) header.push_back(fmt(l * 100, 0) + "%");
  harness::Table t(std::move(header));
  // A (scheme, load) cell can be absent when every seed replica of that job
  // failed (fault isolation keeps the rest of the sweep alive) — print n/a.
  const auto lookup = [&results, metric](core::SchemeKind k, double l) {
    const auto ki = results.find(k);
    if (ki == results.end()) return 0.0;
    const auto li = ki->second.find(l);
    return li == ki->second.end() ? 0.0 : li->second.*metric;
  };
  for (const auto& [kind, by_load] : results) {
    std::vector<std::string> row{std::string(core::scheme_name(kind))};
    for (const double l : loads) {
      const double ref = lookup(reference, l);
      const auto li = by_load.find(l);
      if (li == by_load.end()) {
        row.push_back("n/a");
      } else if (kind == reference) {
        row.push_back(fmt(li->second.*metric, 2) + "ms");
      } else {
        row.push_back(ref > 0 ? fmt(li->second.*metric / ref, 2) + "x" : "n/a");
      }
    }
    t.row(std::move(row));
  }
  t.print();
  std::puts("");
}

// Per-(scheme, load) drop-reason breakdown from the per-job telemetry
// summaries (seed-summed): where each scheme loses packets — Algorithm 1's
// victim protection vs. plain threshold vs. physical port/NIC overflow.
inline void print_drop_breakdown(const sweep::ResultStore& store) {
  struct Cell {
    std::array<std::uint64_t, telemetry::kNumDropReasons> drops{};
    std::uint64_t exchanges = 0;
  };
  std::map<std::string, std::map<double, Cell>> cells;
  for (const auto& o : store.outcomes()) {
    if (!o.ok || !o.telemetry) continue;
    Cell& c = cells[o.point.label("scheme")][o.point.number("load")];
    for (std::size_t i = 0; i < telemetry::kNumDropReasons; ++i) {
      c.drops[i] += o.telemetry->drops_by_reason[i];
    }
    c.exchanges += o.telemetry->threshold_exchanges;
  }
  if (cells.empty()) return;
  std::puts("Drop reasons (telemetry, summed over seeds)");
  harness::Table t({"scheme", "load", "threshold", "victim_unsat", "victim_small", "port_full",
                    "nic_full", "injected", "exchanges"});
  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  for (const auto& [scheme, by_load] : cells) {
    for (const auto& [load, c] : by_load) {
      t.row({scheme, fmt(load * 100, 0) + "%",
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kThreshold)]),
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kVictimUnsatisfied)]),
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kVictimTooSmall)]),
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kPortFull)]),
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kNicFull)]),
             count(c.drops[static_cast<std::size_t>(telemetry::DropReason::kInjected)]),
             count(c.exchanges)});
    }
  }
  t.print();
  std::puts("");
}

}  // namespace dynaq::bench
