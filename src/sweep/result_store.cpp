#include "sweep/result_store.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "json/json.hpp"
#include "sim/fingerprint.hpp"
#include "stats/percentile.hpp"

namespace dynaq::sweep {
namespace {

// Student t 97.5% quantiles for df 1..30; the normal quantile beyond. Few
// seed replicas are the common case, where the normal approximation would
// understate the interval badly.
double t975(std::size_t df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  return df <= std::size(kTable) ? kTable[df - 1] : 1.960;
}

json::Value axis_value(const AxisValue& v) {
  return v.numeric ? json::Value(v.number) : json::Value(v.label);
}

json::Value point_json(const std::vector<std::pair<std::string, AxisValue>>& coords) {
  json::Value point = json::Value::object();
  for (const auto& [axis, value] : coords) point.set(axis, axis_value(value));
  return point;
}

json::Value telemetry_json(const telemetry::TelemetrySummary& t) {
  json::Value drops = json::Value::object();
  for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
    drops.set(std::string(telemetry::drop_reason_name(static_cast<telemetry::DropReason>(r))),
              t.drops_by_reason[r]);
  }
  json::Value out;
  out.set("drops", std::move(drops))
      .set("enqueues", t.enqueues)
      .set("evictions", t.evictions)
      .set("threshold_exchanges", t.threshold_exchanges)
      .set("exchanged_bytes", t.exchanged_bytes)
      .set("ecn_marks", t.ecn_marks)
      .set("scenario_actions", t.scenario_actions);
  if (t.control.any()) {
    // Control-plane block (DESIGN.md §14), present only when a
    // ctrlplane::ControlPlanePolicy actually emitted events this run.
    json::Value control;
    control.set("updates", t.control.updates)
        .set("updates_lost", t.control.updates_lost)
        .set("failovers", t.control.failovers)
        .set("restores", t.control.restores)
        .set("degraded_us", t.control.degraded_us)
        .set("recovery_us", t.control.recovery_us)
        .set("throughput_retention", t.control.throughput_retention);
    out.set("control", std::move(control));
  }
  json::Value delays = json::Value::array();
  for (std::size_t q = 0; q < t.queue_delay.size(); ++q) {
    const telemetry::QueueDelaySummary& d = t.queue_delay[q];
    if (d.count == 0) continue;
    json::Value delay;
    delay.set("queue", q)
        .set("count", d.count)
        .set("p50_us", d.p50_us)
        .set("p99_us", d.p99_us)
        .set("max_us", d.max_us);
    delays.push(std::move(delay));
  }
  out.set("queue_delay", std::move(delays));
  return out;
}

}  // namespace

MetricAggregate aggregate_samples(std::vector<double> samples) {
  MetricAggregate agg;
  agg.n = samples.size();
  if (samples.empty()) return agg;
  agg.mean = stats::mean(samples);
  agg.min = *std::min_element(samples.begin(), samples.end());
  agg.max = *std::max_element(samples.begin(), samples.end());
  static constexpr double kPs[] = {50.0, 99.0};
  const auto ps = stats::percentiles_inplace(samples, kPs);
  agg.p50 = ps[0];
  agg.p99 = ps[1];
  if (agg.n >= 2) {
    double ss = 0.0;
    for (const double x : samples) ss += (x - agg.mean) * (x - agg.mean);
    const double sd = std::sqrt(ss / static_cast<double>(agg.n - 1));
    agg.ci95_half = t975(agg.n - 1) * sd / std::sqrt(static_cast<double>(agg.n));
  }
  return agg;
}

std::size_t ResultStore::failures() const {
  std::size_t n = 0;
  for (const auto& o : outcomes_) n += o.ok ? 0 : 1;
  return n;
}

std::vector<AggregateRow> ResultStore::aggregate() const {
  std::vector<AggregateRow> rows;
  std::map<std::string, std::size_t> row_by_key;      // group key -> rows index
  std::map<std::size_t, std::map<std::string, std::vector<double>>> samples;

  for (const auto& o : outcomes_) {
    std::string key;
    std::vector<std::pair<std::string, AxisValue>> coords;
    for (const auto& [axis, value] : o.point.coords) {
      if (axis == "seed") continue;
      key += axis + '=' + value.label + '\x1f';
      coords.emplace_back(axis, value);
    }
    auto [it, inserted] = row_by_key.emplace(key, rows.size());
    if (inserted) rows.push_back(AggregateRow{std::move(coords), 0, {}});
    AggregateRow& row = rows[it->second];
    if (!o.ok) continue;
    ++row.replicas;
    for (const auto& [metric, v] : o.metrics) samples[it->second][metric].push_back(v);
  }
  for (auto& [row_idx, by_metric] : samples) {
    for (auto& [metric, xs] : by_metric) {
      rows[row_idx].metrics[metric] = aggregate_samples(std::move(xs));
    }
  }
  return rows;
}

std::string ResultStore::to_json() const {
  json::Value axes = json::Value::array();
  for (const auto& axis : spec_.axes) {
    json::Value values = json::Value::array();
    for (const auto& v : axis.values) values.push(axis_value(v));
    axes.push(json::Value().set("name", axis.name).set("values", std::move(values)));
  }

  json::Value jobs = json::Value::array();
  for (const auto& o : outcomes_) {
    json::Value job;
    job.set("id", o.point.job_id).set("point", point_json(o.point.coords)).set("ok", o.ok);
    if (o.ok) {
      json::Value metrics = json::Value::object();
      for (const auto& [metric, v] : o.metrics) metrics.set(metric, v);
      job.set("metrics", std::move(metrics));
      if (o.telemetry) job.set("telemetry", telemetry_json(*o.telemetry));
      if (o.trajectory_hash) job.set("trajectory_hash", sim::fingerprint_hex(*o.trajectory_hash));
    } else {
      job.set("error", o.error);
    }
    jobs.push(std::move(job));
  }

  json::Value aggregates = json::Value::array();
  for (const auto& row : aggregate()) {
    json::Value metrics = json::Value::object();
    for (const auto& [metric, agg] : row.metrics) {
      json::Value m;
      m.set("n", agg.n)
          .set("mean", agg.mean)
          .set("p50", agg.p50)
          .set("p99", agg.p99)
          .set("min", agg.min)
          .set("max", agg.max)
          .set("ci95_half", agg.ci95_half);
      metrics.set(metric, std::move(m));
    }
    aggregates.push(json::Value()
                        .set("point", point_json(row.coords))
                        .set("replicas", row.replicas)
                        .set("metrics", std::move(metrics)));
  }

  // v8: dropped "mode" and the per-job "attempts" and "timed_out" (the
  // engine has one job path); v7: jobs lost the per-job "oracle"
  // competitive-ratio block that v5 added; v6: telemetry gained the
  // optional "control" block (control-plane updates/failovers and recovery
  // metrics, DESIGN.md §14); v4: telemetry gained "scenario_actions" (§11).
  // A v8 document carries no host timings ("perf"), so its bytes are the
  // same for any worker count.
  json::Value doc;
  doc.set("schema_version", 8)
      .set("sweep", name_)
      .set("axes", std::move(axes))
      .set("jobs", std::move(jobs))
      .set("aggregates", std::move(aggregates))
      .set("failures", failures());
  return doc.dump() + '\n';
}

bool ResultStore::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << to_json();
  return out.good();
}

}  // namespace dynaq::sweep
