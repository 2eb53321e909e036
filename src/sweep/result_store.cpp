#include "sweep/result_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "stats/percentile.hpp"
#include "sweep/json.hpp"

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

void write_axis_value(JsonWriter& json, const AxisValue& v) {
  if (v.numeric) {
    json.value(v.number);
  } else {
    json.value(v.label);
  }
}

void write_point(JsonWriter& json,
                 const std::vector<std::pair<std::string, AxisValue>>& coords) {
  json.begin_object();
  for (const auto& [axis, value] : coords) {
    json.key(axis);
    write_axis_value(json, value);
  }
  json.end_object();
}

void write_telemetry(JsonWriter& json, const telemetry::TelemetrySummary& t) {
  json.begin_object();
  json.key("drops");
  json.begin_object();
  for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
    json.key(std::string(telemetry::drop_reason_name(static_cast<telemetry::DropReason>(r))));
    json.value(t.drops_by_reason[r]);
  }
  json.end_object();
  json.key("enqueues");
  json.value(t.enqueues);
  json.key("evictions");
  json.value(t.evictions);
  json.key("threshold_exchanges");
  json.value(t.threshold_exchanges);
  json.key("exchanged_bytes");
  json.value(t.exchanged_bytes);
  json.key("ecn_marks");
  json.value(t.ecn_marks);
  json.key("scenario_actions");
  json.value(t.scenario_actions);
  if (t.control.any()) {
    // Control-plane block (DESIGN.md §14), present only when a
    // ctrlplane::ControlPlanePolicy actually emitted events this run.
    json.key("control");
    json.begin_object();
    json.key("updates");
    json.value(t.control.updates);
    json.key("updates_lost");
    json.value(t.control.updates_lost);
    json.key("failovers");
    json.value(t.control.failovers);
    json.key("restores");
    json.value(t.control.restores);
    json.key("degraded_us");
    json.value(t.control.degraded_us);
    json.key("recovery_us");
    json.value(t.control.recovery_us);
    json.key("throughput_retention");
    json.value(t.control.throughput_retention);
    json.end_object();
  }
  json.key("queue_delay");
  json.begin_array();
  for (std::size_t q = 0; q < t.queue_delay.size(); ++q) {
    const telemetry::QueueDelaySummary& d = t.queue_delay[q];
    if (d.count == 0) continue;
    json.begin_object();
    json.key("queue");
    json.value(q);
    json.key("count");
    json.value(d.count);
    json.key("p50_us");
    json.value(d.p50_us);
    json.key("p99_us");
    json.value(d.p99_us);
    json.key("max_us");
    json.value(d.max_us);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

// Hashes are emitted as "0x" + 16 hex digits: a u64 does not survive a
// round-trip through JSON numbers (doubles), and the ci.sh differential
// gate greps for this exact canonical form.
std::string hash_hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
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

std::vector<AggregateRow> ResultStore::aggregate(const std::string& replica_axis) const {
  std::vector<AggregateRow> rows;
  std::map<std::string, std::size_t> row_by_key;      // group key -> rows index
  std::map<std::size_t, std::map<std::string, std::vector<double>>> samples;

  for (const auto& o : outcomes_) {
    std::string key;
    std::vector<std::pair<std::string, AxisValue>> coords;
    for (const auto& [axis, value] : o.point.coords) {
      if (axis == replica_axis) continue;
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

std::string ResultStore::to_json(const JsonOptions& options,
                                 const std::string& replica_axis) const {
  JsonWriter json;
  json.begin_object();
  // v7: jobs lost the per-job "oracle" competitive-ratio block that v5
  // added; v6: telemetry gained the optional "control" block (control-plane
  // updates/failovers and recovery metrics, DESIGN.md §14); v4: telemetry
  // gained "scenario_actions" (§11).
  json.key("schema_version");
  json.value(7);
  json.key("sweep");
  json.value(name_);
  json.key("mode");
  json.value(spec_.zipped ? "zipped" : "cartesian");

  json.key("axes");
  json.begin_array();
  for (const auto& axis : spec_.axes) {
    json.begin_object();
    json.key("name");
    json.value(axis.name);
    json.key("values");
    json.begin_array();
    for (const auto& v : axis.values) write_axis_value(json, v);
    json.end_array();
    json.end_object();
  }
  json.end_array();

  json.key("jobs");
  json.begin_array();
  for (const auto& o : outcomes_) {
    json.begin_object();
    json.key("id");
    json.value(o.point.job_id);
    json.key("point");
    write_point(json, o.point.coords);
    json.key("ok");
    json.value(o.ok);
    json.key("attempts");
    json.value(o.attempts);
    if (o.ok) {
      json.key("metrics");
      json.begin_object();
      for (const auto& [metric, v] : o.metrics) {
        json.key(metric);
        json.value(v);
      }
      json.end_object();
      if (o.telemetry) {
        json.key("telemetry");
        write_telemetry(json, *o.telemetry);
      }
      if (o.trajectory_hash) {
        json.key("trajectory_hash");
        json.value(hash_hex(*o.trajectory_hash));
      }
    } else {
      json.key("timed_out");
      json.value(o.timed_out);
      json.key("error");
      json.value(o.error);
    }
    if (options.include_perf) {
      json.key("perf");
      json.begin_object();
      json.key("wall_ms");
      json.value(o.wall_ms);
      json.key("cpu_ms");
      json.value(o.cpu_ms);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();

  json.key("aggregates");
  json.begin_array();
  for (const auto& row : aggregate(replica_axis)) {
    json.begin_object();
    json.key("point");
    write_point(json, row.coords);
    json.key("replicas");
    json.value(row.replicas);
    json.key("metrics");
    json.begin_object();
    for (const auto& [metric, agg] : row.metrics) {
      json.key(metric);
      json.begin_object();
      json.key("n");
      json.value(agg.n);
      json.key("mean");
      json.value(agg.mean);
      json.key("p50");
      json.value(agg.p50);
      json.key("p99");
      json.value(agg.p99);
      json.key("min");
      json.value(agg.min);
      json.key("max");
      json.value(agg.max);
      json.key("ci95_half");
      json.value(agg.ci95_half);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  json.key("failures");
  json.value(failures());

  if (options.include_perf) {
    json.key("perf");
    json.begin_object();
    json.key("jobs");
    json.value(jobs_used_);
    json.key("total_wall_ms");
    json.value(total_wall_ms_);
    json.key("max_rss_kb");
    json.value(max_rss_kb_);
    json.end_object();
  }
  json.end_object();
  std::string out = json.take();
  out += '\n';
  return out;
}

bool ResultStore::write_json(const std::string& path, const JsonOptions& options,
                             const std::string& replica_axis) const {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << to_json(options, replica_axis);
  return out.good();
}

bool ResultStore::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::set<std::string> metric_names;
  for (const auto& o : outcomes_) {
    for (const auto& [metric, v] : o.metrics) metric_names.insert(metric);
  }
  out << "job_id";
  for (const auto& axis : spec_.axes) out << ',' << axis.name;
  for (const auto& metric : metric_names) out << ',' << metric;
  out << ",ok,error\n";
  for (const auto& o : outcomes_) {
    out << o.point.job_id;
    for (const auto& [axis, value] : o.point.coords) out << ',' << value.label;
    for (const auto& metric : metric_names) {
      out << ',';
      const auto it = o.metrics.find(metric);
      if (it != o.metrics.end()) out << JsonWriter::format_number(it->second);
    }
    std::string err = o.error;
    std::replace(err.begin(), err.end(), ',', ';');
    std::replace(err.begin(), err.end(), '\n', ' ');
    out << ',' << (o.ok ? 1 : 0) << ',' << err << '\n';
  }
  return out.good();
}

}  // namespace dynaq::sweep
