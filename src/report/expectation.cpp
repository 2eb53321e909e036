#include "report/expectation.hpp"

#include <cstdio>
#include <limits>

namespace dynaq::report {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

// One non-seed grid point of one scheme: seed replicas averaged per metric.
struct Group {
  std::string scheme;
  std::string point;  // non-scheme, non-seed coordinates, e.g. "load=0.5"
  double load = 0.0;
  bool has_load = false;
  std::map<std::string, double> sums;
  std::map<std::string, std::int64_t> counts;

  double mean(const std::string& metric, bool* present) const {
    const auto it = sums.find(metric);
    if (it == sums.end()) {
      *present = false;
      return 0.0;
    }
    *present = true;
    return it->second / static_cast<double>(counts.at(metric));
  }
};

std::vector<Group> group_jobs(const SweepDoc& doc) {
  std::vector<Group> groups;
  for (const SweepJob& job : doc.jobs) {
    if (!job.ok) continue;
    std::string scheme;
    if (const auto it = job.labels.find("scheme"); it != job.labels.end()) scheme = it->second;
    std::string point;
    double load = 0.0;
    bool has_load = false;
    for (const auto& [axis, value] : job.labels) {
      if (axis == "scheme") continue;
      if (!point.empty()) point += ' ';
      point += axis + "=" + value;
    }
    for (const auto& [axis, value] : job.numbers) {
      if (axis == "seed") continue;
      if (axis == "load") {
        load = value;
        has_load = true;
      }
      if (!point.empty()) point += ' ';
      point += axis + "=" + fmt(value);
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.scheme == scheme && g.point == point) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{scheme, point, load, has_load, {}, {}});
      group = &groups.back();
    }
    for (const auto& [metric, value] : job.metrics) {
      group->sums[metric] += value;
      group->counts[metric] += 1;
    }
  }
  return groups;
}

// Running summary of the values one expectation judged, rendered as
// "lo..hi over N point(s)" (or the single value).
struct ValueSpan {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::int64_t n = 0;

  void add(double v) {
    if (v < min) min = v;
    if (v > max) max = v;
    ++n;
  }
  std::string render(const std::string& what) const {
    if (n == 0) return "";
    std::string out = what + " = " + fmt(min);
    if (n > 1 && max != min) out += ".." + fmt(max);
    out += " over " + std::to_string(n) + (n == 1 ? " point" : " points");
    return out;
  }
};

std::string bound_text(const Expectation& e, double hi) {
  std::string out;
  if (e.lo > 0.0) out += ">= " + fmt(e.lo);
  if (!e.unbounded_above) {
    if (!out.empty()) out += ", ";
    out += "<= " + fmt(hi);
  }
  return out.empty() ? "any" : out;
}

class Evaluator {
 public:
  Evaluator(const Expectation& e, const std::vector<SweepDoc>& sweeps)
      : e_(e), sweeps_(sweeps) {}

  Outcome run() {
    Outcome out;
    out.id = e_.id;
    out.figure = e_.figure;
    out.claim = e_.claim;
    switch (e_.kind) {
      case ExpectationKind::kSchemeRatio: eval_scheme_ratio(); break;
      case ExpectationKind::kMetricBound: eval_metric_bound(); break;
      case ExpectationKind::kMetricPairRatio: eval_pair_ratio(); break;
      case ExpectationKind::kJobHealth: eval_job_health(); break;
    }
    if (judged_ == 0) {
      out.status = Status::kSkip;
      out.detail = skip_reason_.empty() ? "no matching document loaded" : skip_reason_;
      return out;
    }
    out.status = failures_.empty() ? Status::kPass : Status::kFail;
    out.measured = measured_;
    if (!failures_.empty()) out.detail = failures_;
    return out;
  }

 private:
  std::vector<const SweepDoc*> matching_docs() const {
    std::vector<const SweepDoc*> docs;
    for (const SweepDoc& doc : sweeps_) {
      if (e_.sweep.empty() || doc.sweep == e_.sweep) docs.push_back(&doc);
    }
    if (docs.empty() && !e_.sweep.empty()) {
      skip_reason_ = "sweep '" + e_.sweep + "' not among the loaded documents";
    }
    return docs;
  }

  void check(double value, const std::string& where, double hi) {
    ++judged_;
    span_.add(value);
    const bool ok = value >= e_.lo && (e_.unbounded_above || value <= hi);
    if (!ok && failures_.empty()) {
      failures_ = where + ": " + fmt(value) + " outside [" + bound_text(e_, hi) + "]";
    }
  }

  bool point_in_scope(const Group& g) const {
    return !(g.has_load && g.load < e_.min_load);
  }

  void eval_scheme_ratio() {
    for (const SweepDoc* doc : matching_docs()) {
      const auto groups = group_jobs(*doc);
      for (const Group& a : groups) {
        if (a.scheme != e_.scheme_a || !point_in_scope(a)) continue;
        for (const std::string& baseline : e_.scheme_b) {
          for (const Group& b : groups) {
            if (b.scheme != baseline || b.point != a.point) continue;
            bool have_a = false;
            bool have_b = false;
            const double num = a.mean(e_.metric, &have_a);
            const double den = b.mean(e_.metric, &have_b);
            if (!have_a || !have_b) continue;
            const std::string where =
                e_.scheme_a + "/" + baseline + " " + e_.metric + " @ " + a.point;
            if (den <= 0.0) {
              ++judged_;
              if (failures_.empty()) failures_ = where + ": baseline mean is " + fmt(den);
              continue;
            }
            check(num / den, where, e_.hi);
          }
        }
      }
    }
    measured_ = span_.render(e_.scheme_a + "/" + join(e_.scheme_b) + " " + e_.metric);
  }

  void eval_metric_bound() {
    for (const SweepDoc* doc : matching_docs()) {
      for (const Group& g : group_jobs(*doc)) {
        if (!e_.scheme_a.empty() && g.scheme != e_.scheme_a) continue;
        if (!point_in_scope(g)) continue;
        bool present = false;
        const double value = g.mean(e_.metric, &present);
        if (!present) continue;
        check(value, scheme_point(g), e_.hi);
      }
    }
    measured_ = span_.render((e_.scheme_a.empty() ? "" : e_.scheme_a + " ") + e_.metric);
  }

  void eval_pair_ratio() {
    for (const SweepDoc* doc : matching_docs()) {
      for (const Group& g : group_jobs(*doc)) {
        if (!e_.scheme_a.empty() && g.scheme != e_.scheme_a) continue;
        if (!point_in_scope(g)) continue;
        bool have_a = false;
        bool have_b = false;
        const double num = g.mean(e_.metric, &have_a);
        const double den = g.mean(e_.metric_b, &have_b);
        if (!have_a || !have_b) continue;
        const std::string where =
            e_.metric + "/" + e_.metric_b + " @ " + scheme_point(g);
        if (den <= 0.0) {
          ++judged_;
          if (failures_.empty()) failures_ = where + ": denominator mean is " + fmt(den);
          continue;
        }
        check(num / den, where, e_.hi);
      }
    }
    measured_ = span_.render(e_.metric + "/" + e_.metric_b);
  }

  void eval_job_health() {
    std::int64_t jobs = 0;
    std::int64_t bad = 0;
    std::int64_t docs = 0;
    for (const SweepDoc* doc : matching_docs()) {
      ++docs;
      ++judged_;
      for (const SweepJob& job : doc->jobs) {
        ++jobs;
        if (job.ok) continue;
        ++bad;
        if (failures_.empty()) {
          failures_ = doc->sweep + " job " + std::to_string(job.id) + " failed: " + job.error;
        }
      }
      if (doc->failures > 0 && failures_.empty()) {
        failures_ = doc->sweep + ": " + std::to_string(doc->failures) + " recorded failures";
      }
    }
    measured_ = std::to_string(docs) + " document" + (docs == 1 ? "" : "s") + ", " +
                std::to_string(jobs) + " jobs, " + std::to_string(bad) + " failed";
  }

  std::string scheme_point(const Group& g) const {
    std::string out = g.scheme;
    if (!g.point.empty()) out += (out.empty() ? "" : " @ ") + g.point;
    return out.empty() ? "(all)" : out;
  }

  static std::string join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) {
      if (!out.empty()) out += "|";
      out += p;
    }
    return out;
  }

  const Expectation& e_;
  const std::vector<SweepDoc>& sweeps_;
  std::int64_t judged_ = 0;
  ValueSpan span_;
  std::string measured_;
  std::string failures_;
  mutable std::string skip_reason_;
};

Expectation make(std::string id, std::string figure, std::string claim, ExpectationKind kind) {
  Expectation e;
  e.id = std::move(id);
  e.figure = std::move(figure);
  e.claim = std::move(claim);
  e.kind = kind;
  return e;
}

}  // namespace

std::string_view status_name(Status s) {
  switch (s) {
    case Status::kPass: return "pass";
    case Status::kFail: return "FAIL";
    case Status::kSkip: return "skip";
  }
  return "?";
}

std::vector<Expectation> default_catalogue() {
  std::vector<Expectation> cat;

  {  // Zero invariant-audit violations (DESIGN.md §6): an AuditError kills
     // its job, so "every job ok" is the machine-checkable form.
    Expectation e = make("fidelity.audit_clean", "§6",
                         "every job of every sweep completes with zero invariant-audit "
                         "violations and zero sweep failures",
                         ExpectationKind::kJobHealth);
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig08.overall_ties_besteffort", "Fig. 8",
                         "DynaQ roughly ties BestEffort on overall average FCT",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig08_fct_non_ecn";
    e.metric = "avg_overall_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"BestEffort"};
    e.lo = 0.5;
    e.hi = 1.5;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig08.small_p99_beats_besteffort", "Fig. 8",
                         "DynaQ clearly beats BestEffort on small-flow p99 FCT at high load",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig08_fct_non_ecn";
    e.metric = "p99_small_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"BestEffort"};
    e.lo = 0.0;
    e.hi = 1.0;
    e.min_load = 0.5;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig08.large_beats_pql", "Fig. 8",
                         "DynaQ beats PQL on large-flow average FCT",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig08_fct_non_ecn";
    e.metric = "avg_large_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"PQL"};
    e.lo = 0.0;
    e.hi = 1.0;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig09.small_beats_ecn", "Fig. 9",
                         "plain-TCP DynaQ beats every DCTCP+ECN scheme on small-flow average FCT",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig09_fct_ecn";
    e.metric = "avg_small_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"TCN", "PMSB", "PerQueueECN"};
    e.lo = 0.0;
    e.hi = 1.0;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig12.dynaq_fair_share", "Fig. 12",
                         "DynaQ holds near-perfect fairness with 16..2048 flows per queue",
                         ExpectationKind::kMetricBound);
    e.sweep = "fig12_many_flows";
    e.metric = "min_jain";
    e.scheme_a = "DynaQ";
    e.lo = 0.95;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig12.dynaq_full_throughput", "Fig. 12",
                         "DynaQ sustains full 100 Gbps aggregate throughput",
                         ExpectationKind::kMetricBound);
    e.sweep = "fig12_many_flows";
    e.metric = "mean_aggregate_gbps";
    e.scheme_a = "DynaQ";
    e.lo = 95.0;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig12.pql_collapse_avoided", "Fig. 12",
                         "DynaQ keeps last-phase throughput PQL gives up after the other "
                         "queues stop",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig12_many_flows";
    e.metric = "last_phase_gbps";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"PQL"};
    e.lo = 1.0;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig13.overall_ties_besteffort", "Fig. 13",
                         "leaf-spine at 10 Gbps compresses the overall-FCT gaps to a few percent",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig13_leaf_spine";
    e.metric = "avg_overall_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"BestEffort"};
    e.lo = 0.85;
    e.hi = 1.15;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("fig13.pql_worst_overall", "Fig. 13",
                         "PQL has the worst overall FCT on the leaf-spine fabric",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "fig13_leaf_spine";
    e.metric = "avg_overall_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"PQL"};
    e.lo = 0.0;
    e.hi = 1.0;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("abl.dynaq_fct_vs_dt", "§12",
                         "DynaQ's overall FCT is no worse than classic Dynamic Threshold's",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "abl_competitive";
    e.metric = "avg_overall_ms";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"DT"};
    e.lo = 0.0;
    e.hi = 1.05;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.link_flap_outage", "§11",
                         "a scripted link_down actually takes the bottleneck down",
                         ExpectationKind::kMetricPairRatio);
    e.sweep = "rob_link_flap";
    e.metric = "flap_gbps";
    e.metric_b = "pre_gbps";
    e.lo = 0.0;
    e.hi = 0.2;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.link_flap_recovery", "§11",
                         "every scheme recovers at least 90% of pre-fault throughput after "
                         "the last link_up",
                         ExpectationKind::kMetricPairRatio);
    e.sweep = "rob_link_flap";
    e.metric = "recovered_gbps";
    e.metric_b = "pre_gbps";
    e.lo = 0.9;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.weight_churn_dynaq_fair", "§11",
                         "DynaQ tracks every mid-run weight reassignment at high fairness",
                         ExpectationKind::kMetricBound);
    e.sweep = "rob_weight_churn";
    e.metric = "jain";
    e.scheme_a = "DynaQ";
    e.lo = 0.95;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.weight_churn_dynaq_throughput", "§11",
                         "DynaQ stays work-conserving through weight churn (>= 0.95 Gbps "
                         "aggregate on the 1 Gbps star)",
                         ExpectationKind::kMetricBound);
    e.sweep = "rob_weight_churn";
    e.metric = "agg_gbps";
    e.scheme_a = "DynaQ";
    e.lo = 0.95;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.controller_failover_retention", "§14",
                         "DynaQ with a crashed controller (failed over to DT) retains "
                         "throughput comparable to a native DT baseline",
                         ExpectationKind::kSchemeRatio);
    e.sweep = "rob_controller";
    e.metric = "throughput_retention";
    e.scheme_a = "DynaQ";
    e.scheme_b = {"DT"};
    e.lo = 0.95;
    e.unbounded_above = true;
    cat.push_back(std::move(e));
  }
  {
    Expectation e = make("rob.controller_recovery_bounded", "§14",
                         "time from controller return to restored DynaQ thresholds stays "
                         "within one watchdog period plus the re-sync update latency",
                         ExpectationKind::kMetricPairRatio);
    e.sweep = "rob_controller";
    e.metric = "recovery_time_us";
    e.metric_b = "recovery_budget_us";
    e.scheme_a = "DynaQ";
    e.lo = 0.0;
    e.hi = 1.0;
    cat.push_back(std::move(e));
  }
  return cat;
}

std::vector<Outcome> evaluate(const std::vector<Expectation>& catalogue,
                              const std::vector<SweepDoc>& sweeps) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(catalogue.size());
  for (const Expectation& e : catalogue) outcomes.push_back(Evaluator(e, sweeps).run());
  return outcomes;
}

}  // namespace dynaq::report
