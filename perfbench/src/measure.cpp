#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "probe.hpp"
#include "recorder.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The host probe (probe.hpp): its working set, and its pass time on the
// development host when quiet (README.md, "Noise and sizing"). The quiet
// time sets the scale of the end-to-end times, not their steadiness.
constexpr std::size_t kProbeTableBytes = std::size_t{32} << 20;
constexpr double kQuietProbeS = 0.015;

constexpr std::size_t kMinTimedRuns = 3;
constexpr std::uint64_t kMaxFailures = 3;
// Share of each full run's time spent on setup-only calls after it.
constexpr double kSetupShare = 0.1;
constexpr int kMaxSetupsPerRound = 64;
constexpr int kMinReplayRounds = 3;
constexpr int kMaxReplayRounds = 25;
// Calls under the recording decorator in a traced run, each paired with an
// untraced call.
constexpr int kTracedCalls = 3;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// Peak resident memory of this program image, in MiB. VmHWM is reset by
// exec; getrusage's ru_maxrss is not, so under a launcher it would report
// the launcher's own peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// Moves the process to each CPU it may run on in turn. On a shared host one
// vCPU can run the simulator 2x slower for seconds to minutes while the
// others stay fast, and the scheduler keeps a busy thread on the CPU it
// started on (README.md, "Noise and sizing"); moving between repetitions
// lets the fastest repetition come from a fast CPU. It starts on the CPU
// the scheduler chose, so that processes started together do not meet on
// every CPU in step. The original affinity is restored at the end. Without
// the right to set affinity, it does nothing.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    const int current = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_)) continue;
      if (cpu == current) next_ = cpus_.size();
      cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      moved_ = true;
    } else {
      cpus_.clear();
    }
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

bool same_fct(const dynaq::stats::FctSummary& a, const dynaq::stats::FctSummary& b) {
  return a.count == b.count && a.avg_overall_ms == b.avg_overall_ms &&
         a.avg_small_ms == b.avg_small_ms && a.avg_medium_ms == b.avg_medium_ms &&
         a.avg_large_ms == b.avg_large_ms && a.p99_small_ms == b.p99_small_ms &&
         a.p99_overall_ms == b.p99_overall_ms;
}

// Output checks of one full run; `reference` is the workload's first
// successful run (null while checking that run itself).
std::vector<std::string> check_run(const RunOutcome& run, const RunOutcome* reference,
                                   const SeedChoice& choice) {
  std::vector<std::string> problems;
  const auto fail = [&problems](std::string what) { problems.push_back(std::move(what)); };
  if (run.trajectory_hash == 0) fail("trajectory_hash is 0 (fingerprint off?)");
  if (run.delivered_pkts == 0) fail("no data packets delivered");
  if (run.incomplete > 0) fail(std::to_string(run.incomplete) + " flows left incomplete");
  if (!run.senders && run.delivered_pkts != choice.offered_pkts) {
    fail("delivered " + std::to_string(run.delivered_pkts) + " packets but the flows offered " +
         std::to_string(choice.offered_pkts));
  }
  if (reference == nullptr) return problems;
  if (run.trajectory_hash != reference->trajectory_hash) {
    fail("trajectory_hash " + hex(run.trajectory_hash) + " differs from the first run's " +
         hex(reference->trajectory_hash));
  }
  if (run.drops != reference->drops || run.events != reference->events ||
      run.flows != reference->flows || !same_fct(run.fct, reference->fct)) {
    fail("drops, events or the FCT summary differ from the first run's");
  }
  if (run.senders && reference->senders &&
      (run.senders->data_packets != reference->senders->data_packets ||
       run.senders->retransmissions != reference->senders->retransmissions ||
       run.senders->timeouts != reference->senders->timeouts)) {
    fail("sender totals differ from the first run's");
  }
  return problems;
}

// Repetitions of one figure point: a warm-up run, then timed full runs,
// each on the next CPU between two host probe passes there, and followed
// there by setup-only calls worth ~kSetupShare of its time, until the
// window has passed.
class Sampler {
 public:
  struct Round {
    double wall = 0.0;           // the timed call
    double probe = 0.0;          // mean of the host probe passes just before and after it
    std::vector<double> setups;  // the setup-only calls after it
  };

  Sampler(const Options& options, TraceLog& log, RunReport& report, CpuRotation& cpus)
      : log_(log),
        report_(report),
        cpus_(cpus),
        choice_(choose_harness_seed(options.workload, options.seed, {})) {
    full_.kind = options.workload;
    full_.seed = choice_.harness_seed;
    setup_ = full_;
    setup_.setup_only = true;
  }

  void sample(double window_s) {
    const ScopedSpan span(log_, "untraced", -1);
    const Clock::time_point start = Clock::now();
    reference_ = run(span.id(), "warmup");
    if (!reference_ || !setup_call(span.id())) return;  // warms up set-up too
    probe_.pass();
    while (report_.failed < kMaxFailures &&
           (seconds_since(start) < window_s || rounds_.size() < kMinTimedRuns)) {
      cpus_.next();
      const double probe = probe_.pass();
      const std::optional<RunOutcome> call = run(span.id(), "run");
      if (!call) continue;
      const double after = probe_.pass();
      rounds_.push_back({call->wall_s, (probe + after) / 2, {}});
      double spent = 0.0;
      for (int i = 0; i < kMaxSetupsPerRound && spent < kSetupShare * call->wall_s; ++i) {
        const std::optional<double> setup = setup_call(span.id());
        if (!setup) break;
        rounds_.back().setups.push_back(*setup);
        spent += *setup;
      }
    }
  }

  bool ok() const {
    return reference_.has_value() && !rounds_.empty() && !rounds_.front().setups.empty();
  }
  const RunOutcome& reference() const { return *reference_; }
  // Each timed call brought to the host's quiet speed, by the share its
  // probe pass ran slower than quiet, and the median of these over the run.
  // Unlike the fastest call it holds when the whole run falls in a slow
  // phase (README.md, "Noise and sizing").
  double wall_s() const {
    std::vector<double> scaled;
    for (const Round& r : rounds_) scaled.push_back(r.wall * quiet_scale(r));
    return quantile(scaled, 0.5);
  }
  // The setup-only calls, each scaled by its round's probe pass; median.
  double setup_s() const {
    std::vector<double> scaled;
    for (const Round& r : rounds_) {
      for (const double s : r.setups) scaled.push_back(s * quiet_scale(r));
    }
    return quantile(scaled, 0.5);
  }
  // The probe's table is the benchmark's, not the figure point's memory.
  double probe_mb() const { return static_cast<double>(probe_.resident_bytes()) / (1 << 20); }

  // One complete call of the figure point, checked against the reference
  // (the first successful call); `policies`, when set, makes every switch
  // port's buffer policy. nullopt if the call failed.
  std::optional<RunOutcome> run(int parent, const char* name, PolicyFactory policies = {}) {
    RunRequest req = full_;
    req.policy_factory = std::move(policies);
    std::optional<RunOutcome> call = attempt(req, parent, name);
    if (!call) return call;
    const std::vector<std::string> problems =
        check_run(*call, reference_ ? &*reference_ : nullptr, choice_);
    if (problems.empty()) return call;
    ++report_.failed;
    for (const std::string& p : problems) report_.problems.push_back(p);
    return std::nullopt;
  }

  void add_notes() const {
    const std::string name(workload_name(full_.kind));
    const std::string seed = " harness_seed " + std::to_string(choice_.harness_seed);
    report_.notes.push_back(choice_.candidates == 0
                                ? name + seed + " (the workload seed)"
                                : name + seed + " (candidate " +
                                      std::to_string(choice_.candidates) + ") offered_pkts " +
                                      std::to_string(choice_.offered_pkts));
    report_.notes.push_back("trajectory_hash " + hex(reference_->trajectory_hash) + " events " +
                            std::to_string(reference_->events) + " delivered_pkts " +
                            std::to_string(reference_->delivered_pkts));
    std::vector<double> walls;
    std::vector<double> probes;
    std::vector<double> setups;
    for (const Round& r : rounds_) {
      walls.push_back(r.wall);
      probes.push_back(r.probe * 1e3);
      setups.insert(setups.end(), r.setups.begin(), r.setups.end());
    }
    report_.notes.push_back("timed runs " + std::to_string(rounds_.size()) + ": wall_s " +
                            fmt("%.6f", wall_s()) + " at quiet speed; measured min " +
                            fmt("%.6f", minimum(walls)) + " median " +
                            fmt("%.6f", quantile(walls, 0.5)) + " max " +
                            fmt("%.6f", quantile(walls, 1.0)));
    report_.notes.push_back("host probe ms: min " + fmt("%.3f", minimum(probes)) + " median " +
                            fmt("%.3f", quantile(probes, 0.5)) + " max " +
                            fmt("%.3f", quantile(probes, 1.0)) + ", quiet " +
                            fmt("%.3f", kQuietProbeS * 1e3));
    report_.notes.push_back("setup-only calls " + std::to_string(setups.size()) +
                            ": setup_s " + fmt("%.6f", setup_s()) + " at quiet speed; measured " +
                            "median " + fmt("%.6f", quantile(setups, 0.5)) + " min " +
                            fmt("%.6f", minimum(setups)));
  }

 private:
  std::optional<RunOutcome> attempt(const RunRequest& req, int parent, const char* name) {
    ++report_.attempted;
    const ScopedSpan span(log_, name, parent);
    try {
      return run_workload(req);
    } catch (const std::exception& e) {
      ++report_.failed;
      report_.problems.push_back(std::string(name) + " threw: " + e.what());
      return std::nullopt;
    }
  }

  // The call's wall time, or nullopt if it failed.
  std::optional<double> setup_call(int parent) {
    const std::optional<RunOutcome> run = attempt(setup_, parent, "setup");
    if (!run) return std::nullopt;
    if (!setup_hash_) setup_hash_ = run->trajectory_hash;
    if (run->trajectory_hash != *setup_hash_) {
      ++report_.failed;
      report_.problems.push_back("setup-only calls disagree on trajectory_hash");
      return std::nullopt;
    }
    return run->wall_s;
  }

  static double quiet_scale(const Round& r) { return kQuietProbeS / r.probe; }

  TraceLog& log_;
  RunReport& report_;
  CpuRotation& cpus_;
  HostProbe probe_{kProbeTableBytes};
  SeedChoice choice_;
  RunRequest full_;
  RunRequest setup_;
  std::optional<RunOutcome> reference_;
  std::optional<std::uint64_t> setup_hash_;
  std::vector<Round> rounds_;
};

void finish(RunReport& report) {
  report.correct = report.failed == 0 && report.problems.empty() && report.attempted > 0;
}

constexpr ReplayVariant kVariants[] = {ReplayVariant::kPlain, ReplayVariant::kAudited,
                                       ReplayVariant::kTelemetry};

struct ReplayTimes {
  double seconds[3] = {};               // fastest pass per variant, kVariants order
  std::uint64_t allocations[3] = {};    // allocations of one pass per variant
  std::uint64_t mismatches = 0;         // summed over every pass
  int rounds = 0;
};

// Replays `ops` through each variant in turn, round after round, for
// `window_s` (at least kMinReplayRounds rounds): alternating the variants
// on one CPU per round exposes them to the same machine phases.
ReplayTimes replay_port(const PortConfig& port, const std::vector<Op>& ops, double window_s,
                        TraceLog& log, CpuRotation& cpus) {
  ReplayTimes times;
  std::vector<double> passes[3];
  const ScopedSpan span(log, "replays", -1);
  const Clock::time_point start = Clock::now();
  for (; times.rounds < kMaxReplayRounds &&
         (times.rounds < kMinReplayRounds || seconds_since(start) < window_s);
       ++times.rounds) {
    cpus.next();
    for (int v = 0; v < 3; ++v) {
      const std::string name = "replay." + std::string(variant_name(kVariants[v]));
      const ScopedSpan pass_span(log, name, span.id());
      const ReplayPass pass = replay(port, ops, kVariants[v]);
      passes[v].push_back(pass.seconds);
      times.allocations[v] = pass.allocations;
      times.mismatches += pass.mismatches;
    }
  }
  for (int v = 0; v < 3; ++v) {
    times.seconds[v] = minimum(passes[v]);
    const std::string name = "replay." + std::string(variant_name(kVariants[v]));
    log.count(name + ".min_s", times.seconds[v]);
    log.count(name + ".allocs", static_cast<double>(times.allocations[v]));
  }
  log.count("replay.ops", static_cast<double>(ops.size()));
  log.count("replay.mismatches", static_cast<double>(times.mismatches));
  return times;
}

void count_policy_calls(TraceLog& log, const PortCounts& totals) {
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"policy.admit_calls", totals.admit_calls},
      {"policy.admitted", totals.admitted},
      {"policy.aborted", totals.aborted},
      {"policy.enqueues", totals.enqueues},
      {"policy.dequeues", totals.dequeues},
      {"policy.evictions", totals.evictions},
      {"policy.evict_calls", totals.evict_calls},
      {"policy.threshold_reads", totals.threshold_reads},
      {"policy.data_arrivals", totals.data_arrivals},
      {"policy.retx_arrivals", totals.retx_arrivals},
      {"policy.other_calls", totals.other_calls},
  };
  for (const auto& [name, value] : counts) log.count(name, static_cast<double>(value));
}

}  // namespace

RunReport run_untraced(const Options& options, TraceLog& log) {
  RunReport report;
  CpuRotation cpus;
  Sampler sampler(options, log, report, cpus);
  sampler.sample(options.seconds);
  if (sampler.ok()) {
    sampler.add_notes();
    const double wall = sampler.wall_s();
    report.metrics = {
        {"wall_s", wall, "s"},
        {"pkts_per_s", ratio(static_cast<double>(sampler.reference().delivered_pkts), wall),
         "packets/s"},
        {"setup_s", sampler.setup_s(), "s"},
        {"peak_rss_mb", peak_rss_mb() - sampler.probe_mb(), "MB"},
    };
  }
  finish(report);
  return report;
}

RunReport run_traced(const Options& options, TraceLog& log) {
  RunReport report;
  const Clock::time_point start = Clock::now();
  CpuRotation cpus;
  Sampler sampler(options, log, report, cpus);
  // A third of the window measures the untraced baseline; the traced calls
  // and the replays share the rest.
  sampler.sample(options.seconds / 3);
  if (!sampler.ok()) {
    finish(report);
    return report;
  }
  sampler.add_notes();
  const RunOutcome& ref = sampler.reference();
  const PortConfig port = port_config(options.workload);

  // Calls under the recording decorator alternate with untraced calls, each
  // pair on one CPU, so both meet the same machine phases; the tracing
  // overhead is the difference of their fastest calls. Only the last traced
  // call keeps its log, and the metrics below come from it.
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  const int pairs_span = log.begin("traced_pairs");
  const auto traced_pair = [&](Recorder& recorder) {
    cpus.next();
    if (const auto untraced = sampler.run(pairs_span, "untraced")) {
      untraced_walls.push_back(untraced->wall_s);
    }
    std::optional<RunOutcome> traced =
        sampler.run(pairs_span, "traced", recorder.factory(port.scheme));
    if (traced) traced_walls.push_back(traced->wall_s);
    return traced;
  };
  TraceLog discarded(false);
  for (int i = 1; i < kTracedCalls; ++i) {
    Recorder recorder(discarded, -1);
    traced_pair(recorder);
  }
  Recorder recorder(log, pairs_span);
  const std::optional<RunOutcome> traced = traced_pair(recorder);
  log.end(pairs_span);
  if (!traced || report.failed > 0) {
    finish(report);
    return report;
  }

  const int busiest = recorder.busiest_port();
  const std::vector<Op>& ops = recorder.ports().at(static_cast<std::size_t>(busiest))->ops;
  ReplayTimes replays;
  try {
    replays = replay_port(port, ops, options.seconds - seconds_since(start), log, cpus);
  } catch (const std::exception& e) {  // e.g. check::AuditError from the audited replay
    report.problems.push_back(std::string("replay threw: ") + e.what());
    finish(report);
    return report;
  }
  if (replays.mismatches > 0) {
    report.problems.push_back(std::to_string(replays.mismatches) +
                              " replayed decisions differ from the recorded port's");
  }

  const PortCounts totals = recorder.totals();
  const double wall = sampler.wall_s();
  const double setup = sampler.setup_s();
  const double simulate_ns = (wall - setup) * 1e9;
  const auto pkts = static_cast<double>(ref.delivered_pkts);
  const auto events = static_cast<double>(ref.events);
  const auto qdisc_ops = static_cast<double>(totals.admit_calls + totals.dequeues);
  const auto n = static_cast<double>(ops.size());
  const double plain_ns = replays.seconds[0] * 1e9 / n;
  const double check_ns = (replays.seconds[1] - replays.seconds[0]) * 1e9 / n;
  const double telemetry_ns = (replays.seconds[2] - replays.seconds[0]) * 1e9 / n;
  const double check_allocs = static_cast<double>(replays.allocations[1]) -
                              static_cast<double>(replays.allocations[0]);
  const double attributed_ns = setup * 1e9 + (plain_ns + check_ns + telemetry_ns) * qdisc_ops;

  double retx_share = ratio(totals.retx_arrivals, totals.data_arrivals);
  double timeouts = -1.0;  // not observable from outside a dynamic run
  if (ref.senders) {
    retx_share = ratio(ref.senders->retransmissions, ref.senders->data_packets);
    timeouts = static_cast<double>(ref.senders->timeouts);
  }

  report.metrics = {
      {"sim.events", events, "count"},
      {"sim.events_per_pkt", ratio(events, pkts), "events/pkt"},
      {"sim.ns_per_event", ratio(simulate_ns, events), "ns"},
      {"net.qdisc_ops", qdisc_ops, "count"},
      {"net.enqueues_per_pkt", ratio(static_cast<double>(ref.telemetry.enqueues), pkts),
       "enqueues/pkt"},
      {"net.qdisc_ns_per_op", plain_ns, "ns"},
      {"net.qdisc_share", ratio(plain_ns * qdisc_ops, simulate_ns), "ratio"},
      {"core.admits", static_cast<double>(totals.admit_calls), "count"},
      {"core.admit_share", ratio(totals.admitted, totals.admit_calls), "ratio"},
      {"core.exchange_share", ratio(ref.telemetry.threshold_exchanges, totals.admit_calls),
       "ratio"},
      {"check.ns_per_op", check_ns, "ns"},
      {"check.allocs_per_op", ratio(check_allocs, n), "allocs/op"},
      {"check.share", ratio(check_ns * qdisc_ops, simulate_ns), "ratio"},
      {"telemetry.events", static_cast<double>(telemetry_events(ref.telemetry)), "count"},
      {"telemetry.ns_per_op", telemetry_ns, "ns"},
      {"telemetry.share", ratio(telemetry_ns * qdisc_ops, simulate_ns), "ratio"},
      {"transport.retx_share", retx_share, "ratio"},
      {"transport.timeouts", timeouts, "count"},
      {"alloc.per_pkt", ratio(static_cast<double>(traced->allocations), pkts), "allocs/pkt"},
      {"unattributed.share", 1.0 - ratio(attributed_ns, wall * 1e9), "ratio"},
      {"trace.overhead_s", minimum(traced_walls) - minimum(untraced_walls), "s"},
  };

  report.notes.push_back("traced calls " + std::to_string(traced_walls.size()) + ": wall_s min " +
                         fmt("%.6f", minimum(traced_walls)) + " against " +
                         fmt("%.6f", minimum(untraced_walls)) +
                         " untraced, same trajectory_hash; replayed port " +
                         std::to_string(busiest) + " of " +
                         std::to_string(recorder.ports().size()) + ": " +
                         std::to_string(ops.size()) + " ops x " +
                         std::to_string(replays.rounds) + " rounds");
  log.count("ports", static_cast<double>(recorder.ports().size()));
  log.count("replay.port", busiest);
  log.count("traced.allocations", static_cast<double>(traced->allocations));
  log.count("traced.wall_s", minimum(traced_walls));
  log.count("paired_untraced.wall_s", minimum(untraced_walls));
  log.count("untraced.wall_s", wall);
  log.count("untraced.setup_s", setup);
  count_policy_calls(log, totals);
  finish(report);
  return report;
}

}  // namespace perfbench
