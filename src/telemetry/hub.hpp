// The per-simulator telemetry hub (DESIGN.md §8): one Hub instance is
// created next to each sim::Simulator (no globals, per CLAUDE.md) and every
// instrumented component — switch qdiscs, host NIC queues, fault-injection
// wrappers, ports — attaches to it by name.
//
// Overhead model: components hold a `Hub*` that is null until attached, so
// an un-instrumented simulation pays one pointer test per potential
// emission site; attached-but-disabled pays one extra bool load
// (enabled()). bench/micro_telemetry asserts both stay under a per-op
// budget. Emission itself is counter increments plus the subscriber fan-out;
// the hub stores no events.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/summary.hpp"

namespace dynaq::telemetry {

// One occupancy/threshold observation of every service queue at a port —
// the unit of the Fig. 1/4 time series.
struct QueueSample {
  Time when = 0;
  std::vector<std::int64_t> queue_bytes;  // occupancy per service queue
  std::vector<std::int64_t> thresholds;   // drop threshold per queue (if any)
};

// Bounded occupancy time series with the paper's "skip then keep K
// sequential samples" cadence.
class QueueSeries {
 public:
  explicit QueueSeries(std::size_t capacity = 0, std::size_t skip = 0)
      : capacity_(capacity), skip_(skip) {}

  void record(Time when, std::vector<std::int64_t> queue_bytes,
              std::vector<std::int64_t> thresholds = {}) {
    if (seen_++ < skip_) return;
    if (samples_.size() >= capacity_) return;
    samples_.push_back(QueueSample{when, std::move(queue_bytes), std::move(thresholds)});
  }

  bool active() const { return samples_.size() < capacity_; }
  bool full() const { return samples_.size() >= capacity_; }
  const std::vector<QueueSample>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  std::size_t skip_;
  std::size_t seen_ = 0;
  std::vector<QueueSample> samples_;
};

struct HubConfig {
  bool enabled = true;
  // Fold every emitted event into an FNV-1a trajectory fingerprint
  // (DESIGN.md §10): one guarded branch inside emit(), allocation-free.
  // check::TrajectoryHash combines this with the engine's pop-stream digest
  // and the audit ledgers into the per-run oracle hash.
  bool fingerprint = false;
};

class Hub {
 public:
  explicit Hub(sim::Simulator& sim, HubConfig config = {});

  sim::Simulator& simulator() { return sim_; }
  bool enabled() const { return enabled_; }

  // Event-bus half of the trajectory fingerprint (HubConfig::fingerprint):
  // the FNV-1a digest of every event emitted so far, in emission order.
  std::uint64_t trajectory_fingerprint() const { return fingerprint_; }

  // ---- observation points -------------------------------------------------
  // Registers an observation point; idempotent per name (the same name maps
  // to the same id), so several components may share one point.
  int register_port(const std::string& name);
  const std::string& port_name(int id) const { return port_names_.at(static_cast<std::size_t>(id)); }

  // ---- typed event bus ----------------------------------------------------
  // Emitters must gate on enabled() themselves (that is the whole fast
  // path); emit() stamps the simulation time, bumps the aggregate counters
  // and fans out to subscribers, the only readers of single events.
  void emit(Event e);
  void subscribe(std::function<void(const Event&)> fn) { subscribers_.push_back(std::move(fn)); }

  // ---- wire taps (packet tracing) -----------------------------------------
  void add_wire_listener(std::function<void(const WireRecord&)> fn) {
    wire_listeners_.push_back(std::move(fn));
  }
  bool wants_wire() const { return enabled_ && !wire_listeners_.empty(); }
  void emit_wire(WireRecord w);

  // ---- per-queue queueing delay -------------------------------------------
  // Recorded by qdiscs at dequeue (sojourn time, picoseconds). Histograms
  // are allocated on the first record per queue index; indices from 64 up
  // are not recorded.
  void record_queue_delay(int queue, Time delay);
  // Highest queue index recorded so far + 1 (0 when none).
  std::size_t num_delay_queues() const { return delay_hist_.size(); }
  const LogHistogram& queue_delay_histogram(int queue) const {
    return delay_hist_.at(static_cast<std::size_t>(queue));
  }

  // ---- occupancy time series ----------------------------------------------
  void enable_queue_sampling(std::size_t capacity, std::size_t skip = 0) {
    series_ = QueueSeries(capacity, skip);
  }
  bool sampling_active() const { return enabled_ && series_.active(); }
  void sample(Time when, std::span<const std::int64_t> occupancy,
              std::vector<std::int64_t> thresholds);
  const std::vector<QueueSample>& queue_samples() const { return series_.samples(); }

  // ---- export -------------------------------------------------------------
  TelemetrySummary summary() const;

 private:
  sim::Simulator& sim_;
  bool enabled_;
  bool fingerprint_events_;
  std::uint64_t fingerprint_;
  std::vector<std::string> port_names_;             // by id, in registration order
  std::map<std::string, int, std::less<>> port_ids_;  // name -> id, for register_port

  std::vector<std::function<void(const Event&)>> subscribers_;
  std::vector<std::function<void(const WireRecord&)>> wire_listeners_;

  // Aggregate counters: the run's one count of each event kind.
  std::array<std::uint64_t, kNumDropReasons> drops_by_reason_{};
  std::uint64_t enqueues_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t threshold_exchanges_ = 0;
  std::int64_t exchanged_bytes_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t scenario_actions_ = 0;
  std::uint64_t control_updates_ = 0;
  std::uint64_t control_updates_lost_ = 0;
  std::uint64_t control_failovers_ = 0;
  std::uint64_t control_restores_ = 0;

  std::vector<LogHistogram> delay_hist_;  // indexed by service queue
  QueueSeries series_;
};

}  // namespace dynaq::telemetry
