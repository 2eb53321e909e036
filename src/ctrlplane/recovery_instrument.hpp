// Recovery metrics for control-plane degradation (DESIGN.md §14).
//
// RecoveryInstrument subscribes to a telemetry::Hub and watches one
// observation point (the port hosting a ControlPlanePolicy): failover and
// restore events bracket "degraded windows" (DT enforcement instead of
// DynaQ), enqueue events accumulate delivered bytes inside and outside
// those windows, and the restore event's payload carries the shim's
// measured recovery time. finalize() turns the stream into the two
// paper-facing robustness metrics:
//
//   * throughput retention — bytes/µs enqueued while degraded, relative to
//     bytes/µs enqueued while healthy (1.0 when the run never failed over);
//   * recovery time — the worst time-to-steady-state across restore events,
//     measured from the controller coming back to DynaQ enforcement
//     resuming (bounded by the watchdog probe period + re-sync commit).
//
// The instrument needs nothing beyond the event stream — no simulator or
// policy access.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "telemetry/events.hpp"

namespace dynaq::telemetry {
class Hub;
}

namespace dynaq::ctrlplane {

class RecoveryInstrument {
 public:
  // Subscribes to `hub`, filtering to events at observation point
  // `tel_port`. The instrument must outlive the hub's event stream and
  // cannot move afterwards (the subscription captures `this`).
  RecoveryInstrument(telemetry::Hub& hub, int tel_port);

  RecoveryInstrument(const RecoveryInstrument&) = delete;
  RecoveryInstrument& operator=(const RecoveryInstrument&) = delete;

  struct Metrics {
    double degraded_us = 0.0;          // total time spent failed over
    double recovery_us = 0.0;          // worst restore's recovery time
    double throughput_retention = 1.0;  // degraded rate / healthy rate
  };

  // Derives the metrics for a run of `run_duration`; a window still open at
  // the end of the run is closed at `run_duration`.
  Metrics finalize(Time run_duration) const;

 private:
  void on_event(const telemetry::Event& e);

  std::int16_t port_;
  std::int64_t total_bytes_ = 0;
  std::int64_t degraded_bytes_ = 0;
  double degraded_us_ = 0.0;
  double max_recovery_us_ = 0.0;
  bool window_open_ = false;
  Time window_start_ = 0;
};

}  // namespace dynaq::ctrlplane
