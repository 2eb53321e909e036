#include "ctrlplane/recovery_instrument.hpp"

#include <algorithm>

#include "telemetry/hub.hpp"

namespace dynaq::ctrlplane {

RecoveryInstrument::RecoveryInstrument(telemetry::Hub& hub, int tel_port)
    : port_(static_cast<std::int16_t>(tel_port)) {
  hub.subscribe([this](const telemetry::Event& e) { on_event(e); });
}

void RecoveryInstrument::on_event(const telemetry::Event& e) {
  if (e.port != port_) return;
  switch (e.kind) {
    case telemetry::EventKind::kEnqueue:
      total_bytes_ += e.bytes;
      if (window_open_) degraded_bytes_ += e.bytes;
      break;
    case telemetry::EventKind::kControlFailover:
      if (!window_open_) {
        window_open_ = true;
        window_start_ = e.when;
      }
      break;
    case telemetry::EventKind::kControlRestore:
      if (window_open_) {
        degraded_us_ += to_microseconds(e.when - window_start_);
        window_open_ = false;
      }
      // The shim stamps its measured recovery time (µs) into the payload.
      max_recovery_us_ = std::max(max_recovery_us_, static_cast<double>(e.bytes));
      break;
    default:
      break;
  }
}

RecoveryInstrument::Metrics RecoveryInstrument::finalize(Time run_duration) const {
  Metrics m;
  double degraded_us = degraded_us_;
  if (window_open_ && run_duration > window_start_) {
    degraded_us += to_microseconds(run_duration - window_start_);
  }
  m.degraded_us = degraded_us;
  m.recovery_us = max_recovery_us_;
  const double total_us = to_microseconds(run_duration);
  const double healthy_us = total_us - degraded_us;
  if (degraded_us <= 0.0 || healthy_us <= 0.0) return m;  // retention stays 1.0
  const double healthy_rate =
      static_cast<double>(total_bytes_ - degraded_bytes_) / healthy_us;
  const double degraded_rate = static_cast<double>(degraded_bytes_) / degraded_us;
  if (healthy_rate > 0.0) m.throughput_retention = degraded_rate / healthy_rate;
  return m;
}

}  // namespace dynaq::ctrlplane
