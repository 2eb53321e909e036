// Trajectory-fingerprint oracle (DESIGN.md §10).
//
// A run of this simulator is a pure function of its seed; TrajectoryHash
// turns that claim into one comparable number. It folds, with FNV-1a 64
// (sim/fingerprint.hpp):
//
//   * the event-engine pop stream — the (when, seq) pair of every popped
//     event, accumulated inside sim::Simulator when
//     enable_trajectory_fingerprint() is on;
//   * the telemetry event bus — every Event emitted through a
//     telemetry::Hub constructed with HubConfig::fingerprint, which catches
//     packet-level decisions (drop victims, exchange partners, flows) even
//     when event timing coincides;
//   * the packet-conservation ledgers — check::AuditedBufferPolicy's
//     per-port enqueue/dequeue byte and packet accounting.
//
// Two runs with the same seed must produce equal values for any sweep
// worker count; different seeds must diverge. The harness surfaces the
// digest in every experiment result, the sweep JSON carries it per job
// (schema_version 4), and ci.sh diffs it across seed-repeat, --jobs 1 vs 4
// and seed-change runs.
#pragma once

#include <cstdint>
#include <string>

#include "check/invariant_auditor.hpp"
#include "sim/fingerprint.hpp"
#include "sim/simulator.hpp"
#include "telemetry/hub.hpp"

namespace dynaq::check {

class TrajectoryHash {
 public:
  TrajectoryHash& fold(std::uint64_t x) {
    h_ = sim::fnv1a_u64(h_, x);
    return *this;
  }

  // Engine half: the pop-stream digest plus the pop count (so an empty
  // fingerprint is distinguishable from a run that never enabled one).
  TrajectoryHash& fold(const sim::Simulator& sim) {
    return fold(sim.trajectory_fingerprint()).fold(sim.events_processed());
  }

  // Bus half: the hub's event fingerprint in emission order.
  TrajectoryHash& fold(const telemetry::Hub& hub) {
    return fold(hub.trajectory_fingerprint());
  }

  // Conservation half: one audited port's monotonic packet/byte ledger.
  TrajectoryHash& fold(const AuditLedger& ledger);

  std::uint64_t value() const { return h_; }
  std::string hex() const { return sim::fingerprint_hex(h_); }

 private:
  std::uint64_t h_ = sim::kFnv1aOffset;
};

}  // namespace dynaq::check
