// The traced run's recording decorator. RecordingPolicy sits between the
// harness's audit wrapper and the scheme's policy on every switch port
// (installed through SchemeSpec::custom_policy_sim, so the audit stays
// outermost and its ledger still folds into trajectory_hash). It forwards
// every BufferPolicy virtual unchanged, counts the calls, and logs the
// port's operation stream — enqueue attempts with their outcome, and
// dequeues — for the replays in replay.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheme.hpp"
#include "net/buffer_policy.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t {
  kAdmitted,  // enqueue attempt that entered the buffer
  kRejected,  // enqueue attempt the policy refused
  kAborted,   // enqueue attempt the policy admitted but the port bound refused
  kDequeue,   // scheduler dequeue (evictions are replayed inside their enqueue)
};

// One operation at one port: 12 bytes, so a whole run's log stays small.
struct Op {
  std::uint32_t flow = 0;
  std::int32_t size = 0;
  std::uint16_t flags = 0;
  std::uint8_t queue = 0;  // service queue the qdisc resolved
  OpKind kind = OpKind::kAdmitted;
};

struct PortCounts {
  std::uint64_t admit_calls = 0;
  std::uint64_t admitted = 0;  // admit() returned true
  std::uint64_t aborted = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;  // scheduler dequeues
  std::uint64_t evictions = 0;
  std::uint64_t evict_calls = 0;
  std::uint64_t threshold_reads = 0;  // thresholds() calls (the audit's snapshots)
  std::uint64_t data_arrivals = 0;    // admit calls for data (non-ACK) packets
  std::uint64_t retx_arrivals = 0;    // ... of which retransmissions
  std::uint64_t other_calls = 0;      // attach, resize, weights, introspection
};

struct PortLog {
  PortCounts counts;
  std::vector<Op> ops;
  int span = -1;  // the decorator's lifetime span in the TraceLog
};

// Owns the per-port logs of one traced run. Ports are numbered in the
// order the topology builds their qdiscs.
class Recorder {
 public:
  Recorder(TraceLog& log, int parent_span) : log_(log), parent_span_(parent_span) {}

  // A policy factory for RunRequest::policy_factory: each call wraps a
  // fresh policy of `scheme` (which must not itself carry a custom policy)
  // in a RecordingPolicy logging to a new port. The Recorder must outlive
  // every policy the factory makes.
  PolicyFactory factory(const dynaq::core::SchemeSpec& scheme);

  const std::vector<std::unique_ptr<PortLog>>& ports() const { return ports_; }
  PortCounts totals() const;
  // Index of the port with the most logged operations (-1 if none).
  int busiest_port() const;

 private:
  TraceLog& log_;
  int parent_span_;
  std::vector<std::unique_ptr<PortLog>> ports_;
};

}  // namespace perfbench
