// Typed switch-level events carried by the telemetry bus (DESIGN.md §8).
//
// Events are small PODs: emitters fill one on the stack and hand it to
// telemetry::Hub::emit(), which stamps the simulation time, updates the
// monotonic counters and fans out to subscribers. Nothing here depends on
// net/ — the WireRecord mirrors the packet fields the tracer needs so the
// subsystem stays at the bottom of the dependency stack (only sim/ below
// it).
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace dynaq::telemetry {

// Why a packet was refused or removed. The first three come from the DynaQ
// admission path (Algorithm 1's drop points), kPortFull from the physical
// port-buffer bound, kNicFull from host NIC tail-drop queues, and kInjected
// from the fault-injection queues (net/fault_injection.hpp).
enum class DropReason : std::uint8_t {
  kThreshold = 0,          // q_p + size > T_p and no exchange possible (PQL/DT: quota)
  kVictimUnsatisfied = 1,  // victim active and T_v - size < S_v (Alg. 1 line 3)
  kVictimTooSmall = 2,     // victim threshold smaller than the packet (T_v < size)
  kPortFull = 3,           // policy admitted, physical bound rejected
  kNicFull = 4,            // host NIC tail-drop queue overflow
  kInjected = 5,           // fault-injection loss queue
};
inline constexpr std::size_t kNumDropReasons = 6;

constexpr std::string_view drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kThreshold: return "threshold";
    case DropReason::kVictimUnsatisfied: return "victim_unsatisfied";
    case DropReason::kVictimTooSmall: return "victim_too_small";
    case DropReason::kPortFull: return "port_full";
    case DropReason::kNicFull: return "nic_full";
    case DropReason::kInjected: return "injected";
  }
  return "unknown";
}

enum class EventKind : std::uint8_t {
  kEnqueue = 0,
  kDrop = 1,
  kEvict = 2,              // buffered packet displaced to admit an arrival
  kThresholdExchange = 3,  // DynaQ moved `bytes` of threshold victim -> requester
  kEcnMark = 4,
  kScenarioAction = 5,     // scenario::ScenarioDirector applied a timeline action
  // Control-plane shim events (dynaq::ctrlplane, DESIGN.md §14). `bytes`
  // carries a microsecond latency payload where noted so the recovery
  // instrument never needs simulator access beyond the event stream.
  kControlUpdate = 6,      // threshold update committed at the data plane
  kControlUpdateLost = 7,  // update dropped by the control channel
  kControlFailover = 8,    // watchdog engaged DT failover (bytes: staleness µs)
  kControlRestore = 9,     // DynaQ restored after re-sync (bytes: recovery µs)
};

struct Event {
  Time when = 0;  // stamped by Hub::emit()
  EventKind kind = EventKind::kEnqueue;
  DropReason reason = DropReason::kThreshold;  // meaningful for kDrop only
  std::int16_t port = -1;         // Hub port id (register_port)
  std::int16_t queue = -1;        // service queue; the requester for exchanges
  std::int16_t other_queue = -1;  // exchange victim / evicted packet's queue
  std::int32_t bytes = 0;         // packet size, or exchanged threshold bytes
  std::uint32_t flow = 0;
};

// One wire observation (serialization start or delivery) for packet
// tracing; a flat copy of the packet fields net::PacketTracer records.
struct WireRecord {
  Time when = 0;  // stamped by Hub::emit_wire()
  std::int16_t port = -1;
  bool transmit = false;  // true: serialization started; false: delivered
  bool is_ack = false;
  bool retx = false;
  bool ce = false;
  std::uint8_t queue = 0;
  std::int32_t size = 0;
  std::uint32_t flow = 0;
  std::uint64_t seq = 0;
};

}  // namespace dynaq::telemetry
