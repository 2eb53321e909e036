#include "check/trajectory_hash.hpp"

namespace dynaq::check {

TrajectoryHash& TrajectoryHash::fold(const AuditLedger& ledger) {
  fold(ledger.enqueued_packets).fold(ledger.dequeued_packets);
  fold(static_cast<std::uint64_t>(ledger.enqueued_bytes));
  fold(static_cast<std::uint64_t>(ledger.dequeued_bytes));
  fold(ledger.admits_allowed).fold(ledger.admits_rejected).fold(ledger.aborts);
  return *this;
}

}  // namespace dynaq::check
