// Discrete-event simulator.
//
// A single-threaded event loop with an integer picosecond clock. All model
// components hold a reference to the Simulator that owns their timeline;
// there is no global simulator instance, so tests can run many independent
// simulations in one process.
//
// Scheduling is allocation-free on the hot path (DESIGN.md §9): callables
// are built in place in the Simulator's event arena (EventPool slots with
// inline storage — no std::function, no per-event heap allocation; a
// capture too big for a slot does not compile) and the pending-event set
// is a calendar queue whose staged front and memory stay proportional to
// the live events, with O(1) cancellation. Determinism contract: events
// at the same timestamp fire in the order they were scheduled.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/fingerprint.hpp"
#include "sim/time.hpp"

namespace dynaq::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulation time. Monotonically non-decreasing.
  Time now() const { return now_; }

  // Schedules `action` (a callable that fits an event slot's inline
  // buffer) at absolute time `when`. Scheduling in the past is a
  // programming error and throws. The returned id stays valid until the
  // event fires or is cancelled.
  template <InlineCallable F>
  EventId schedule_at(Time when, F&& action) {
    if (when < now_) throw std::logic_error("Simulator: scheduling into the past");
    return events_.push(when, std::forward<F>(action));
  }

  // Schedules `action` `delay` after the current time.
  template <InlineCallable F>
  EventId schedule_in(Time delay, F&& action) {
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  // Cancels a pending event in O(1): the callable is destroyed now and
  // will not fire. Returns false when `id` is no longer pending (already
  // fired, already cancelled, or currently executing).
  bool cancel(EventId id) { return events_.cancel(id); }

  // Runs until the pending-event set is empty or stop() is called.
  void run() {
    running_ = true;
    while (running_ && !events_.empty()) step();
    running_ = false;
  }

  // Runs every event at or before `deadline`, then leaves the clock at the
  // deadline; the next run picks up from there. stop() ends the loop early
  // and leaves the clock at the stopping event.
  void run_until(Time deadline) {
    running_ = true;
    while (running_ && !events_.empty() && events_.next_time() <= deadline) step();
    if (running_ && now_ < deadline) now_ = deadline;
    running_ = false;
  }

  // Stops the run loop after the current event returns.
  void stop() { running_ = false; }

  std::uint64_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return events_.size(); }
  std::uint64_t events_cancelled() const { return events_.cancelled(); }

  // Trajectory fingerprint (DESIGN.md §10): when enabled, every popped
  // event folds (when, seq) into an FNV-1a digest — one guarded branch per
  // pop, off by default so the event-engine perf budgets are unaffected.
  // Observation only: enabling it never perturbs the simulation.
  void enable_trajectory_fingerprint() { fingerprint_pops_ = true; }
  std::uint64_t trajectory_fingerprint() const { return pop_fingerprint_; }

 private:
  void step() {
    FiredEvent event = events_.pop(now_);
    ++processed_;
    if (fingerprint_pops_) {
      pop_fingerprint_ =
          fnv1a_u64(fnv1a_u64(pop_fingerprint_, static_cast<std::uint64_t>(now_)), event.seq());
    }
    event();
  }

  EventQueue events_;
  Time now_ = 0;
  bool running_ = false;
  bool fingerprint_pops_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t pop_fingerprint_ = kFnv1aOffset;
};

}  // namespace dynaq::sim
