// Contract tests for the calendar-queue event engine (DESIGN.md §9):
// strict (when, seq) pop order across rebuilds and window jumps, O(1)
// cancellation semantics, inline callable storage (an oversized capture
// does not compile), the staged front and memory bounds on a skewed
// population, and a differential fuzz against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dynaq {
namespace {

// ------------------------------------------------------------- EventFn --

// A capture too big for a slot's inline buffer is rejected where it is
// scheduled: there is no heap fallback to absorb it.
template <typename F>
concept Schedulable = requires(sim::Simulator& sim, F f) {
  sim.schedule_in(Time{1}, std::move(f));
};

constexpr auto kOversized = [big = std::array<std::uint64_t, 32>{}] { return big[0]; };
static_assert(sizeof(kOversized) == 256 && sizeof(kOversized) > sim::kEventInlineBytes);
static_assert(!Schedulable<decltype(kOversized)>);
constexpr auto kFits = [word = std::uint64_t{0}] { return word; };
static_assert(Schedulable<decltype(kFits)>);

TEST(EventFn, SmallCallableStaysInline) {
  int hits = 0;
  sim::EventFn fn;
  fn.emplace([&hits] { ++hits; });
  ASSERT_TRUE(bool(fn));
  fn.consume();
  EXPECT_FALSE(bool(fn));
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, DestroysCapturesExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (dtors != nullptr) ++*dtors;
    }
  };
  int dtors = 0;
  {
    sim::EventFn fn;
    fn.emplace([p = Probe(&dtors)] { (void)p; });
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1) << "an unfired callable dies with its slot";
  sim::EventFn fn;
  fn.emplace([p = Probe(&dtors)] { (void)p; });
  fn.consume();
  EXPECT_EQ(dtors, 2) << "consume() runs and destroys the callable";
  fn.reset();
  EXPECT_EQ(dtors, 2);
}

// ---------------------------------------------------- ordering contract --

// Pops every remaining event and returns the observed (when, tag) pairs.
std::vector<std::pair<Time, int>> drain(sim::EventQueue& q, std::vector<int>& fired) {
  std::vector<std::pair<Time, int>> order;
  Time now = 0;
  while (!q.empty()) {
    fired.clear();
    auto ev = q.pop(now);
    ev();
    order.emplace_back(now, fired.empty() ? -1 : fired.front());
  }
  return order;
}

TEST(EventQueue, SameTimestampFifoSurvivesRebuild) {
  sim::EventQueue q;
  std::vector<int> fired;
  const Time when = microseconds(std::int64_t{5});
  // Push enough to force several capacity rebuilds (size > 2 * buckets),
  // all at one timestamp plus padding around it.
  const int kTies = 500;
  for (int i = 0; i < kTies; ++i) {
    q.push(when, [i, &fired] { fired.push_back(i); });
    q.push(when + microseconds(std::int64_t{1}) * (i + 1),
           [&fired] { fired.push_back(-2); });
  }
  Time now = 0;
  for (int i = 0; i < kTies; ++i) {
    fired.clear();
    auto ev = q.pop(now);
    ev();
    ASSERT_EQ(now, when);
    ASSERT_EQ(fired, std::vector<int>{i}) << "tie " << i << " popped out of order";
  }
}

TEST(EventQueue, WideTimeRangeStaysSorted) {
  // Spread events across 12 orders of magnitude so they traverse the
  // staged front, the ring, and the overflow region (window jumps).
  sim::EventQueue q;
  std::mt19937_64 rng(7);
  std::vector<Time> times;
  for (int i = 0; i < 2000; ++i) {
    const int mag = static_cast<int>(rng() % 12);
    Time t = 1;
    for (int m = 0; m < mag; ++m) t *= 10;
    times.push_back(static_cast<Time>(rng() % static_cast<std::uint64_t>(t)) + 1);
  }
  std::vector<int> fired;
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push(times[i], [i, &fired] { fired.push_back(static_cast<int>(i)); });
  }
  auto order = drain(q, fired);
  ASSERT_EQ(order.size(), times.size());
  std::vector<Time> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i].first, sorted[i]) << "pop " << i << " out of time order";
  }
}

// --------------------------------------------------------------- bounds --

// One hop chain of the leaf-spine-shaped population (bench/micro_simulator's
// skewed workload): each fire schedules a delivery one link delay ahead and
// the chain's next fire one serialization later.
struct HopChain {
  sim::EventQueue* q;
  const Time* now;
  long* remaining;
  void operator()() const {
    q->push(*now + microseconds(10.65), [] {});
    if (--*remaining > 0) q->push(*now + microseconds(1.23), *this);
  }
};

// A ticker or periodic timer: re-arms itself `period` after each fire.
struct Rearm {
  sim::EventQueue* q;
  const Time* now;
  Time period;
  void operator()() const { q->push(*now + period, *this); }
};

// 200 hop chains against 300 timers spread over 50 ms: a dense near-term
// head and a far tail. A width fitted to the whole span staged nearly
// every near-term event in one sorted front (1,945 entries here) and left
// each grown front's buffer in the ring (19 entries reserved per peak live
// one by the end). With the bounds this run stages at most ~220 entries
// and reserves ~8x the peak live count.
TEST(EventQueue, SkewedPopulationKeepsFrontAndMemoryBounded) {
  sim::EventQueue q;
  Time now = 0;
  long remaining = 1'000'000;
  sim::Rng rng(1);
  for (int t = 0; t < 300; ++t) {
    q.push(rng.uniform_int(0, milliseconds(std::int64_t{50})), [] {});
  }
  const Time period = microseconds(1.23);
  for (int c = 0; c < 200; ++c) q.push(period * c / 200, HopChain{&q, &now, &remaining});

  std::size_t peak_live = 0;
  std::size_t max_staged = 0;
  std::size_t max_reserved = 0;
  for (long pops = 0; !q.empty(); ++pops) {
    peak_live = std::max(peak_live, q.size());
    q.pop(now)();
    if (pops % 16 == 0) {  // footprint() walks every bucket
      const sim::EventQueue::Footprint f = q.footprint();
      max_staged = std::max(max_staged, f.staged);
      max_reserved = std::max(max_reserved, f.reserved);
    }
  }
  // The refit runs at most once per live-count pops, so the front may pass
  // kFrontBound by what lands in it before that many pops have gone by.
  EXPECT_LE(max_staged, sim::EventQueue::kFrontBound + sim::EventQueue::kFrontBound / 4);
  EXPECT_LE(max_reserved, 12 * peak_live) << "peak live " << peak_live;
  EXPECT_GT(peak_live, 2000u) << "the population should outgrow the first rebuilds";
}

// A width fitted while the queue was sparse goes stale when its head gets
// denser without the live count growing: 400 tickers re-arming 1 ns
// ahead all land in one staged bucket of the 3 ms width fitted to events
// 1 ms apart, and no growth rebuild comes (500 live, 64 buckets). The
// fat-front refit re-buckets them once live-count pops have passed.
TEST(EventQueue, DenserHeadRefitsTheWidth) {
  sim::EventQueue q;
  Time now = 0;
  for (int i = 1; i <= 130; ++i) q.push(milliseconds(std::int64_t{1}) * i, [] {});
  for (int i = 0; i < 30; ++i) q.pop(now)();
  for (int t = 0; t < 400; ++t) q.push(now + t, Rearm{&q, &now, nanoseconds(1)});
  ASSERT_EQ(q.size(), 500u);
  std::size_t settled_max = 0;
  for (int pops = 0; pops < 20'000; ++pops) {
    q.pop(now)();
    if (pops >= 1'000) settled_max = std::max(settled_max, q.footprint().staged);
  }
  EXPECT_LE(settled_max, sim::EventQueue::kFrontBound);
}

// A steady population whose staged bucket stays wide: 130 timers 10 us
// apart re-arming every 1.3 ms (so the fitted width is 30 us) and 4
// tickers re-arming every 10 ns, which append to the staged front
// thousands of times per bucket. Swapping the staged bucket with the front
// parked one grown front buffer in the ring per staging, so the reserved
// entries grew with run length at a constant live count (19,160 after
// 100 k pops, 70,256 after 400 k; now 2,336 and 2,432).
TEST(EventQueue, ReservedEntriesDoNotGrowWithRunLength) {
  sim::EventQueue q;
  Time now = 0;
  for (int i = 1; i <= 130; ++i) {
    q.push(microseconds(std::int64_t{10}) * i, Rearm{&q, &now, microseconds(std::int64_t{1300})});
  }
  for (int t = 0; t < 4; ++t) q.push(nanoseconds(10) + t, Rearm{&q, &now, nanoseconds(10)});
  std::size_t early = 0;
  for (int pops = 1; pops <= 400'000; ++pops) {
    q.pop(now)();
    if (pops == 100'000) early = q.footprint().reserved;
  }
  // Four times the run, against first-touch bucket reserves still coming in.
  EXPECT_LT(q.footprint().reserved, 2 * early) << "after " << to_microseconds(now) << " us";
}

// ------------------------------------------------ staged-front inserts --

// A queue whose events record their push index when they fire. The
// (when, seq) contract makes the expected pop order the push list stably
// sorted by time.
struct TaggedQueue {
  sim::EventQueue q;
  std::vector<Time> pushed;  // when, by push index
  std::vector<int> fired;    // push indices, in pop order
  Time now = 0;

  void push(Time when) {
    const int tag = static_cast<int>(pushed.size());
    q.push(when, [tag, this] { fired.push_back(tag); });
    pushed.push_back(when);
  }
  void pop() { q.pop(now)(); }
  std::vector<int> fifo_order() const {
    std::vector<int> tags(pushed.size());
    std::iota(tags.begin(), tags.end(), 0);
    std::stable_sort(tags.begin(), tags.end(),
                     [this](int a, int b) { return pushed[a] < pushed[b]; });
    return tags;
  }
};

// 40 events 20 ns apart plus two more at 120 ns: one bucket of the default
// 1 us width, which next_time() stages whole.
void stage_forty(TaggedQueue& t) {
  for (int k = 1; k <= 40; ++k) t.push(nanoseconds(20) * k);
  t.push(nanoseconds(120));
  t.push(nanoseconds(120));
  ASSERT_EQ(t.q.next_time(), nanoseconds(20));
  ASSERT_EQ(t.q.footprint().staged, 42u) << "the test needs one staged bucket";
}

// With popped slots below the head, a push nearer the head than the tail
// slides the earlier staged entries down one instead of shifting the later
// ones up. The staged run must stay in (when, seq) order: a push that ties
// the head's timestamp lands after every earlier-scheduled tie, whichever
// side moves.
TEST(EventQueue, HeadSidePushesSlideIntoThePoppedPrefix) {
  TaggedQueue t;
  stage_forty(t);
  for (int i = 0; i < 4; ++i) t.pop();  // 20-80 ns; the head is now 100 ns
  t.push(nanoseconds(90));   // in front of the head
  t.push(nanoseconds(120));  // ties the three staged 120 ns entries
  t.push(nanoseconds(110));
  t.push(nanoseconds(100));  // ties the head itself
  t.pop();
  t.push(nanoseconds(120));  // a fifth 120 ns tie, after a pop
  t.push(nanoseconds(780));  // ties an entry next to the tail: shifts up
  t.push(nanoseconds(800));  // ties the last entry: appends
  EXPECT_EQ(t.q.footprint().staged, 44u);
  while (!t.q.empty()) t.pop();
  EXPECT_EQ(t.fired, t.fifo_order());
}

// Right after staging nothing has been popped, so there is no slot below
// the head to slide into: a head-side push shifts the later entries up.
TEST(EventQueue, HeadSidePushBeforeAnyPopShiftsUp) {
  TaggedQueue t;
  stage_forty(t);
  t.push(nanoseconds(10));  // in front of everything
  t.push(nanoseconds(20));  // ties the head
  t.push(nanoseconds(50));
  t.push(nanoseconds(120));
  EXPECT_EQ(t.q.next_time(), nanoseconds(10));
  while (!t.q.empty()) t.pop();
  EXPECT_EQ(t.fired, t.fifo_order());
}

// --------------------------------------------------------- cancellation --

TEST(EventQueue, CancelPendingEventNeverFires) {
  sim::EventQueue q;
  bool fired = false;
  const sim::EventId id = q.push(nanoseconds(10), [&fired] { fired = true; });
  q.push(nanoseconds(20), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  std::vector<int> sink;
  drain(q, sink);
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.cancelled(), 1u);
}

TEST(EventQueue, CancelReturnsFalseForFiredAndDoubleCancel) {
  sim::EventQueue q;
  const sim::EventId a = q.push(nanoseconds(1), [] {});
  const sim::EventId b = q.push(nanoseconds(2), [] {});
  Time now = 0;
  q.pop(now)();
  EXPECT_FALSE(q.cancel(a)) << "already fired";
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b)) << "double cancel";
  EXPECT_FALSE(q.cancel(sim::kNoEvent));
}

TEST(EventQueue, CancelIsSlotReuseSafe) {
  // After a slot is recycled, the old id's generation is stale: cancelling
  // it must not kill the slot's new occupant.
  sim::EventQueue q;
  const sim::EventId old_id = q.push(nanoseconds(1), [] {});
  ASSERT_TRUE(q.cancel(old_id));
  bool fired = false;
  q.push(nanoseconds(2), [&fired] { fired = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(old_id)) << "stale id must not cancel the new occupant";
  std::vector<int> sink;
  drain(q, sink);
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelSkipsEventAndCountsIt) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  const sim::EventId id = sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, SelfCancelDuringExecutionIsNoOp) {
  // begin_fire retires the id before the callable runs, so an event that
  // tries to cancel itself (via a captured id) gets `false`.
  sim::Simulator sim;
  sim::EventId self = sim::kNoEvent;
  bool cancelled_self = true;
  self = sim.schedule_at(nanoseconds(5), [&] { cancelled_self = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled_self);
}

TEST(Simulator, CancelWhileRunning) {
  // A running event cancels another event that is already past skim()
  // staging: the stale entry must be skipped at pop time, not fired.
  sim::Simulator sim;
  bool later_fired = false;
  const sim::EventId later =
      sim.schedule_at(nanoseconds(7), [&later_fired] { later_fired = true; });
  bool cancel_ok = false;
  sim.schedule_at(nanoseconds(6), [&] { cancel_ok = sim.cancel(later); });
  sim.run();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(sim.events_processed(), 1u);
}

// ------------------------------------------------------------ fuzzing --

struct RefEntry {
  Time when;
  std::uint64_t seq;
  sim::EventId id;
};

// Differential fuzz against a reference model: random interleavings of
// push / pop / cancel (with same-timestamp bursts and far-future pushes
// that exercise the overflow window) must pop in exact (when, seq) order.
// Density phases rotate every kPhaseOps ops: the original mix; dense
// near-term bursts against a far tail, which fatten the staged front and
// grow the ring; sparse stretches that drain it; and the Fig. 8 star's
// shape. A width changes only at a rebuild, so the star phase drains the
// queue and starts a fresh one, whose far events force a growth rebuild
// to a width of tens of ms; deliveries and timers then wait in one staged
// bucket that near-term pushes land in front of, sliding the earlier
// entries, cancelled ones included, into the popped prefix. Refits, growth
// and shrink rebuilds and overflow jumps all run under the reference model.
TEST(EventQueue, FuzzMatchesReferenceModel) {
  constexpr int kPhaseOps = 750;
  for (int round = 0; round < 60; ++round) {
    std::mt19937_64 rng(round);
    std::optional<sim::EventQueue> q(std::in_place);
    std::vector<RefEntry> ref;
    std::uint64_t seq = 0;
    Time now = 0;
    std::uint64_t fired_seq = 0;

    auto push = [&](Time when) {
      const std::uint64_t s = seq++;
      const sim::EventId id = q->push(when, [s, &fired_seq] { fired_seq = s; });
      ref.push_back({when, s, id});
    };
    // Pops one event and checks it is the model's earliest.
    auto pop_matches = [&]() -> ::testing::AssertionResult {
      const auto it = std::min_element(ref.begin(), ref.end(),
                                       [](const RefEntry& a, const RefEntry& b) {
                                         if (a.when != b.when) return a.when < b.when;
                                         return a.seq < b.seq;
                                       });
      if (q->next_time() != it->when) {
        return ::testing::AssertionFailure() << "next_time " << q->next_time() << " != " << it->when;
      }
      Time popped = now;
      q->pop(popped)();
      if (popped != it->when || fired_seq != it->seq) {
        return ::testing::AssertionFailure() << "popped (" << popped << ", seq " << fired_seq
                                             << "), model (" << it->when << ", seq " << it->seq
                                             << ")";
      }
      now = popped;
      ref.erase(it);
      return ::testing::AssertionSuccess();
    };

    const int ops = 6000;
    for (int op = 0; op < ops || !ref.empty(); ++op) {
      const int dice = static_cast<int>(rng() % 100);
      const int phase = (op / kPhaseOps) % 4;  // 0 mixed, 1 dense, 2 sparse, 3 star
      const int push_pct = phase == 1 ? 65 : phase == 2 ? 25 : 50;
      if (phase == 3 && op % kPhaseOps == 0 && op < ops) {
        while (!ref.empty()) ASSERT_TRUE(pop_matches()) << "round " << round << " op " << op;
        q.emplace();
        // 160 events over 4 s: the growth rebuild at the 129th fits 60-120 ms.
        for (int f = 0; f < 160; ++f) {
          push(now + static_cast<Time>(rng() % seconds(std::int64_t{4})));
        }
      }
      if (op < ops && (ref.empty() || dice < push_pct)) {
        Time when = now;
        if (phase == 1) {
          when += (rng() % 10 == 0) ? static_cast<Time>(rng() % 50'000'000'000)  // far tail
                                    : static_cast<Time>(rng() % 500);            // dense head
        } else if (phase == 2) {
          when += static_cast<Time>(1'000'000 + rng() % 100'000'000);  // 1-101 us ahead
        } else if (phase == 3) {
          switch (rng() % 8) {
            case 0: when += milliseconds(std::int64_t{10}); break;  // timer
            case 1:
            case 2:
            case 3: when += microseconds(std::int64_t{125}); break;  // delivery, FIFO
            default: when += nanoseconds(300) + static_cast<Time>(rng() % 11'700'000); break;
          }
        } else {
          switch (rng() % 5) {
            case 0: when += static_cast<Time>(rng() % 50); break;          // staged front
            case 1: when += static_cast<Time>(rng() % 100'000); break;     // ring
            case 2: when += static_cast<Time>(rng() % 100'000'000); break; // overflow
            case 3: when += seconds(std::int64_t{1}); break;               // far future
            default: break;                                                // exact tie
          }
        }
        const int burst = (rng() % 16 == 0) ? static_cast<int>(1 + rng() % 6) : 1;
        for (int b = 0; b < burst; ++b) push(when);
      } else if (dice < push_pct + 10 && !ref.empty()) {
        // Cancel a random pending event.
        const std::size_t victim = rng() % ref.size();
        ASSERT_TRUE(q->cancel(ref[victim].id));
        ASSERT_FALSE(q->cancel(ref[victim].id));
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(victim));
      } else if (!ref.empty()) {
        ASSERT_TRUE(pop_matches()) << "round " << round << " op " << op;
      }
      ASSERT_EQ(q->size(), ref.size());
    }
    ASSERT_TRUE(q->empty());
  }
}

}  // namespace
}  // namespace dynaq
