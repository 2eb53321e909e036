// Pending-event set for the discrete-event engine (DESIGN.md §9).
//
// Three pieces replace the old binary heap of std::function:
//
//  * EventPool — a chunked slab arena owned (via EventQueue) by the
//    Simulator. Every scheduled callable lives in a fixed 128-byte slot
//    (EventFn inline storage + generation + freelist link); slots are
//    recycled through a freelist and chunk addresses never move, so
//    callables are constructed once and invoked in place. Generation
//    counters make stale EventIds (fired or cancelled) detectably dead,
//    which is what gives O(1) cancellation.
//
//  * CalendarQueue (the EventQueue below) — a bucketed pending-event set
//    tuned for the simulator's near-monotonic insert pattern. Buckets hold
//    unsorted 24-byte POD entries {when, seq, slot, gen}; the bucket at
//    the cursor is staged into a sorted "front" vector and popped with an
//    index. The bucket width is fitted to the head of the queue and the
//    staged front is kept near kFrontBound entries, and an insert into it
//    moves only the entries between its place and the nearer end of the
//    staged run; drained buckets give back burst capacity, so the entry
//    vectors stay proportional to the live events.
//    Same-timestamp events fire in schedule order via a global sequence
//    number (FIFO tie-break), independent of bucket geometry — rebuilds
//    and width changes cannot reorder ties, so runs are fully
//    deterministic.
//
//  * FiredEvent — the handle pop() returns: invokes the callable in
//    place in its slot and recycles the slot on destruction
//    (exception-safe: a throwing event still releases its slot).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace dynaq::sim {

// Handle to a pending event: (generation << 32) | slot index. Generations
// are odd while the event is pending, so a valid id is never kNoEvent.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

// Slab arena of event slots. Chunk addresses are stable for the arena's
// lifetime, so a callable may schedule further events (growing the arena)
// while it is being invoked in place.
class EventPool {
 public:
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // even = free, odd = pending; bumped on release
    std::uint32_t next_free = kNone;
  };
  static_assert(sizeof(Slot) == 128, "event slot should be two cache lines");

  // Acquires a slot and constructs `f` in it. Returns the slot index; the
  // slot's generation is odd (= pending) afterwards.
  template <InlineCallable F>
  std::uint32_t acquire(F&& f) {
    if (free_head_ == kNone) add_chunk();
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    try {
      s.fn.emplace(std::forward<F>(f));
    } catch (...) {
      s.next_free = free_head_;  // roll the slot back onto the freelist
      free_head_ = idx;
      throw;
    }
    ++s.gen;  // even (free) -> odd (pending)
    return idx;
  }

  std::uint32_t generation(std::uint32_t idx) const { return slot(idx).gen; }

  // True when `gen` names the currently pending occupancy of `idx`.
  bool live(std::uint32_t idx, std::uint32_t gen) const {
    return (gen & 1u) != 0 && idx < total_ && slot(idx).gen == gen;
  }

  // Firing protocol: begin_fire() retires the id (so the event cannot be
  // cancelled while running) and returns the slot so the caller can invoke
  // the callable in place without re-resolving the chunk; finish_fire()
  // destroys the callable and recycles the slot.
  Slot& begin_fire(std::uint32_t idx) {
    Slot& s = slot(idx);
    ++s.gen;
    return s;
  }
  void finish_fire(std::uint32_t idx, Slot& s) {
    s.fn.reset();
    recycle(idx, s);
  }

  // O(1) cancellation: destroys the callable and recycles the slot. The
  // queue entry pointing here becomes stale (generation mismatch) and is
  // skipped when reached.
  void destroy_cancelled(std::uint32_t idx) {
    Slot& s = slot(idx);
    ++s.gen;
    s.fn.reset();
    recycle(idx, s);
  }

  // Starts pulling a slot toward the cache without touching it (used to
  // overlap the next event's slot miss with the current event's work).
  void prefetch(std::uint32_t idx) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slot(idx));
#else
    (void)idx;
#endif
  }

 private:
  Slot& slot(std::uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)]; }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }

  void recycle(std::uint32_t idx, Slot& s) {
    s.next_free = free_head_;
    free_head_ = idx;
  }

  void add_chunk() {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    const std::uint32_t base = total_;
    total_ += kChunkSlots;
    // Thread the new chunk onto the freelist, lowest index first.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      Slot& s = chunks_.back()[i];
      s.next_free = free_head_;
      free_head_ = base + i;
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNone;
  std::uint32_t total_ = 0;
};

// Handle to a popped event: operator() invokes the callable in place; the
// destructor recycles the slot (even if the callable threw). Neither
// copyable nor movable — pop() returns it as a prvalue — so exactly one
// handle releases each slot. Holds the resolved Slot so firing touches the
// chunk table only once, and the event's schedule-order sequence number so
// the simulator can fold the pop stream into a trajectory fingerprint
// (DESIGN.md §10).
class [[nodiscard]] FiredEvent {
 public:
  FiredEvent(EventPool& pool, std::uint32_t idx, EventPool::Slot& s, std::uint64_t seq)
      : pool_(pool), slot_(s), idx_(idx), seq_(seq) {}
  FiredEvent(const FiredEvent&) = delete;
  FiredEvent& operator=(const FiredEvent&) = delete;
  ~FiredEvent() { pool_.finish_fire(idx_, slot_); }

  // Invokes and destroys the callable in one indirect call; the destructor
  // then only recycles the slot (EventFn::reset on an empty fn is free).
  void operator()() { slot_.fn.consume(); }

  // Global schedule-order sequence number of the popped event — with the
  // pop timestamp this uniquely identifies the trajectory step.
  std::uint64_t seq() const { return seq_; }

 private:
  EventPool& pool_;
  EventPool::Slot& slot_;
  std::uint32_t idx_;
  std::uint64_t seq_;
};

// Calendar-style pending-event set. Events scheduled for the same
// timestamp fire in insertion order (FIFO tie-break via a monotonically
// increasing sequence number) so runs are fully deterministic.
//
// Geometry: absolute slot s covers times [s*width, (s+1)*width). A frozen
// window of nb consecutive slots [window_lo, window_lo+nb) maps onto a
// ring of nb unsorted buckets (slot & (nb-1) is collision-free inside the
// window). Everything earlier than front_end lives in the sorted front_
// staging vector; everything at or past the window lives in overflow_.
// When the ring drains, the window jumps to the earliest overflow slot
// (no empty-bucket years to scan). One rebuild re-buckets every pending
// entry with a width fitted to the head of the queue; it runs when the
// live count outgrows or undershoots the ring, and when inserts have
// grown the staged front past kFrontBound (at most once per live-count
// pops, so its O(live) cost stays amortized O(1) per event).
class EventQueue {
 public:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  // Staged entries past which an insert refits the width: an insert into
  // the sorted front moves at most about this many entries.
  static constexpr std::size_t kFrontBound = 256;
  // Entries a drained bucket keeps reserved; a burst's larger buffer is
  // given back when the bucket is staged or rebuilt.
  static constexpr std::size_t kBucketKeep = 64;

  EventQueue() { buckets_.resize(nb_); }

  template <InlineCallable F>
  EventId push(Time when, F&& action) {
    const std::uint32_t idx = pool_.acquire(std::forward<F>(action));
    const std::uint32_t gen = pool_.generation(idx);
    insert(Entry{when, seq_++, idx, gen});
    ++size_;
    // Grow to ~2 entries per bucket once occupancy reaches ~8: buckets stay
    // fat enough that staging amortizes the per-bucket work (scan, copy,
    // sort) over several events, and rebuilds stay rare (4x growth apart).
    if (size_ > 8 * nb_ && nb_ < kMaxBuckets) {
      rebuild(std::min(kMaxBuckets, std::bit_ceil(size_ / 2)));
    } else if (front_.size() - front_head_ > kFrontBound && pops_since_rebuild_ >= size_) {
      rebuild(nb_);  // the width outgrew the head's density: refit it
    }
    return make_id(idx, gen);
  }

  // Cancels a pending event in O(1). Returns true iff `id` named a
  // pending event (not yet fired, not already cancelled); the callable is
  // destroyed immediately and the event will not fire.
  bool cancel(EventId id) {
    const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (!pool_.live(idx, gen)) return false;
    pool_.destroy_cancelled(idx);
    --size_;
    ++cancelled_;
    ++stale_;  // the filed Entry is now dead; dropped when next scanned
    return true;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Timestamp of the earliest pending event. Precondition: !empty().
  Time next_time() {
    skim();
    return front_[front_head_].when;
  }

  // Removes the earliest event, advancing `now` to its timestamp. Invoke
  // the returned handle to run the callable. Precondition: !empty().
  FiredEvent pop(Time& now) {
    skim();
    const Entry e = front_[front_head_++];
    now = e.when;
    --size_;
    ++pops_since_rebuild_;
    EventPool::Slot& s = pool_.begin_fire(e.slot);
    compact_front();
    // Overlap the next event's slot fetch with this event's execution.
    if (front_head_ < front_.size()) pool_.prefetch(front_[front_head_].slot);
    return FiredEvent{pool_, e.slot, s, e.seq};
  }

  // Engine statistic for the perf harness and tests.
  std::uint64_t cancelled() const { return cancelled_; }

  // Queue memory in entries: `staged` entries wait in the sorted front
  // (live or cancelled), and `reserved` is the capacity of every entry
  // vector (front, ring, overflow, rebuild workspace). DESIGN.md §9
  // states the bounds both keep.
  struct Footprint {
    std::size_t staged;
    std::size_t reserved;
  };
  Footprint footprint() const {
    std::size_t reserved = front_.capacity() + overflow_.capacity() + scratch_.capacity();
    for (const auto& bucket : buckets_) reserved += bucket.capacity();
    return {front_.size() - front_head_, reserved};
  }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(Entry) == 24, "queue entries should stay small PODs");

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  // Empties a bucket, giving back a buffer grown past kBucketKeep.
  static void release(std::vector<Entry>& bucket) {
    bucket.clear();
    if (bucket.capacity() > kBucketKeep) bucket.shrink_to_fit();
  }

  std::int64_t slot_of(Time when) const { return when / width_; }

  // True, and uncounted from stale_, when `e` was cancelled after being
  // filed; the caller then drops it.
  bool drop_stale(const Entry& e) {
    if (stale_ == 0 || pool_.live(e.slot, e.gen)) return false;
    --stale_;
    return true;
  }

  void insert(const Entry& e) {
    if (e.when < front_end_) {
      // Belongs to the already-staged region: keep front_ sorted. Only
      // push() gets here (rebuild() files every entry at or past
      // front_end_), so `e` has the largest seq yet and goes after every
      // staged entry of its timestamp: its time alone places it. The
      // common case (an event for the current slot) appends at the end;
      // self-rescheduling chains hit this path on every push.
      if (front_.empty() || front_.back().when <= e.when) {
        front_.push_back(e);
        return;
      }
      // Walk in from both ends of the staged run to the entry's place, so
      // the walk, like the move after it, costs the distance to the nearer
      // end. Invariant: front_[front_head_, lo) is earlier than `e` and
      // front_[hi, end) later; the back is later, so hi starts below it.
      std::size_t lo = front_head_;
      std::size_t hi = front_.size() - 1;
      while (lo < hi) {
        if (e.when < front_[lo].when) {
          hi = lo;
        } else if (e.when < front_[hi - 1].when) {
          ++lo;
          --hi;
        } else {
          lo = hi;
        }
      }
      // Nearer the head, with a popped slot free below it: slide the earlier
      // entries down one. Otherwise shift the later entries up.
      if (front_head_ > 0 && lo - front_head_ < front_.size() - lo) {
        const auto head = front_.begin() + static_cast<std::ptrdiff_t>(front_head_);
        std::move(head, front_.begin() + static_cast<std::ptrdiff_t>(lo), head - 1);
        --front_head_;
        front_[lo - 1] = e;
      } else {
        front_.insert(front_.begin() + static_cast<std::ptrdiff_t>(lo), e);
      }
      return;
    }
    const std::int64_t s = slot_of(e.when);
    if (s < window_lo_ + static_cast<std::int64_t>(nb_)) {
      auto& bucket = buckets_[static_cast<std::size_t>(s) & (nb_ - 1)];
      // First touch reserves the steady-state depth in one allocation
      // instead of growing 1 -> 2 -> 4 -> 8.
      if (bucket.capacity() == 0) bucket.reserve(8);
      bucket.push_back(e);
      ++bucketed_;
    } else {
      overflow_.push_back(e);
    }
  }

  // Ensures front_[front_head_] is the earliest live (uncancelled) entry.
  // Precondition: size_ > 0. With no stale entries anywhere (the common
  // case), this costs one bounds check — no slot-generation probe.
  void skim() {
    for (;;) {
      if (front_head_ >= front_.size()) {
        refill_front();
      }
      if (stale_ == 0) return;
      const Entry& e = front_[front_head_];
      if (pool_.live(e.slot, e.gen)) return;
      ++front_head_;  // stale: cancelled after being scheduled
      --stale_;
    }
  }

  // Keeps the staged vector from accumulating a drained prefix forever
  // when inserts land in the staged region as fast as pops retire it
  // (self-rescheduling chains). Amortized O(1): an erase moves at most as
  // many entries as the pops that preceded it.
  void compact_front() {
    if (front_head_ == front_.size()) {
      front_.clear();
      front_head_ = 0;
    } else if (front_head_ >= 1024 && 2 * front_head_ >= front_.size()) {
      front_.erase(front_.begin(), front_.begin() + static_cast<std::ptrdiff_t>(front_head_));
      front_head_ = 0;
    }
  }

  // Stages the next non-empty bucket into front_, first jumping the window
  // to the overflow when the ring is empty. The bucket is copied, not
  // swapped, so a front grown by inserts never parks its buffer in the
  // ring. Precondition: at least one entry exists outside the drained
  // front_.
  void refill_front() {
    front_.clear();
    front_head_ = 0;
    if (bucketed_ == 0) rebase_from_overflow();
    // Scan the frozen window; bucketed_ > 0 guarantees a hit before the
    // window ends.
    for (;;) {
      auto& bucket = buckets_[static_cast<std::size_t>(cursor_) & (nb_ - 1)];
      ++cursor_;
      if (bucket.empty()) continue;
      bucketed_ -= bucket.size();
      front_.assign(bucket.begin(), bucket.end());
      release(bucket);
      std::sort(front_.begin(), front_.end(), earlier);
      front_end_ = cursor_ * width_;
      // The staged slots are scattered across the pool; start pulling
      // them in now so the misses overlap instead of serializing one per
      // pop.
      const std::size_t lookahead = std::min<std::size_t>(front_.size(), 16);
      for (std::size_t i = 0; i < lookahead; ++i) pool_.prefetch(front_[i].slot);
      return;
    }
  }

  // The ring is empty: jump the window to the earliest overflow slot and
  // pull the overflow entries that now fit. Entries cancelled since they
  // were filed are dropped during the scan (each stale entry is visited at
  // most once here, keeping cancellation amortized O(1)). Shrinks the ring
  // instead when the live count has fallen far below it.
  void rebase_from_overflow() {
    if (nb_ > kMinBuckets && size_ < nb_ / 8) {
      rebuild(std::max(kMinBuckets, std::bit_ceil(4 * size_)));
      return;
    }
    std::size_t kept = 0;
    std::int64_t min_slot = 0;
    for (const Entry& e : overflow_) {
      if (drop_stale(e)) continue;
      const std::int64_t s = slot_of(e.when);
      min_slot = (kept == 0) ? s : std::min(min_slot, s);
      overflow_[kept++] = e;
    }
    overflow_.resize(kept);
    // size_ > 0 with an empty ring and drained front_ implies a live
    // overflow entry survived the purge.
    window_lo_ = cursor_ = min_slot;
    front_end_ = cursor_ * width_;
    const std::int64_t window_hi = window_lo_ + static_cast<std::int64_t>(nb_);
    kept = 0;
    for (const Entry& e : overflow_) {
      const std::int64_t s = slot_of(e.when);
      if (s < window_hi) {
        buckets_[static_cast<std::size_t>(s) & (nb_ - 1)].push_back(e);
        ++bucketed_;
      } else {
        overflow_[kept++] = e;
      }
    }
    overflow_.resize(kept);
  }

  // Re-buckets every pending entry, the staged front's included, into
  // `new_nb` buckets of a width fitted to the head of the queue, and
  // realigns the window at the earliest entry. The one rebuild for every
  // trigger (growth, shrink, a fat front). Never reorders anything:
  // ordering is decided at pop time by (when, seq) alone.
  void rebuild(std::size_t new_nb) {
    scratch_.clear();
    const auto gather = [this](const Entry& e) {
      if (!drop_stale(e)) scratch_.push_back(e);
    };
    std::for_each(front_.begin() + static_cast<std::ptrdiff_t>(front_head_), front_.end(), gather);
    front_.clear();
    front_head_ = 0;
    for (auto& bucket : buckets_) {
      std::for_each(bucket.begin(), bucket.end(), gather);
      release(bucket);
    }
    std::for_each(overflow_.begin(), overflow_.end(), gather);
    overflow_.clear();
    bucketed_ = 0;
    pops_since_rebuild_ = 0;
    nb_ = new_nb;
    buckets_.resize(nb_);
    // size_ > 0 at every trigger, so a live entry was gathered.
    Time lo = scratch_.front().when;
    for (const Entry& e : scratch_) lo = std::min(lo, e.when);
    width_ = fitted_width(lo);
    cursor_ = window_lo_ = slot_of(lo);
    front_end_ = cursor_ * width_;
    for (const Entry& e : scratch_) insert(e);
  }

  // Width = 3x the mean spacing of the earliest quarter of scratch_ (the
  // head of the queue, whose earliest entry is at `lo`), so the buckets
  // about to be staged hold a few events each; a far tail waits in
  // overflow_ rather than widening every bucket. Keeps the old width when
  // the head is one timestamp. Reorders scratch_; deterministic: depends
  // only on queue contents.
  Time fitted_width(Time lo) {
    const std::size_t q = scratch_.size() / 4;
    if (q == 0) return width_;
    const auto kth = scratch_.begin() + static_cast<std::ptrdiff_t>(q);
    std::nth_element(scratch_.begin(), kth, scratch_.end(),
                     [](const Entry& a, const Entry& b) { return a.when < b.when; });
    // Capping the spacing at a second keeps nb*width far from Time overflow.
    const Time per = std::min((kth->when - lo) / static_cast<Time>(q), kSecond);
    return per == 0 ? width_ : 3 * per;
  }

  // Calendar state. Invariants: every pending entry with when < front_end_
  // is in front_[front_head_..]; ring entries occupy absolute slots in
  // [cursor_, window_lo_ + nb_); overflow entries lie at or past the
  // window. front_end_ == cursor_ * width_.
  std::vector<std::vector<Entry>> buckets_;
  std::size_t nb_ = kMinBuckets;
  Time width_ = kMicrosecond;
  std::int64_t window_lo_ = 0;
  std::int64_t cursor_ = 0;
  std::size_t bucketed_ = 0;  // entries (live + stale) in the ring
  std::vector<Entry> overflow_;
  std::vector<Entry> front_;
  std::size_t front_head_ = 0;
  Time front_end_ = 0;
  std::vector<Entry> scratch_;  // rebuild workspace, kept to reuse capacity

  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;   // live (scheduled - fired - cancelled)
  std::size_t stale_ = 0;  // cancelled entries still filed somewhere
  std::size_t pops_since_rebuild_ = 0;
  std::uint64_t cancelled_ = 0;
  EventPool pool_;
};

}  // namespace dynaq::sim
