// Sorted, disjoint [start, end) byte ranges in one flat vector: the
// receiver's out-of-order buffer and the sender's SACK scoreboard
// (DESIGN.md §9). Both hold a handful of ranges, so a sorted vector does
// what a node-based map did without a heap node per segment. A range that
// overlaps or touches a neighbour merges with it, so the list is always the
// canonical union of what was inserted. It gives its capacity back whenever
// it drains: most flows have nothing out of order most of the time, and
// thousands of idle flows should not each keep a buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace dynaq::transport {

class IntervalList {
 public:
  using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)

  // Adds [start, end), merged with every range it overlaps or touches.
  void insert(std::uint64_t start, std::uint64_t end) {
    // The first range ending at or after `start` is the leftmost one to merge.
    const auto first = std::partition_point(ranges_.begin(), ranges_.end(),
                                            [start](const Interval& r) { return r.second < start; });
    auto last = first;
    for (; last != ranges_.end() && last->first <= end; ++last) {
      start = std::min(start, last->first);
      end = std::max(end, last->second);
    }
    if (first == last) {
      ranges_.insert(first, Interval{start, end});
      return;
    }
    *first = Interval{start, end};
    ranges_.erase(first + 1, last);
  }

  // Drops every byte below `point`: ranges ending at or below it go, and a
  // range straddling it is clipped to start there.
  void erase_below(std::uint64_t point) {
    ranges_.erase(ranges_.begin(),
                  std::partition_point(ranges_.begin(), ranges_.end(),
                                       [point](const Interval& r) { return r.second <= point; }));
    if (ranges_.empty()) {
      ranges_.shrink_to_fit();
    } else {
      ranges_.front().first = std::max(ranges_.front().first, point);
    }
  }

  void pop_front() {
    ranges_.erase(ranges_.begin());
    if (ranges_.empty()) ranges_.shrink_to_fit();
  }

  void clear() {
    ranges_.clear();
    ranges_.shrink_to_fit();  // `ranges_ = {}` would keep the buffer
  }

  bool empty() const { return ranges_.empty(); }
  const Interval& front() const { return ranges_.front(); }
  const Interval& back() const { return ranges_.back(); }
  std::vector<Interval>::const_iterator begin() const { return ranges_.begin(); }
  std::vector<Interval>::const_iterator end() const { return ranges_.end(); }

 private:
  std::vector<Interval> ranges_;
};

}  // namespace dynaq::transport
