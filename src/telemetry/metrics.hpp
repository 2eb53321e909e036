// HDR-style log-bucketed histogram: the hub's per-queue queueing-delay
// instrument (DESIGN.md §8).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace dynaq::telemetry {

// Log-bucketed histogram over non-negative int64 values (queueing delays in
// picoseconds, byte counts). Values below 2^kSubBits land in exact
// single-value buckets; above that, each power-of-two octave is split into
// 2^kSubBits linear sub-buckets, bounding the relative quantile error at
// 1/2^kSubBits (12.5%). Fixed-size array storage: no allocation on record.
class LogHistogram {
 public:
  static constexpr int kSubBits = 3;       // 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxBits = 48;      // covers ~2.8e14 (ps -> ~280 s)
  static constexpr int kNumBuckets = kSub + (kMaxBits - kSubBits) * kSub;

  static constexpr int index_of(std::int64_t v) {
    if (v < kSub) return v < 0 ? 0 : static_cast<int>(v);
    const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(v));
    if (msb >= kMaxBits) return kNumBuckets - 1;
    const int sub = static_cast<int>((v >> (msb - kSubBits)) & (kSub - 1));
    return kSub + (msb - kSubBits) * kSub + sub;
  }

  // Smallest value mapping to bucket `index`; index_of(lower_bound(i)) == i.
  static constexpr std::int64_t lower_bound(int index) {
    if (index < kSub) return index;
    const int octave = (index - kSub) / kSub;
    const int sub = (index - kSub) % kSub;
    return (std::int64_t{1} << (kSubBits + octave)) +
           (static_cast<std::int64_t>(sub) << octave);
  }

  void record(std::int64_t v) {
    ++count_;
    if (v > max_) max_ = v;
    ++buckets_[static_cast<std::size_t>(index_of(v))];
  }

  std::uint64_t count() const { return count_; }
  std::int64_t max() const { return max_; }
  std::uint64_t bucket(int index) const { return buckets_[static_cast<std::size_t>(index)]; }

  // Quantile estimate: the lower bound of the bucket holding the p-th
  // percentile sample (deterministic, biased low by at most 12.5%).
  std::int64_t percentile(double p) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cum = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      cum += buckets_[static_cast<std::size_t>(i)];
      if (cum >= rank) return lower_bound(i);
    }
    return max_;
  }

 private:
  std::uint64_t count_ = 0;
  std::int64_t max_ = 0;
  std::array<std::uint64_t, kNumBuckets> buckets_{};
};

}  // namespace dynaq::telemetry
