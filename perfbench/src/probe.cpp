#include "probe.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "trace.hpp"

namespace perfbench {
namespace {

// Events pending at once and events handled per pass.
constexpr std::size_t kPending = 4096;
constexpr int kSteps = 100'000;
constexpr int kSlotBits = 16;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostProbe::HostProbe(std::size_t table_bytes)
    : table_(std::bit_ceil(std::max<std::size_t>(table_bytes / sizeof(std::uint64_t), 1024))) {
  std::uint64_t state = 1;
  for (std::uint64_t& v : table_) v = splitmix(state);
  heap_.reserve(kPending);
}

double HostProbe::pass() {
  // The same work every pass: a min-heap of (time, slot) events; each popped
  // event updates two random table entries and schedules its successor.
  std::uint64_t rng = 42;
  heap_.clear();
  for (std::size_t i = 0; i < kPending; ++i) {
    heap_.push_back((splitmix(rng) >> 40) << kSlotBits | i);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  const std::uint64_t mask = table_.size() - 1;
  constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  std::uint64_t sum = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t event = heap_.back();
    const std::uint64_t now = event >> kSlotBits;
    const std::uint64_t r = splitmix(rng);
    std::uint64_t& a = table_[r & mask];
    std::uint64_t& b = table_[((event & kSlotMask) * 0x9e3779b97f4a7c15ULL >> 20) & mask];
    if ((a ^ b) & 1) {
      a += now;
      b ^= r;
    } else {
      a ^= b;
      sum += a;
    }
    heap_.back() = (now + 1 + (r >> 52)) << kSlotBits | (event & kSlotMask);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  const double seconds = seconds_since(start);
  sink_ += sum;
  return seconds;
}

}  // namespace perfbench
