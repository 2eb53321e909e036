// A fixed piece of simulator-like work, written here and independent of the
// library, that reads how fast the host runs at the moment. On a shared host
// the simulator slows by up to 2x, per CPU and on every CPU at once, in
// phases of seconds to minutes (README.md, "Noise and sizing"), so a run can
// fall entirely in a slow phase. A probe pass timed just before a repetition,
// on the same CPU, meets the same phase. It never calls the library, so a
// change to the library does not move it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  // `table_bytes` sets the working set the probe touches at random; all of
  // it is written here, so it stays resident for the probe's lifetime.
  explicit HostProbe(std::size_t table_bytes);
  // Runs one fixed pass and returns its wall time in seconds.
  double pass();
  std::size_t resident_bytes() const {
    return (table_.capacity() + heap_.capacity()) * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
