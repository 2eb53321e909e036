// Heap-allocation counter of the benchmark binaries: alloc_counter.cpp
// replaces the global operator new, so every allocation the library makes
// is counted from outside it.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

// Global operator new calls so far, excluding those inside a Pause.
std::uint64_t count();

// Allocations made while a Pause is alive are the benchmark's own
// bookkeeping (the recording decorator's op log) and are not counted.
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;
};

}  // namespace perfbench::alloc
