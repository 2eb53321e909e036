// FNV-1a 64-bit folding primitives for trajectory fingerprints
// (DESIGN.md §10). The engine folds every popped event's (when, seq) pair
// into a running digest when fingerprinting is enabled, and the layers
// above (telemetry::Hub event bus, check::TrajectoryHash oracle) reuse the
// same primitive so one hash algorithm covers the whole determinism
// contract. The folding primitives are constexpr and allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dynaq::sim {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ static_cast<std::uint64_t>(b)) * kFnv1aPrime;
}

// Folds the 8 bytes of `x` (little-endian order) into the digest `h`.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(x & 0xffu));
    x >>= 8;
  }
  return h;
}

// Canonical text form of a digest: "0x" + 16 lowercase hex digits. The
// sweep JSON carries hashes in this form (a u64 does not survive a round
// trip through JSON numbers, which are doubles), and the ci.sh
// differential gate greps for it.
inline std::string fingerprint_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x0000000000000000";
  for (std::size_t i = 17; i >= 2; --i) {
    out[i] = kDigits[v & 0xfu];
    v >>= 4;
  }
  return out;
}

}  // namespace dynaq::sim
