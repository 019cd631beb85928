// Deterministic pseudo-random number generation.
//
// Every stochastic component (channel losses, protocol jitter, workload
// generation) draws from an Rng seeded explicitly, so whole simulations are
// reproducible bit-for-bit from a single seed. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64.
#pragma once

#include <cstdint>

#include "util/check.h"

namespace lrs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound), bound > 0. Uses rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound) {
    LRS_CHECK(bound > 0);
    // Rejection sampling: discard values in the biased tail. The tail
    // never starts below 2^64 - bound (for a power of two it starts there
    // exactly), so only a draw among the top `bound` values needs the
    // exact limit and its division.
    std::uint64_t v = next();
    if (v >= 0 - bound) {
      const std::uint64_t limit =
          (~std::uint64_t{0}) - (~std::uint64_t{0}) % bound;
      while (v >= limit) v = next();
    }
    return (bound & (bound - 1)) == 0 ? v & (bound - 1) : v % bound;
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01() {
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Geometric number of Bernoulli(p) trials until first success (>= 1).
  std::uint64_t geometric(double p);

  /// Derive an independent child generator (for per-node streams).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace lrs
