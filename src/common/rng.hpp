// Deterministic, seedable random-number generation.
//
// All stochastic behaviour in the repository (synthetic sequences, Markov
// sampling, noise injection in tests) flows through these generators so that
// every experiment is reproducible bit-for-bit across hosts.
#pragma once

#include <cmath>

#include "common/types.hpp"

namespace tc {

/// SplitMix64 — used to expand a single 64-bit seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    u64 z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// PCG32 (Melissa O'Neill) — the workhorse generator.  Small state, good
/// statistical quality, and cheap enough for per-pixel noise synthesis.
class Pcg32 {
 public:
  /// Construct from a seed and an optional stream id; distinct stream ids
  /// yield independent sequences for the same seed.  The stream id is mixed
  /// through SplitMix64 into both state and increment — merely adding it to
  /// the increment (the naive approach) leaves the first outputs of nearby
  /// streams identical because PCG's output mix discards low state bits.
  explicit Pcg32(u64 seed, u64 stream = 0) {
    SplitMix64 sm(seed ^ (stream * 0xDA942042E4DD58B5ULL) ^
                  0x1405B8EFD5CBA4C7ULL);
    state_ = sm.next();
    inc_ = sm.next() | 1ULL;
    (void)next_u32();
  }

  u32 next_u32() {
    u64 old = state_;
    state_ = old * kMultiplier + inc_;
    u32 xorshifted = static_cast<u32>(((old >> 18) ^ old) >> 27);
    u32 rot = static_cast<u32>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Skip `delta` raw draws (next_u32 calls) in O(log delta): the LCG
  /// jump-ahead of F. Brown, "Random number generation with arbitrary
  /// strides" (1994).  The Box–Muller cache is untouched.
  void advance(u64 delta) {
    u64 acc_mult = 1;
    u64 acc_plus = 0;
    u64 cur_mult = kMultiplier;
    u64 cur_plus = inc_;
    for (; delta > 0; delta >>= 1) {
      if ((delta & 1u) != 0) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  /// The LCG state: copies of one generator with equal states have made
  /// the same number of raw draws.
  [[nodiscard]] u64 state() const { return state_; }

  /// Uniform double in [0, 1).
  f64 next_f64() {
    return static_cast<f64>(next_u32()) * (1.0 / 4294967296.0);
  }

  /// Uniform double in [lo, hi).
  f64 uniform(f64 lo, f64 hi) { return lo + (hi - lo) * next_f64(); }

  /// Uniform integer in [lo, hi] (inclusive).  Requires hi >= lo.
  i32 uniform_int(i32 lo, i32 hi) {
    u32 span = static_cast<u32>(hi - lo) + 1u;
    return lo + static_cast<i32>(next_u32() % span);
  }

  /// Standard normal via Box–Muller (caches the second variate).
  f64 normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    f64 u1 = 0.0;
    do {
      u1 = next_f64();
    } while (u1 <= 1e-12);
    f64 u2 = next_f64();
    f64 r = std::sqrt(-2.0 * std::log(u1));
    f64 theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with explicit mean and standard deviation.
  f64 normal(f64 mean, f64 sigma) { return mean + sigma * normal(); }

  /// Poisson-distributed count (Knuth for small lambda, normal approximation
  /// for large lambda).  Used for X-ray quantum noise.
  i32 poisson(f64 lambda) {
    if (lambda <= 0.0) return 0;
    if (lambda > 64.0) {
      f64 v = normal(lambda, std::sqrt(lambda));
      return v < 0.0 ? 0 : static_cast<i32>(v + 0.5);
    }
    f64 l = std::exp(-lambda);
    i32 k = 0;
    f64 p = 1.0;
    do {
      ++k;
      p *= next_f64();
    } while (p > l);
    return k - 1;
  }

 private:
  static constexpr u64 kMultiplier = 6364136223846793005ULL;

  u64 state_ = 0;
  u64 inc_ = 1;
  f64 cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace tc
