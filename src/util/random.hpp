#pragma once
/// \file random.hpp
/// Deterministic, seedable pseudo-random generators.
///
/// All randomness in the project (synthetic genomes, read sampling, hash
/// salts, test sweeps) flows through these generators so that every dataset
/// and experiment is reproducible from a single 64-bit seed.

#include <cstdint>

#include "util/common.hpp"

namespace dibella::util {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used both as a standalone
/// generator for seeding and as the integer finalizer in hash functions.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// Mix a 64-bit value through the SplitMix64 finalizer (stateless).
constexpr u64 mix64(u64 z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Xoshiro256**: fast general-purpose PRNG with 256-bit state.
/// Satisfies the essentials of UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = u64;

  explicit Xoshiro256(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return next(); }

  u64 next() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, n). Requires n > 0.
  u64 uniform_below(u64 n);

  /// Standard normal variate (Box–Muller).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal variate parameterized by the *target* mean and sigma of the
  /// underlying normal; used for long-read length distributions.
  double lognormal(double target_mean, double sigma);

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Poisson variate (Knuth for small lambda, normal approximation for large).
  u64 poisson(double lambda);

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
  u64 s_[4] = {};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dibella::util
