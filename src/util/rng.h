// Seeded pseudo-random number generation for deterministic simulation.
//
// All stochastic behaviour in the simulator (link jitter, load-balancer
// choices, workload generation) draws from an explicitly seeded Rng so that
// every test and benchmark run is reproducible bit-for-bit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mecdns::util {

/// xoshiro256** generator, seeded through SplitMix64.
///
/// Small, fast and statistically strong enough for simulation workloads.
/// Not cryptographically secure (and nothing here needs it to be).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    for (auto& word : state_) {
      word = split_mix64(seed);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    // The span must be computed in uint64: hi - lo + 1 in int64 is signed
    // overflow (UB) whenever the range covers more than half the domain,
    // e.g. [INT64_MIN, INT64_MAX] or [INT64_MIN, 0]. In uint64 the
    // subtraction wraps to the mathematically correct span; a span of 0
    // means the full 2^64 range, where every raw draw is admissible.
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t offset = span == 0 ? next() : uniform_int(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (no cached second value; simple and
  /// deterministic across platforms).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double two_pi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Log-normal with given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  template <typename Container>
  std::size_t weighted_index(const Container& weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    double r = uniform() * total;
    std::size_t i = 0;
    for (const double w : weights) {
      if (r < w || i + 1 == static_cast<std::size_t>(weights.size())) {
        return i;
      }
      r -= w;
      ++i;
    }
    return weights.size() - 1;
  }

  /// Derives an independent child generator (for giving each component its
  /// own stream without correlating draws).
  Rng fork() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static std::uint64_t split_mix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mecdns::util
