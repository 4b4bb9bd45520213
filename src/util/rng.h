// Deterministic, splittable random number generation.
//
// Every Monte Carlo estimate in this repository is seeded explicitly so that
// tests and benches are reproducible run to run. xoshiro256** is used for its
// speed (the probe-engine hot loops draw one variate per server probe) and
// statistical quality; splitmix64 expands user seeds into full state.

#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

namespace sqs {

// The integer form of Rng::bernoulli(prob): for every 53-bit draw
// x = next_u64() >> 11, x < bernoulli_threshold(prob) iff x * 2^-53 < prob.
// Proof: prob * 2^53 is exact (a power-of-two scaling), and an integer x is
// below a real y iff it is below ceil(y). p <= 0 (and NaN) never fires,
// p >= 1 always does.
inline std::uint64_t bernoulli_threshold(double prob) {
  if (!(prob > 0.0)) return 0;
  if (prob >= 1.0) return 1ull << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(prob, 53)));
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct LaneStates;

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedull) { reseed(seed); }

  // Derives an independent stream for a named sub-experiment. Streams
  // derived with different labels (or from different parents) are
  // statistically independent for all practical purposes.
  Rng split(std::string_view label) const {
    std::uint64_t h = 1469598103934665603ull;
    for (char c : label) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    std::uint64_t mix = s_[0] ^ (s_[3] * 0x9e3779b97f4a7c15ull);
    return Rng(h ^ mix);
  }

  Rng split(std::uint64_t index) const {
    std::uint64_t mix = s_[1] ^ (s_[2] * 0xda942042e4dd58b5ull);
    return Rng(mix + 0x9e3779b97f4a7c15ull * (index + 1));
  }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  std::uint64_t next_u64() {
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

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double prob) { return next_double() < prob; }

  // bernoulli(prob) for threshold = bernoulli_threshold(prob): the same
  // draw and the same outcome, without the int-to-double conversion.
  bool bernoulli_below(std::uint64_t threshold) {
    return (next_u64() >> 11) < threshold;
  }

  // Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's nearly-divisionless bounded sampling.
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (-bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Exponentially distributed with the given rate (mean 1/rate).
  double exponential(double rate);

  // Number of successes out of n independent trials with success prob q.
  int binomial(int n, double q);

  // UniformRandomBitGenerator interface, so std::shuffle etc. work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next_u64(); }

 private:
  // Loads and stores the raw state for the lane-parallel draws.
  friend struct LaneStates;

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace sqs
