// Deterministic, fast pseudo-random number generation for workload synthesis
// and randomized algorithms (e.g. Algorithm 1's random victim pick).
//
// We deliberately avoid std::mt19937 for the hot paths: xoshiro256** is
// several times faster and has well-understood statistical quality, and the
// simulator draws billions of variates across a full experiment run.
#pragma once

#include <cstdint>
#include <limits>

namespace cliffhanger {

// SplitMix64: used to seed xoshiro and as a standalone stateless mixer.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators" (OOPSLA'14).
constexpr uint64_t SplitMix64Step(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256**. Satisfies UniformRandomBitGenerator so it can also be used
// with <random> distributions where convenient.
class Rng {
 public:
  using result_type = uint64_t;

  explicit constexpr Rng(uint64_t seed = 0x1234abcdULL) { Seed(seed); }

  constexpr void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64Step(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  constexpr uint64_t operator()() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  constexpr double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound). Lemire's multiply-shift rejection method.
  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) return 0;
    // Multiply-high approach; the bias for bound << 2^64 is negligible for
    // simulation purposes but we still debias with one rejection round.
    uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // true with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4] = {};
};

}  // namespace cliffhanger
