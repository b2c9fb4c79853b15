#ifndef SOI_UTIL_RNG_H_
#define SOI_UTIL_RNG_H_

#include <cstdint>

#include "util/check.h"

namespace soi {

/// SplitMix64: used to seed larger-state generators from a single 64-bit
/// value. (Steele, Lea, Flood: "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.)
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() { return Mix(state_ += 0x9E3779B97F4A7C15ull); }

  /// The output finalizer on its own: a bijective 64-bit mix with full
  /// avalanche, for hashing a key straight to a uniform word.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna). Fast, high-quality, 256-bit state.
///
/// This is the single PRNG used throughout the library so every experiment is
/// reproducible from one seed. Satisfies the UniformRandomBitGenerator
/// concept so it also plugs into <random> distributions where needed.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the full state via SplitMix64 as recommended by the authors.
  explicit Rng(uint64_t seed = 0x5EEDDEADBEEF1234ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection-free
  /// mapping (bias negligible at 64 bits).
  uint64_t NextBounded(uint64_t bound) {
    SOI_DCHECK(bound > 0);
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    SOI_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Forks an independent generator (new stream derived from this one);
  /// used to give each sampled possible world its own stream so worlds are
  /// insensitive to the order in which they are generated. Advances this
  /// generator, so successive forks differ.
  Rng Fork() { return Rng(Next() ^ 0xA5A5A5A5A5A5A5A5ull); }

  /// Derives the generator of logical stream `stream` from the current
  /// state WITHOUT advancing it. The family of streams is identified by
  /// this generator's state, so the standard parallel pattern is
  ///
  ///   Rng family = master.Fork();            // advance master once
  ///   ... work item i uses family.Fork(i) ...  // any order, any thread
  ///
  /// which makes per-item randomness bit-identical regardless of how items
  /// are scheduled across threads (see runtime/parallel_for.h).
  Rng Fork(uint64_t stream) const {
    SplitMix64 sm(state_[0] ^ Rotl(state_[2], 37) ^
                  (0x9E3779B97F4A7C15ull * (stream + 1)));
    return Rng(sm.Next() ^ state_[3]);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace soi

#endif  // SOI_UTIL_RNG_H_
