// Deterministic pseudo-random number generation.
//
// Every randomized component in the library takes an explicit Rng (or a
// seed), so experiments and tests are reproducible bit-for-bit. The core
// generator is xoshiro256**, seeded through SplitMix64 per Blackman &
// Vigna's recommendation.
//
// NOTE ON SECURITY: Rng is NOT a cryptographically secure generator. It is
// used for dummy-location generation, Monte-Carlo sampling, and workload
// synthesis. Paillier key generation (GenerateKeyPair) draws from the
// caller's Rng too, with no OS entropy mixed in; nothing calls
// Rng::OsSeeded() yet. A secret-draw generator is ROADMAP item 3.

#ifndef PPGNN_COMMON_RANDOM_H_
#define PPGNN_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppgnn {

/// xoshiro256** deterministic PRNG.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns an Rng seeded from std::random_device (non-deterministic).
  static Rng OsSeeded();

  /// Next raw 64-bit output. Inline: the sanitation Monte-Carlo draws
  /// millions of these per query.
  uint64_t NextUint64() {
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

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal variate (Box-Muller).
  double NextGaussian();

  /// Bernoulli trial with success probability p in [0, 1].
  bool NextBernoulli(double p);

  /// Fills `out` with `count` random bytes.
  void FillBytes(uint8_t* out, size_t count);

  /// A fresh, independent generator derived from this one's stream. Useful
  /// for handing child components their own deterministic streams.
  Rng Fork();

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  // Box-Muller produces variates in pairs; caches the spare.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace ppgnn

#endif  // PPGNN_COMMON_RANDOM_H_
