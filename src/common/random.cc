#include "common/random.h"

#include <cmath>
#include <random>

namespace ppgnn {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng Rng::OsSeeded() {
  std::random_device rd;
  uint64_t seed = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  return Rng(seed);
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Lemire's nearly-divisionless bounded sampling.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

void Rng::FillBytes(uint8_t* out, size_t count) {
  size_t i = 0;
  while (i + 8 <= count) {
    uint64_t word = NextUint64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<uint8_t>(word >> (8 * b));
  }
  if (i < count) {
    uint64_t word = NextUint64();
    for (int b = 0; i < count; ++b) out[i++] = static_cast<uint8_t>(word >> (8 * b));
  }
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace ppgnn
