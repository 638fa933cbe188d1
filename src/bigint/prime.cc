#include "bigint/prime.h"

#include <array>
#include <cstdint>
#include <string>

#include "bigint/modular.h"

namespace ppgnn {
namespace {

// Primes below 1000 for fast trial division.
constexpr std::array<uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// Remainder of a BigInt by a small unsigned divisor.
uint64_t ModSmall(const BigInt& v, uint64_t divisor) {
  return (v % BigInt(divisor)).Low64();
}

// One Miller-Rabin round with the given base; returns false if `n` is
// definitely composite, an error if the modular arithmetic itself is
// undefined for `n` (degenerate modulus). n odd, n > 3; n - 1 = d * 2^r
// with d odd.
Result<bool> MillerRabinRound(const BigInt& n, const BigInt& n_minus_1,
                              const BigInt& d, int r, const BigInt& base) {
  PPGNN_ASSIGN_OR_RETURN(BigInt x, ModExp(base, d, n));
  if (x.IsOne() || x == n_minus_1) return true;
  for (int i = 1; i < r; ++i) {
    x = ModMul(x, x, n);
    if (x == n_minus_1) return true;
    if (x.IsOne()) return false;  // nontrivial sqrt of 1
  }
  return false;
}

}  // namespace

bool IsProbablePrime(const BigInt& candidate, Rng& rng, int rounds) {
  if (candidate < BigInt(2)) return false;
  for (uint32_t p : kSmallPrimes) {
    if (candidate == BigInt(static_cast<uint64_t>(p))) return true;
    if (ModSmall(candidate, p) == 0) return false;
  }
  // candidate > 997 and odd from here on.
  BigInt n_minus_1 = candidate - BigInt(1);
  BigInt d = n_minus_1;
  int r = 0;
  while (!d.IsOdd()) {
    d = d >> 1;
    ++r;
  }
  BigInt upper = candidate - BigInt(3);  // bases in [2, n-2]
  for (int round = 0; round < rounds; ++round) {
    BigInt base = BigInt::RandomBelow(upper, rng) + BigInt(2);
    Result<bool> witness = MillerRabinRound(candidate, n_minus_1, d, r, base);
    // A degenerate modulus cannot be proven prime; treat it as composite
    // rather than aborting.
    if (!witness.ok() || !witness.value()) return false;
  }
  return true;
}

Result<BigInt> GeneratePrime(int bits, Rng& rng, int rounds) {
  if (bits < 2) return Status::InvalidArgument("prime must have >= 2 bits");
  // About one odd `bits`-bit number in bits * ln(2) / 2 is prime, so a
  // correct kernel draws 64 * bits candidates without a prime with
  // probability about e^-185 at any width: running out means the
  // arithmetic under Miller-Rabin is broken, not that the draws were
  // unlucky.
  const int64_t max_candidates = int64_t{64} * bits;
  for (int64_t drawn = 0; drawn < max_candidates; ++drawn) {
    BigInt candidate = BigInt::Random(bits, rng);
    // Force exact bit length and oddness.
    candidate = candidate + BigInt::Pow2(bits - 1) -
                (candidate.GetBit(bits - 1) ? BigInt::Pow2(bits - 1) : BigInt(0));
    if (!candidate.IsOdd()) candidate = candidate + BigInt(1);
    if (candidate.BitLength() != bits) continue;  // odd +1 overflowed width
    if (IsProbablePrime(candidate, rng, rounds)) return candidate;
  }
  return Status::Internal("no probable prime among " +
                          std::to_string(max_candidates) + " candidates of " +
                          std::to_string(bits) + " bits");
}

}  // namespace ppgnn
