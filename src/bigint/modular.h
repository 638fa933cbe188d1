// Modular arithmetic on BigInt: gcd/lcm, modular inverse, modular
// exponentiation (4-bit fixed-window), and CRT recombination.

#ifndef PPGNN_BIGINT_MODULAR_H_
#define PPGNN_BIGINT_MODULAR_H_

#include "bigint/bigint.h"
#include "common/status.h"

namespace ppgnn {

class MontgomeryContext;

/// Greatest common divisor of |a| and |b| (non-negative).
BigInt Gcd(const BigInt& a, const BigInt& b);

/// Least common multiple of |a| and |b| (non-negative).
BigInt Lcm(const BigInt& a, const BigInt& b);

/// x such that a·x ≡ 1 (mod m), in [0, m). Errors if gcd(a, m) != 1 or
/// m < 2.
Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

/// base^exponent mod m, with exponent >= 0 and m >= 1. Uses a 4-bit
/// fixed-window ladder; cost is O(bits(exponent)) modular multiplications.
/// Odd moduli >= 128 bits construct a throwaway MontgomeryContext per
/// call — hot paths must use the prebuilt-context overload below.
Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent,
                      const BigInt& m);

/// base^exponent mod ctx.modulus() using a prebuilt Montgomery context,
/// skipping the per-call derivation of n' and R^2 mod n. Bit-identical
/// to the BigInt-modulus overload for the same (odd) modulus.
Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent,
                      const MontgomeryContext& ctx);

/// a*b mod m.
BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

/// Chinese remainder theorem for two coprime moduli: the unique x in
/// [0, m1*m2) with x ≡ r1 (mod m1) and x ≡ r2 (mod m2).
Result<BigInt> CrtCombine(const BigInt& r1, const BigInt& m1, const BigInt& r2,
                          const BigInt& m2);

/// CrtCombine with its coefficient m1_inv = m1^{-1} mod m2 computed once
/// by the caller (ModInverse): callers that recombine over the same pair
/// of moduli many times skip the extended Euclid on every call.
BigInt CrtCombinePrecomputed(const BigInt& r1, const BigInt& m1,
                             const BigInt& r2, const BigInt& m2,
                             const BigInt& m1_inv);

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MODULAR_H_
