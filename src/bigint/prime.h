// Probabilistic primality testing (Miller-Rabin with trial-division
// prefilter) and random prime generation for Paillier key material.

#ifndef PPGNN_BIGINT_PRIME_H_
#define PPGNN_BIGINT_PRIME_H_

#include "bigint/bigint.h"
#include "common/random.h"
#include "common/status.h"

namespace ppgnn {

/// Miller-Rabin compositeness test with `rounds` random bases (error
/// probability <= 4^-rounds), after trial division by small primes.
/// Values < 2 are not prime.
bool IsProbablePrime(const BigInt& candidate, Rng& rng, int rounds = 32);

/// Uniformly random probable prime with exactly `bits` bits (top bit set).
/// Requires bits >= 2. Internal error once 64 * bits candidates have been
/// drawn without a prime, which a correct modular arithmetic makes
/// vanishingly unlikely (about e^-185).
Result<BigInt> GeneratePrime(int bits, Rng& rng, int rounds = 32);

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_PRIME_H_
