#include "bigint/prime.h"

#include <gtest/gtest.h>

#include "bigint/modular.h"

namespace ppgnn {
namespace {

TEST(PrimalityTest, SmallPrimesRecognized) {
  Rng rng(1);
  const uint64_t primes[] = {2, 3, 5, 7, 11, 97, 541, 7919, 104729};
  for (uint64_t p : primes) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), rng)) << p;
  }
}

TEST(PrimalityTest, SmallCompositesRejected) {
  Rng rng(2);
  const uint64_t composites[] = {0, 1, 4, 6, 9, 15, 21, 91, 561, 1105, 6601,
                                 62745, 8911};  // includes Carmichael numbers
  for (uint64_t c : composites) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(PrimalityTest, NegativeNotPrime) {
  Rng rng(3);
  EXPECT_FALSE(IsProbablePrime(BigInt(-7), rng));
}

TEST(PrimalityTest, LargeKnownPrimeAndNeighbor) {
  Rng rng(4);
  // 2^127 - 1 is a Mersenne prime; its even neighbor is composite.
  BigInt mersenne = BigInt::Pow2(127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(mersenne, rng));
  EXPECT_FALSE(IsProbablePrime(mersenne - BigInt(2), rng));
  // 2^255 - 19 is prime (Curve25519 field).
  EXPECT_TRUE(IsProbablePrime(BigInt::Pow2(255) - BigInt(19), rng));
}

TEST(PrimalityTest, ProductOfTwoPrimesRejected) {
  Rng rng(5);
  BigInt p = GeneratePrime(96, rng).value();
  BigInt q = GeneratePrime(96, rng).value();
  EXPECT_FALSE(IsProbablePrime(p * q, rng));
}

class GeneratePrimeTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratePrimeTest, ExactBitLengthAndPrimality) {
  int bits = GetParam();
  Rng rng(static_cast<uint64_t>(bits));
  for (int i = 0; i < 3; ++i) {
    BigInt p = GeneratePrime(bits, rng).value();
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.IsOdd());
    EXPECT_TRUE(IsProbablePrime(p, rng, 16));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratePrimeTest,
                         ::testing::Values(16, 32, 64, 128, 256, 512));

TEST(GeneratePrimeTest, RejectsTinyWidths) {
  Rng rng(6);
  EXPECT_FALSE(GeneratePrime(1, rng).ok());
  EXPECT_FALSE(GeneratePrime(0, rng).ok());
  EXPECT_FALSE(GeneratePrime(-5, rng).ok());
}

TEST(GeneratePrimeTest, DistinctAcrossCalls) {
  Rng rng(7);
  BigInt a = GeneratePrime(128, rng).value();
  BigInt b = GeneratePrime(128, rng).value();
  EXPECT_NE(a, b);
}

TEST(GeneratedPrimesTest, SupportFermatInverse) {
  // p prime => every 0 < a < p has an inverse; spot check the generator's
  // output behaves like a field modulus.
  Rng rng(9);
  BigInt p = GeneratePrime(192, rng).value();
  for (int i = 0; i < 5; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(ModMul(a, ModInverse(a, p).value(), p), BigInt(1));
  }
}

}  // namespace
}  // namespace ppgnn
