#include "bigint/multiexp.h"

#include <gtest/gtest.h>

#include "bigint/modular.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/paillier.h"

namespace ppgnn {
namespace {

// Naive reference: prod_i bases[i]^{exps[i]} mod m, one exponentiation
// per term. MultiExp must be bit-identical to this.
BigInt NaiveProduct(const std::vector<BigInt>& bases,
                    const std::vector<BigInt>& exps, const BigInt& m) {
  BigInt acc(1);
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = ModMul(acc, ModExp(bases[i], exps[i], m).value(), m);
  }
  return acc;
}

BigInt OddModulus(int bits, Rng& rng) {
  BigInt m = BigInt::Random(bits, rng);
  if (!m.IsOdd()) m = m + BigInt(1);
  if (m < BigInt(3)) m = BigInt(3);
  return m;
}

TEST(MultiExpTest, MatchesNaiveProductRandomized) {
  Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    const int bits = 128 + static_cast<int>(rng.NextBelow(700));
    const BigInt m = OddModulus(bits, rng);
    auto ctx = MontgomeryContext::Create(m).value();
    const size_t t = 1 + rng.NextBelow(12);
    std::vector<BigInt> bases(t), exps(t);
    for (size_t i = 0; i < t; ++i) {
      bases[i] = BigInt::RandomBelow(m, rng);
      exps[i] = BigInt::Random(static_cast<int>(rng.NextBelow(300)), rng);
    }
    EXPECT_EQ(MultiExp(bases, exps, ctx).value(), NaiveProduct(bases, exps, m))
        << "iter " << iter << " t=" << t << " bits=" << bits;
  }
}

TEST(MultiExpTest, SingleBaseDegeneratesToModExp) {
  Rng rng(12);
  const BigInt m = GeneratePrime(256, rng).value();
  auto ctx = MontgomeryContext::Create(m).value();
  const BigInt base = BigInt::RandomBelow(m, rng);
  const BigInt exp = BigInt::Random(200, rng);
  EXPECT_EQ(MultiExp({base}, {exp}, ctx).value(),
            ModExp(base, exp, m).value());
}

TEST(MultiExpTest, ZeroAndMixedExponents) {
  Rng rng(13);
  const BigInt m = OddModulus(256, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  std::vector<BigInt> bases = {BigInt::RandomBelow(m, rng),
                               BigInt::RandomBelow(m, rng),
                               BigInt::RandomBelow(m, rng)};
  // All-zero exponents: the empty product.
  EXPECT_EQ(MultiExp(bases, {BigInt(0), BigInt(0), BigInt(0)}, ctx).value(),
            BigInt(1).Mod(m));
  // Mixed zero / one / large.
  std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt::Random(180, rng)};
  EXPECT_EQ(MultiExp(bases, exps, ctx).value(), NaiveProduct(bases, exps, m));
}

TEST(MultiExpTest, RejectsBadInput) {
  Rng rng(14);
  const BigInt m = OddModulus(192, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  const BigInt b = BigInt::RandomBelow(m, rng);
  EXPECT_FALSE(MultiExp({}, {}, ctx).ok());
  EXPECT_FALSE(MultiExp({b}, {BigInt(1), BigInt(2)}, ctx).ok());
  EXPECT_FALSE(MultiExp({b}, {BigInt(-3)}, ctx).ok());
  EXPECT_FALSE(MultiExpEngine::Create(nullptr, {b}, 1, 1).ok());
  EXPECT_FALSE(MultiExpEngine::Create(&ctx, {b}, -1, 1).ok());
}

TEST(MultiExpTest, EngineReuseAcrossRows) {
  // The engine's tables are built once; many Eval calls against the same
  // bases must all match the naive product (the m-row amortization of
  // Theorem 3.1).
  Rng rng(15);
  const BigInt m = OddModulus(512, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  const size_t t = 8;
  std::vector<BigInt> bases(t);
  for (auto& b : bases) b = BigInt::RandomBelow(m, rng);
  auto engine = MultiExpEngine::Create(&ctx, bases, 256, 6).value();
  EXPECT_EQ(engine.size(), t);
  for (int row = 0; row < 6; ++row) {
    std::vector<BigInt> exps(t);
    for (auto& e : exps) e = BigInt::Random(256, rng);
    EXPECT_EQ(engine.Eval(exps).value(), NaiveProduct(bases, exps, m))
        << "row " << row;
  }
}

// --- sliding windows: the computed width, the recoding, the counts --------

TEST(MultiExpTest, EveryWidthMatchesNaiveProduct) {
  // Each (b, E) pair below yields one width: w minimises
  // 2^(w-1) + E*b/(w+1), so E*b <= 6 gives 1, then <= 24, 80, 240 and 672
  // give 2 to 5, and more gives 6. Every row mixes exponent shapes the
  // recoding must get right at that width.
  struct Shape {
    int bits;
    size_t evaluations;
    int window;
  };
  const Shape shapes[] = {{6, 1, 1},   {20, 1, 2},  {16, 4, 3},
                          {200, 1, 4}, {264, 1, 5}, {264, 6, 6}};
  Rng rng(20);
  const BigInt m = OddModulus(512, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  std::vector<BigInt> bases(4);
  for (auto& b : bases) b = BigInt::RandomBelow(m, rng);
  for (const Shape& shape : shapes) {
    const int b = shape.bits;
    const int w = shape.window;
    auto engine =
        MultiExpEngine::Create(&ctx, bases, b, shape.evaluations).value();
    ASSERT_EQ(engine.window(), w) << "b " << b << " E " << shape.evaluations;
    const BigInt top = BigInt(1) << (b - 1);
    const std::vector<std::vector<BigInt>> rows = {
        // 0, 1, a lone top bit, and all b bits set.
        {BigInt(0), BigInt(1), top, (top << 1) - BigInt(1)},
        // 1 0^w 1: the first window, 1 0^(w-1), must be trimmed to 1.
        // Then lengths that differ within the row, one longer than b.
        {(BigInt(1) << (w + 1)) + BigInt(1), BigInt::Random(b / 2 + 1, rng),
         BigInt::Random(b, rng), BigInt::Random(b + 37, rng)},
        {BigInt::Random(b, rng), BigInt::Random(3, rng),
         BigInt::Random(2 * b + 5, rng), BigInt(0)},
    };
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(engine.Eval(rows[r]).value(), NaiveProduct(bases, rows[r], m))
          << "w " << w << " row " << r;
    }
  }
}

TEST(MultiExpTest, WidthRulePinnedAtPaperShapes) {
  // Paper defaults (1024-bit keys, delta' = 101, omega = 6): PPGNN's rows
  // of packed answers (b = 264, E = m = 1); PPGNN-OPT's phase 1 (b = 264,
  // E = omega * m = 6) and phase 2 over 2048-bit phase-1 ciphertexts
  // (b = 2048, E = m = 1).
  Rng rng(21);
  const BigInt m = OddModulus(256, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  const std::vector<BigInt> base = {BigInt::RandomBelow(m, rng)};
  EXPECT_EQ(MultiExpEngine::Create(&ctx, base, 264, 1).value().window(), 5);
  EXPECT_EQ(MultiExpEngine::Create(&ctx, base, 264, 6).value().window(), 6);
  EXPECT_EQ(MultiExpEngine::Create(&ctx, base, 2048, 1).value().window(), 6);
}

TEST(MultiExpTest, CountsSquaresAndProductsOfOneEval) {
  // b = 10 and E = 5 give w = 3, so each base's table is x, x^3, x^5, x^7:
  // ToMont, one squaring for x^2 and three products, 5 per base.
  //
  // Recoding, left to right, w = 3:
  //   711 = 1011000111b: bits 9..7 are 101 -> digit 5 at bit 7; bits 6..4
  //     are 100, trimmed to 1 -> digit 1 at bit 6; bits 5..3 are zero;
  //     bits 2..0 are 111 -> digit 7 at bit 0. 5*2^7 + 2^6 + 7 = 711.
  //   9 = 1001b: bits 3..1 are 100, trimmed to 1 -> digit 1 at bit 3;
  //     bits 2..1 are zero; bit 0 -> digit 1 at bit 0. 2^3 + 1 = 9.
  // The chain starts at the highest digit, x0^5 at bit 7, with no product:
  // 7 squarings take it to bit 0, and the other four digits (x0 at 6,
  // x1 at 3, x0^7 and x1 at 0) are one product each. FromMont is one more:
  // 7 + 4 + 1 = 12.
  Rng rng(22);
  const BigInt m = OddModulus(256, rng);
  auto ctx = MontgomeryContext::Create(m).value();
  const std::vector<BigInt> bases = {BigInt::RandomBelow(m, rng),
                                     BigInt::RandomBelow(m, rng)};
  const std::vector<BigInt> exps = {BigInt(711), BigInt(9)};

  const uint64_t before_create = MontgomeryContext::product_count();
  auto engine = MultiExpEngine::Create(&ctx, bases, 10, 5).value();
  ASSERT_EQ(engine.window(), 3);
  EXPECT_EQ(MontgomeryContext::product_count() - before_create, 10u);

  const uint64_t before_eval = MontgomeryContext::product_count();
  const BigInt got = engine.Eval(exps).value();
  EXPECT_EQ(MontgomeryContext::product_count() - before_eval, 12u);
  EXPECT_EQ(got, NaiveProduct(bases, exps, m));
}

// --- DotProduct engine vs the naive ScalarMul/Add chain -------------------

TEST(MultiExpTest, DotProductBitIdenticalToNaiveRandomized) {
  Rng rng(16);
  const KeyPair keys = GenerateKeyPair(256, rng).value();
  const Encryptor enc(keys.pub);
  for (int level = 1; level <= 2; ++level) {
    for (int iter = 0; iter < 4; ++iter) {
      const size_t t = 1 + rng.NextBelow(10);  // delta'
      std::vector<Ciphertext> v(t);
      std::vector<BigInt> x(t);
      for (size_t i = 0; i < t; ++i) {
        v[i] = enc.Encrypt(BigInt::Random(40, rng), rng, level).value();
        // Mix of zero and random scalars, level-appropriate widths.
        x[i] = rng.NextBelow(4) == 0
                   ? BigInt(0)
                   : BigInt::Random(level == 1 ? 60 : 512, rng);
      }
      const Ciphertext fast = enc.DotProduct(x, v).value();
      const Ciphertext naive = enc.DotProductNaive(x, v).value();
      EXPECT_EQ(fast.value, naive.value)
          << "level " << level << " iter " << iter << " t=" << t;
      EXPECT_EQ(fast.level, naive.level);
    }
  }
}

TEST(MultiExpTest, DotEngineSharedAcrossRowsMatchesNaive) {
  Rng rng(17);
  const KeyPair keys = GenerateKeyPair(256, rng).value();
  const Encryptor enc(keys.pub);
  const size_t t = 6;
  std::vector<Ciphertext> v(t);
  for (auto& c : v) c = enc.Encrypt(BigInt::Random(30, rng), rng).value();
  auto engine = enc.MakeDotEngine(v, 60, 5).value();
  EXPECT_EQ(engine.size(), t);
  EXPECT_EQ(engine.level(), 1);
  for (int row = 0; row < 5; ++row) {
    std::vector<BigInt> x(t);
    for (auto& xi : x) xi = BigInt::Random(60, rng);
    const Ciphertext fast = engine.Dot(x).value();
    const Ciphertext naive = enc.DotProductNaive(x, v).value();
    EXPECT_EQ(fast.value, naive.value) << "row " << row;
  }
}

TEST(MultiExpTest, DotEngineRejectsBadInput) {
  Rng rng(18);
  const KeyPair keys = GenerateKeyPair(128, rng).value();
  const Encryptor enc(keys.pub);
  EXPECT_FALSE(enc.MakeDotEngine({}, 2, 1).ok());
  std::vector<Ciphertext> mixed = {
      enc.Encrypt(BigInt(1), rng, 1).value(),
      enc.Encrypt(BigInt(2), rng, 2).value(),
  };
  EXPECT_FALSE(enc.MakeDotEngine(mixed, 2, 1).ok());
  std::vector<Ciphertext> v = {enc.Encrypt(BigInt(5), rng).value()};
  auto engine = enc.MakeDotEngine(v, 2, 2).value();
  EXPECT_FALSE(engine.Dot({BigInt(1), BigInt(2)}).ok());  // dimension
  EXPECT_FALSE(engine.Dot({BigInt(-1)}).ok());            // negative scalar
}

TEST(MultiExpTest, HotPathBuildsNoNewContexts) {
  // Context derivation (R^2 mod n) must happen only at Encryptor
  // construction, never per homomorphic call.
  Rng rng(19);
  const KeyPair keys = GenerateKeyPair(256, rng).value();
  const Encryptor enc(keys.pub);
  std::vector<Ciphertext> v(4);
  for (auto& c : v) c = enc.Encrypt(BigInt::Random(30, rng), rng).value();

  const uint64_t before = MontgomeryContext::created_count();
  auto engine = enc.MakeDotEngine(v, 60, 3).value();
  for (int row = 0; row < 3; ++row) {
    std::vector<BigInt> x(v.size());
    for (auto& xi : x) xi = BigInt::Random(60, rng);
    ASSERT_TRUE(engine.Dot(x).ok());
    ASSERT_TRUE(enc.DotProduct(x, v).ok());
    ASSERT_TRUE(enc.ScalarMul(x[0], v[0]).ok());
    ASSERT_TRUE(enc.Add(v[0], v[1]).ok());
  }
  EXPECT_EQ(MontgomeryContext::created_count(), before);
}

}  // namespace
}  // namespace ppgnn
