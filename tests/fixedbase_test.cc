#include "bigint/fixedbase.h"

#include <gtest/gtest.h>

#include "bigint/modular.h"
#include "common/random.h"

namespace ppgnn {
namespace {

BigInt OddModulus(int bits, Rng& rng) {
  BigInt mod = BigInt::Random(bits, rng);
  if (!mod.IsOdd()) mod = mod + BigInt(1);
  return mod;
}

TEST(FixedBaseTest, MatchesGenericLadderAcrossWidths) {
  Rng rng(1);
  for (int window : {0, 1, 2, 4, 5, 8}) {
    BigInt mod = OddModulus(512, rng);
    BigInt base = BigInt::RandomBelow(mod, rng);
    if (base.IsZero()) base = BigInt(2);
    auto engine = FixedBaseEngine::Create(base, mod, 600, window).value();
    for (int i = 0; i < 8; ++i) {
      BigInt e = BigInt::Random(1 + static_cast<int>(rng.NextBelow(600)), rng);
      EXPECT_EQ(engine.Pow(e).value(), ModExp(base, e, mod).value())
          << "window " << window;
    }
  }
}

TEST(FixedBaseTest, EdgeExponents) {
  Rng rng(2);
  BigInt mod = OddModulus(256, rng);
  BigInt base = BigInt(7);
  auto engine = FixedBaseEngine::Create(base, mod, 128).value();
  EXPECT_EQ(engine.Pow(BigInt(0)).value(), BigInt(1).Mod(mod));
  EXPECT_EQ(engine.Pow(BigInt(1)).value(), base.Mod(mod));
  EXPECT_EQ(engine.Pow(BigInt(2)).value(), ModMul(base, base, mod));
  // Exactly at capacity (the rounded-up digit boundary).
  BigInt top = (BigInt(1) << engine.max_exponent_bits()) - BigInt(1);
  EXPECT_EQ(engine.Pow(top).value(), ModExp(base, top, mod).value());
  EXPECT_FALSE(engine.Pow(BigInt(-1)).ok());
}

TEST(FixedBaseTest, OverCapacityExponentFallsBackBitIdentically) {
  Rng rng(3);
  BigInt mod = OddModulus(384, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  auto engine = FixedBaseEngine::Create(base, mod, 64).value();
  BigInt wide = BigInt::Random(500, rng);
  ASSERT_GT(wide.BitLength(), engine.max_exponent_bits());
  EXPECT_EQ(engine.Pow(wide).value(), ModExp(base, wide, mod).value());
}

TEST(FixedBaseTest, CapacityRoundsUpToWholeDigits) {
  Rng rng(4);
  BigInt mod = OddModulus(128, rng);
  auto engine = FixedBaseEngine::Create(BigInt(3), mod, 130, 4).value();
  EXPECT_EQ(engine.window(), 4);
  EXPECT_EQ(engine.max_exponent_bits(), 132);  // 33 digits of 4 bits
  EXPECT_EQ(engine.table_entries(), 33u * 15u);
  EXPECT_GT(engine.table_bytes(), 0u);
}

TEST(FixedBaseTest, RejectsDegenerateInputs) {
  Rng rng(5);
  BigInt mod = OddModulus(128, rng);
  EXPECT_FALSE(FixedBaseEngine::Create(BigInt(2), mod, 0).ok());
  EXPECT_FALSE(FixedBaseEngine::Create(BigInt(2), mod, 64, 9).ok());
  EXPECT_FALSE(FixedBaseEngine::Create(BigInt(0), mod, 64).ok());
  EXPECT_FALSE(FixedBaseEngine::Create(BigInt(2), BigInt(8), 64).ok());  // even
}

TEST(FixedBaseTest, PowDomainComposesWithContext) {
  Rng rng(6);
  BigInt mod = OddModulus(256, rng);
  BigInt base = BigInt(12345);
  auto engine = FixedBaseEngine::Create(base, mod, 128).value();
  BigInt e1 = BigInt::Random(100, rng);
  BigInt e2 = BigInt::Random(100, rng);
  auto d1 = engine.PowDomain(e1).value();
  auto d2 = engine.PowDomain(e2).value();
  BigInt product = engine.context().FromMont(engine.context().MontMul(d1, d2));
  EXPECT_EQ(product, ModExp(base, e1 + e2, mod).value());
}

TEST(FixedBaseTest, SharedRegistryReusesEnginesAndWidens) {
  Rng rng(7);
  BigInt mod = OddModulus(320, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  const uint64_t created_before = FixedBaseEngine::created_count();
  auto a = SharedFixedBaseEngine(base, mod, 256);
  ASSERT_NE(a, nullptr);
  // Same key shape: a cache hit, no new table build.
  auto b = SharedFixedBaseEngine(base, mod, 200);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(FixedBaseEngine::created_count(), created_before + 1);
  // Wider demand: rebuilt, and the old shared_ptr stays valid.
  auto c = SharedFixedBaseEngine(base, mod, 512);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a.get(), c.get());
  EXPECT_GE(c->max_exponent_bits(), 512);
  BigInt e = BigInt::Random(200, rng);
  EXPECT_EQ(a->Pow(e).value(), c->Pow(e).value());
  // Even modulus: no Montgomery context, callers keep their ladder path.
  EXPECT_EQ(SharedFixedBaseEngine(base, BigInt(16), 64), nullptr);
  FixedBaseRegistryStats stats = SharedFixedBaseRegistryStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 2u);
  EXPECT_GE(stats.engines, 1u);
  EXPECT_GT(stats.table_bytes, 0u);
}

TEST(FixedBaseTest, SharedRegistryKeepsEnginesOnlyWhileHeld) {
  // The registry finds live engines but does not own them: once the last
  // holder lets go, the tables are freed and the next request rebuilds.
  Rng rng(9);
  BigInt mod = OddModulus(320, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  const FixedBaseRegistryStats before = SharedFixedBaseRegistryStats();
  const uint64_t created_before = FixedBaseEngine::created_count();
  auto held = SharedFixedBaseEngine(base, mod, 256);
  ASSERT_NE(held, nullptr);
  const FixedBaseRegistryStats during = SharedFixedBaseRegistryStats();
  EXPECT_EQ(during.engines, before.engines + 1);
  EXPECT_EQ(during.table_bytes, before.table_bytes + held->table_bytes());
  held.reset();
  const FixedBaseRegistryStats after = SharedFixedBaseRegistryStats();
  EXPECT_EQ(after.engines, before.engines);
  EXPECT_EQ(after.table_bytes, before.table_bytes);
  auto again = SharedFixedBaseEngine(base, mod, 256);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(FixedBaseEngine::created_count(), created_before + 2);
}

TEST(FixedBaseTest, TableConstructionIsDeterministic) {
  // The tables are a pure function of (base, modulus, window): two
  // engines built independently agree on every evaluation — no ambient
  // entropy is consumed (the determinism lint enforces the same property
  // statically for service-side users).
  Rng rng(8);
  BigInt mod = OddModulus(256, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  auto a = FixedBaseEngine::Create(base, mod, 300, 5).value();
  auto b = FixedBaseEngine::Create(base, mod, 300, 5).value();
  for (int i = 0; i < 5; ++i) {
    BigInt e = BigInt::Random(300, rng);
    EXPECT_EQ(a.Pow(e).value(), b.Pow(e).value());
  }
}

}  // namespace
}  // namespace ppgnn
