#include "bigint/fixedbase.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <utility>
#include <vector>

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
  // Widths that give different shapes: fewer than 8 rows, one block, a
  // short last block (130, 600, 1,088) and whole blocks.
  Rng rng(1);
  for (int width : {1, 7, 8, 9, 64, 130, 600, 1088}) {
    BigInt mod = OddModulus(512, rng);
    BigInt base = BigInt::RandomBelow(mod, rng);
    if (base.IsZero()) base = BigInt(2);
    auto engine = FixedBaseEngine::Create(base, mod, width).value();
    for (int i = 0; i < 8; ++i) {
      BigInt e = BigInt::Random(
          1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(width))),
          rng);
      EXPECT_EQ(engine.Pow(e).value(), ModExp(base, e, mod).value())
          << "width " << width;
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

TEST(FixedBaseTest, LayoutEdgeExponentsMatchGenericLadder) {
  // Exponents with bits only in one part of the comb, at widths whose
  // last block is short: 130 bits (8 rows of 17, blocks of 9 and 8
  // columns) and 1,088 (8 rows of 136, eight blocks of 16 and one of 8),
  // so the top column exists in every block but the last. Each part is
  // tried full and as a random half of its bits.
  Rng rng(12);
  BigInt mod = OddModulus(512, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  const char* const kParts[] = {"last row", "last block", "top column",
                                "every bit"};
  for (int width : {130, 1088}) {
    auto engine = FixedBaseEngine::Create(base, mod, width).value();
    const int rows = engine.rows();
    const int blocks = engine.blocks();
    const int capacity = engine.max_exponent_bits();
    const int a = capacity / rows;
    const int bb = (a + blocks - 1) / blocks;
    for (int part = 0; part < 4; ++part) {
      for (bool full : {true, false}) {
        BigInt e(0);
        for (int p = 0; p < capacity; ++p) {
          const int row = p / a;
          const int column = p % a;
          const bool in_part = part == 0   ? row == rows - 1
                               : part == 1 ? column / bb == blocks - 1
                               : part == 2 ? column % bb == bb - 1
                                           : true;
          if (in_part && (full || rng.NextBelow(2) == 1)) {
            e = e + (BigInt(1) << p);
          }
        }
        if (part == 3 && full) {
          ASSERT_EQ(e.BitLength(), capacity);
        }
        EXPECT_EQ(engine.Pow(e).value(), ModExp(base, e, mod).value())
            << width << " " << kParts[part] << (full ? " full" : " half");
      }
    }
    // One bit over capacity: the generic ladder on the same context.
    const BigInt over = (BigInt(1) << capacity) + BigInt::Random(capacity, rng);
    ASSERT_EQ(over.BitLength(), capacity + 1);
    EXPECT_EQ(engine.Pow(over).value(), ModExp(base, over, mod).value())
        << width;
  }
}

TEST(FixedBaseTest, ConcurrentEvaluationsOfOneEngine) {
  // Four threads evaluate one engine at once. Each call runs on its own
  // accumulator and scratch; the TSan tier checks that no evaluation
  // writes state another one reads.
  Rng rng(13);
  BigInt mod = OddModulus(512, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  const FixedBaseEngine engine =
      FixedBaseEngine::Create(base, mod, 512).value();
  constexpr size_t kThreads = 4;
  constexpr size_t kCalls = 16;
  std::vector<BigInt> exponents;
  for (size_t i = 0; i < kThreads * kCalls; ++i) {
    exponents.push_back(BigInt::Random(512, rng));
  }
  std::vector<BigInt> results(exponents.size());
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t i = t; i < exponents.size(); i += kThreads) {
        Result<BigInt> r = engine.Pow(exponents[i]);
        if (r.ok()) results[i] = std::move(r).value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < exponents.size(); ++i) {
    EXPECT_EQ(results[i], ModExp(base, exponents[i], mod).value()) << i;
  }
}

TEST(FixedBaseTest, CapacityRoundsUpToWholeDigits) {
  // 130 bits: h = 8 rows of a = 17 bits, v = 2 blocks of 9 columns.
  Rng rng(4);
  BigInt mod = OddModulus(128, rng);
  auto engine = FixedBaseEngine::Create(BigInt(3), mod, 130).value();
  EXPECT_EQ(engine.rows(), 8);
  EXPECT_EQ(engine.blocks(), 2);
  EXPECT_EQ(engine.max_exponent_bits(), 136);  // 8 rows of 17 bits
  EXPECT_EQ(engine.table_entries(), 2u * 255u);
  EXPECT_EQ(engine.table_bytes(), 2u * 255u * 2u * sizeof(uint64_t));
}

TEST(FixedBaseTest, ShapeRulePinnedAtPaperShapes) {
  // h = min(8, bits), a = ceil(bits / h), v = ceil(a / 16): the 256- and
  // 512-bit halves of 512- and 1024-bit keys, and the 1,088-bit public
  // exponent of a 1024-bit key.
  Rng rng(11);
  BigInt mod = OddModulus(128, rng);
  const struct {
    int bits, rows, blocks, capacity;
  } shapes[] = {{256, 8, 2, 256}, {512, 8, 4, 512}, {1088, 8, 9, 1088}};
  for (const auto& shape : shapes) {
    auto engine = FixedBaseEngine::Create(BigInt(3), mod, shape.bits).value();
    EXPECT_EQ(engine.rows(), shape.rows) << shape.bits;
    EXPECT_EQ(engine.blocks(), shape.blocks) << shape.bits;
    EXPECT_EQ(engine.max_exponent_bits(), shape.capacity) << shape.bits;
    EXPECT_EQ(engine.table_entries(), static_cast<size_t>(shape.blocks) * 255)
        << shape.bits;
  }
}

TEST(FixedBaseTest, RejectsDegenerateInputs) {
  Rng rng(5);
  BigInt mod = OddModulus(128, rng);
  EXPECT_FALSE(FixedBaseEngine::Create(BigInt(2), mod, 0).ok());
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

TEST(FixedBaseTest, PowDomainRunsOneProductPerNonzeroDigitAfterTheFirst) {
  // 256 bits: h = 8 rows of a = 32 bits, v = 2 blocks of bb = 16 columns,
  // so bit p is row p / 32, block (p % 32) / 16, column p % 16. A digit
  // is the 8-bit value of one (column, block). The chain squares once per
  // column below the top nonzero one; the first nonzero digit's entry
  // seeds the accumulator and each later one costs one product.
  Rng rng(10);
  BigInt mod = OddModulus(256, rng);
  auto engine = FixedBaseEngine::Create(BigInt(5), mod, 256).value();
  const BigInt one(1);
  const struct {
    BigInt e;
    uint64_t squarings, digits;
  } cases[] = {
      {one, 0, 1},                       // row 0, block 0, column 0
      {one << 255, 15, 1},               // row 7, block 1, column 15
      {(one << 15) + one, 15, 2},        // columns 15 and 0 of block 0
      {(one << 32) + one, 0, 1},         // rows 0 and 1 share digit (0, 0)
      {(one << 16) + one, 0, 2},         // column 0 of both blocks
      {BigInt(0xF0), 7, 4},              // columns 4..7 of block 0
      {(one << 256) - one, 15, 32},      // every digit
  };
  for (const auto& c : cases) {
    const uint64_t before = MontgomeryContext::product_count();
    const std::vector<uint64_t> domain = engine.PowDomain(c.e).value();
    EXPECT_EQ(MontgomeryContext::product_count() - before,
              c.squarings + c.digits - 1)
        << c.e.ToHex();
    EXPECT_EQ(engine.context().FromMont(domain),
              ModExp(BigInt(5), c.e, mod).value())
        << c.e.ToHex();
  }
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
  // Even modulus: no Montgomery context, so no engine.
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
  // The tables are a pure function of (base, modulus, width): two
  // engines built independently agree on every evaluation — no ambient
  // entropy is consumed (the determinism lint enforces the same property
  // statically for service-side users).
  Rng rng(8);
  BigInt mod = OddModulus(256, rng);
  BigInt base = BigInt::RandomBelow(mod, rng) + BigInt(2);
  auto a = FixedBaseEngine::Create(base, mod, 300).value();
  auto b = FixedBaseEngine::Create(base, mod, 300).value();
  for (int i = 0; i < 5; ++i) {
    BigInt e = BigInt::Random(300, rng);
    EXPECT_EQ(a.Pow(e).value(), b.Pow(e).value());
  }
}

}  // namespace
}  // namespace ppgnn
