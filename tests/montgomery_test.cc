#include "bigint/montgomery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bigint/modular.h"
#include "bigint/montgomery_kernel.h"
#include "bigint/prime.h"
#include "common/random.h"

namespace ppgnn {
namespace {

// The plain multiply-and-divide ladder, kept as the differential
// reference (ModExp itself now routes odd moduli through Montgomery).
BigInt LadderModExp(const BigInt& base, const BigInt& exponent,
                    const BigInt& m) {
  BigInt acc(1);
  BigInt b = base.Mod(m);
  for (int i = exponent.BitLength() - 1; i >= 0; --i) {
    acc = ModMul(acc, acc, m);
    if (exponent.GetBit(i)) acc = ModMul(acc, b, m);
  }
  return acc;
}

TEST(MontgomeryTest, CreateRejectsBadModuli) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(0)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(2)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(100)).ok());  // even
  EXPECT_TRUE(MontgomeryContext::Create(BigInt(3)).ok());
}

TEST(MontgomeryTest, RoundTripThroughDomain) {
  Rng rng(1);
  for (int bits : {64, 192, 512, 1024}) {
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    if (m < BigInt(3)) m = BigInt(3);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int i = 0; i < 10; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      EXPECT_EQ(ctx.FromMont(ctx.ToMont(a)), a) << bits;
    }
  }
}

TEST(MontgomeryTest, MontMulMatchesPlainModMul) {
  Rng rng(2);
  for (int bits : {64, 128, 320, 1024, 2048}) {
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    if (m < BigInt(3)) m = BigInt(3);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int i = 0; i < 15; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      BigInt b = BigInt::RandomBelow(m, rng);
      BigInt got = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
      EXPECT_EQ(got, ModMul(a, b, m)) << bits << " iter " << i;
    }
  }
}

TEST(MontgomeryTest, EdgeOperands) {
  Rng rng(3);
  BigInt m = GeneratePrime(256, rng).value();
  auto ctx = MontgomeryContext::Create(m).value();
  BigInt zero(0), one(1), top = m - BigInt(1);
  EXPECT_EQ(ctx.FromMont(ctx.MontMul(ctx.ToMont(zero), ctx.ToMont(top))),
            BigInt(0));
  EXPECT_EQ(ctx.FromMont(ctx.MontMul(ctx.ToMont(one), ctx.ToMont(top))), top);
  // (m-1)^2 mod m = 1.
  EXPECT_EQ(ctx.FromMont(ctx.MontMul(ctx.ToMont(top), ctx.ToMont(top))),
            BigInt(1));
}

TEST(MontgomeryTest, ModExpMatchesLadderRandomized) {
  Rng rng(4);
  for (int iter = 0; iter < 25; ++iter) {
    int bits = 128 + static_cast<int>(rng.NextBelow(900));
    BigInt m = BigInt::Random(bits, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    BigInt base = BigInt::Random(bits + 20, rng);
    BigInt exp = BigInt::Random(160, rng);
    auto ctx = MontgomeryContext::Create(m).value();
    EXPECT_EQ(ctx.ModExp(base, exp).value(), LadderModExp(base, exp, m))
        << "iter " << iter;
  }
}

TEST(MontgomeryTest, ModExpEdgeCases) {
  Rng rng(5);
  BigInt m = GeneratePrime(192, rng).value();
  auto ctx = MontgomeryContext::Create(m).value();
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(0)).value(), BigInt(1));
  EXPECT_EQ(ctx.ModExp(BigInt(0), BigInt(17)).value(), BigInt(0));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(1)).value(), BigInt(5));
  EXPECT_FALSE(ctx.ModExp(BigInt(2), BigInt(-3)).ok());
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(ctx.ModExp(BigInt(123456789), m - BigInt(1)).value(), BigInt(1));
}

TEST(MontgomeryTest, ModExpRunsAnExactProductCount) {
  // ToMont, the 14 window-table products and FromMont cost 16. The top
  // 4-bit window's entry seeds the accumulator; each lower window costs
  // four squarings, plus one product when it is nonzero.
  Rng rng(7);
  const BigInt m = GeneratePrime(192, rng).value();
  const auto ctx = MontgomeryContext::Create(m).value();
  const BigInt one(1);
  const struct {
    BigInt e;
    uint64_t products;
  } cases[] = {
      {one, 16},                // the top window only
      {BigInt(0xF), 16},
      {BigInt(0x10), 20},       // one zero window below the top
      {BigInt(0x11), 21},       // one nonzero window below the top
      {(one << 64) - one, 91},  // 16 windows, all nonzero
      {one << 100, 116},        // 26 windows, the 25 below the top zero
  };
  for (const auto& c : cases) {
    const uint64_t before = MontgomeryContext::product_count();
    const BigInt got = ctx.ModExp(BigInt(3), c.e).value();
    EXPECT_EQ(MontgomeryContext::product_count() - before, c.products)
        << c.e.ToHex();
    EXPECT_EQ(got, LadderModExp(BigInt(3), c.e, m)) << c.e.ToHex();
  }
}

TEST(MontgomeryTest, PublicModExpUsesItTransparently) {
  // ModExp routes odd moduli >= 128 bits through Montgomery; results must
  // be identical to the ladder.
  Rng rng(6);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt m = BigInt::Random(512, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    BigInt base = BigInt::Random(512, rng);
    BigInt exp = BigInt::Random(256, rng);
    EXPECT_EQ(ModExp(base, exp, m).value(), LadderModExp(base, exp, m));
  }
  // Even moduli still work via the ladder path.
  BigInt even = BigInt::Random(256, rng);
  if (even.IsOdd()) even = even + BigInt(1);
  BigInt base = BigInt::Random(200, rng);
  BigInt exp = BigInt::Random(100, rng);
  EXPECT_EQ(ModExp(base, exp, even).value(), LadderModExp(base, exp, even));
}

TEST(MontgomeryTest, WorksForPaillierShapedModuli) {
  // N^2 and N^3 for an RSA-style N: the exact moduli PPGNN exercises.
  Rng rng(7);
  BigInt p = GeneratePrime(128, rng).value();
  BigInt q = GeneratePrime(128, rng).value();
  BigInt n = p * q;
  for (const BigInt& m : {n * n, n * n * n}) {
    auto ctx = MontgomeryContext::Create(m).value();
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::Random(200, rng);
    EXPECT_EQ(ctx.ModExp(base, exp).value(), LadderModExp(base, exp, m));
  }
}

// ---- the kernel seam: both rows, the dispatcher and guard limbs ----

enum class Row { kPortable, kAdx };

// The row under test, or nullptr when this CPU cannot run it. Asks the
// CPU directly rather than through the dispatcher it checks.
internal::MontRow RunnableRow(Row row) {
  if (row == Row::kPortable) return &internal::MontRowPortable;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx")) {
    return &internal::MontRowAdx;
  }
#endif
  return nullptr;
}

TEST(MontgomeryKernelTest, DispatcherPicksAdxRowWhereCpuHasBmi2AndAdx) {
  // A broken selector would otherwise only show up as a slower run.
  internal::MontRow adx = RunnableRow(Row::kAdx);
  if (adx != nullptr) {
    EXPECT_EQ(internal::DispatchedMontRow(), adx);
  } else {
    EXPECT_EQ(internal::DispatchedMontRow(), &internal::MontRowPortable);
  }
}

// Limbs around every buffer the kernel writes. ASan does not see the
// loads and stores inside inline asm, so the tests check these instead.
constexpr uint64_t kGuard = 0xa5c3'5a3c'0ff0'f00fULL;
constexpr size_t kGuardLimbs = 4;

// `len` limbs at data() + kGuardLimbs, with guard limbs on both sides.
class Guarded {
 public:
  explicit Guarded(size_t len) : buf_(len + 2 * kGuardLimbs, kGuard) {}
  uint64_t* data() { return buf_.data() + kGuardLimbs; }
  std::vector<uint64_t> limbs() const {
    return std::vector<uint64_t>(buf_.begin() + kGuardLimbs,
                                 buf_.end() - kGuardLimbs);
  }
  bool guards_intact() const {
    for (size_t i = 0; i < kGuardLimbs; ++i) {
      if (buf_[i] != kGuard || buf_[buf_.size() - 1 - i] != kGuard) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<uint64_t> buf_;
};

std::vector<uint64_t> RandomLimbs(size_t len, Rng& rng) {
  std::vector<uint64_t> out(len);
  for (uint64_t& limb : out) limb = rng.NextUint64();
  return out;
}

class MontRowTest : public ::testing::TestWithParam<Row> {
 protected:
  void SetUp() override {
    row_ = RunnableRow(GetParam());
    if (row_ == nullptr) GTEST_SKIP() << "CPU lacks BMI2 or ADX; no ADX row";
  }
  internal::MontRow row_ = nullptr;
};

TEST_P(MontRowTest, RowAddsProductAndKeepsGuardLimbs) {
  // Every length through the 4-limb unroll and its tail, plus protocol
  // widths; all-ones limbs drive both carry chains to their maximum.
  // Trial 0 saturates every limb and v; trial 1 multiplies by zero.
  Rng rng(8);
  constexpr uint64_t kOnes = ~uint64_t{0};
  for (size_t len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 31, 48, 64}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<uint64_t> ones(len, kOnes);
      const auto t0 = trial == 0 ? ones : RandomLimbs(len, rng);
      const auto u0 = trial == 0 ? ones : RandomLimbs(len, rng);
      const uint64_t v = trial == 0 ? kOnes : trial == 1 ? 0 : rng.NextUint64();
      Guarded t(len), u(len);
      std::copy(t0.begin(), t0.end(), t.data());
      std::copy(u0.begin(), u0.end(), u.data());

      const uint64_t carry = row_(t.data(), u.data(), v, len);
      ASSERT_TRUE(t.guards_intact()) << "len " << len;
      ASSERT_TRUE(u.guards_intact()) << "len " << len;
      EXPECT_EQ(u.limbs(), u0) << "the row wrote its multiplicand";

      const BigInt want = BigInt::FromLimbs(t0) +
                          BigInt::FromLimbs(u0) * BigInt::FromLimbs({v});
      const BigInt got =
          BigInt::FromLimbs(t.limbs()) +
          (BigInt::FromLimbs({carry}) << static_cast<int>(64 * len));
      EXPECT_EQ(got, want) << "len " << len << " trial " << trial;
    }
  }
}

TEST_P(MontRowTest, MontMulLimbsMatchesContextAndKeepsGuardLimbs) {
  Rng rng(9);
  for (size_t L = 1; L <= 17; ++L) {
    std::vector<uint64_t> n = RandomLimbs(L, rng);
    n[0] |= 1;
    n[L - 1] |= uint64_t{1} << 63;
    const BigInt m = BigInt::FromLimbs(n);
    const MontgomeryContext ctx = MontgomeryContext::Create(m).value();
    for (int iter = 0; iter < 8; ++iter) {
      const BigInt a = iter == 0 ? m - BigInt(1) : BigInt::RandomBelow(m, rng);
      const BigInt b = iter == 0 ? m - BigInt(1) : BigInt::RandomBelow(m, rng);
      std::vector<uint64_t> am = ctx.ToMont(a), bm = ctx.ToMont(b);
      Guarded acc(2 * L + 1), prod(L);
      std::fill(acc.data(), acc.data() + 2 * L + 1, 0);
      internal::MontMulLimbs(row_, am.data(), bm.data(), n.data(),
                             internal::NegInverseLimb(n[0]), L, acc.data(),
                             prod.data());
      ASSERT_TRUE(acc.guards_intact()) << "L " << L;
      ASSERT_TRUE(prod.guards_intact()) << "L " << L;
      EXPECT_EQ(prod.limbs(), ctx.MontMul(am, bm)) << "L " << L;
      EXPECT_EQ(ctx.FromMont(prod.limbs()), ModMul(a, b, m)) << "L " << L;

      // The context's in-place product (on the dispatched row): `out`
      // aliases the left operand on even iterations, the right on odd.
      Guarded in_place(L), other(L), scratch(ctx.scratch_limbs());
      uint64_t* lhs = iter % 2 == 0 ? in_place.data() : other.data();
      uint64_t* rhs = iter % 2 == 0 ? other.data() : in_place.data();
      std::copy(am.begin(), am.end(), lhs);
      std::copy(bm.begin(), bm.end(), rhs);
      ctx.MontMulInto(lhs, rhs, in_place.data(), scratch.data());
      ASSERT_TRUE(in_place.guards_intact()) << "L " << L;
      ASSERT_TRUE(scratch.guards_intact()) << "L " << L;
      EXPECT_EQ(in_place.limbs(), prod.limbs()) << "L " << L;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, MontRowTest, ::testing::Values(Row::kPortable, Row::kAdx),
    [](const ::testing::TestParamInfo<Row>& info) {
      return info.param == Row::kPortable ? "Portable" : "Adx";
    });

}  // namespace
}  // namespace ppgnn
