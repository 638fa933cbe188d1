// Differential tests: our from-scratch BigInt against GMP. GMP is a
// test-only dependency — the ppgnn library itself never links it. This is
// the strongest evidence that the arithmetic substrate underneath the
// Paillier cryptosystem is correct.

#include <gmp.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/fixedbase.h"
#include "bigint/modular.h"
#include "bigint/montgomery_kernel.h"
#include "bigint/multiexp.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/paillier.h"

namespace ppgnn {
namespace {

// Converts our BigInt to a GMP integer via hex.
class GmpInt {
 public:
  GmpInt() { mpz_init(v_); }
  explicit GmpInt(const BigInt& b) {
    mpz_init(v_);
    std::string hex = b.ToHex();
    mpz_set_str(v_, hex.c_str(), 16);
  }
  GmpInt(const GmpInt&) = delete;
  GmpInt& operator=(const GmpInt&) = delete;
  ~GmpInt() { mpz_clear(v_); }

  std::string ToHex() const {
    char* s = mpz_get_str(nullptr, 16, v_);
    std::string out(s);
    free(s);
    return out;
  }

  mpz_t v_;
};


BigInt RandomSigned(int bits, Rng& rng) {
  BigInt v = BigInt::Random(bits, rng);
  return rng.NextBernoulli(0.5) ? v.Negated() : v;
}

TEST(GmpDiffTest, Addition) {
  Rng rng(1);
  for (int iter = 0; iter < 200; ++iter) {
    int bits = 1 + static_cast<int>(rng.NextBelow(3000));
    BigInt a = RandomSigned(bits, rng);
    BigInt b = RandomSigned(1 + static_cast<int>(rng.NextBelow(3000)), rng);
    GmpInt ga(a), gb(b), out;
    mpz_add(out.v_, ga.v_, gb.v_);
    EXPECT_EQ((a + b).ToHex(), out.ToHex());
  }
}

TEST(GmpDiffTest, Subtraction) {
  Rng rng(2);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = RandomSigned(1 + static_cast<int>(rng.NextBelow(2500)), rng);
    BigInt b = RandomSigned(1 + static_cast<int>(rng.NextBelow(2500)), rng);
    GmpInt ga(a), gb(b), out;
    mpz_sub(out.v_, ga.v_, gb.v_);
    EXPECT_EQ((a - b).ToHex(), out.ToHex());
  }
}

TEST(GmpDiffTest, MultiplicationIncludingKaratsubaSizes) {
  Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    // Mix sizes around the 1536-bit Karatsuba threshold.
    int bits_a = 1 + static_cast<int>(rng.NextBelow(4000));
    int bits_b = 1 + static_cast<int>(rng.NextBelow(4000));
    BigInt a = RandomSigned(bits_a, rng);
    BigInt b = RandomSigned(bits_b, rng);
    GmpInt ga(a), gb(b), out;
    mpz_mul(out.v_, ga.v_, gb.v_);
    EXPECT_EQ((a * b).ToHex(), out.ToHex());
  }
}

TEST(GmpDiffTest, DivisionTruncated) {
  Rng rng(4);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = RandomSigned(1 + static_cast<int>(rng.NextBelow(3000)), rng);
    BigInt b = RandomSigned(1 + static_cast<int>(rng.NextBelow(1500)), rng);
    if (b.IsZero()) continue;
    GmpInt ga(a), gb(b), q, r;
    mpz_tdiv_qr(q.v_, r.v_, ga.v_, gb.v_);  // truncated like C++
    auto qr = BigInt::DivMod(a, b).value();
    EXPECT_EQ(qr.first.ToHex(), q.ToHex());
    EXPECT_EQ(qr.second.ToHex(), r.ToHex());
  }
}

TEST(GmpDiffTest, ModExp) {
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    BigInt base = BigInt::Random(1024, rng);
    BigInt exp = BigInt::Random(512, rng);
    BigInt mod = BigInt::Random(1024, rng) + BigInt(2);
    GmpInt gb(base), ge(exp), gm(mod), out;
    mpz_powm(out.v_, gb.v_, ge.v_, gm.v_);
    EXPECT_EQ(ModExp(base, exp, mod).value().ToHex(), out.ToHex());
  }
}

TEST(GmpDiffTest, MultiExp) {
  // Straus simultaneous multi-exponentiation vs a GMP powm-and-multiply
  // chain, over odd Paillier-shaped moduli.
  Rng rng(12);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt mod = BigInt::Random(1024, rng);
    if (!mod.IsOdd()) mod = mod + BigInt(1);
    auto ctx = MontgomeryContext::Create(mod).value();
    const size_t t = 1 + rng.NextBelow(8);
    std::vector<BigInt> bases(t), exps(t);
    GmpInt gm(mod), acc;
    mpz_set_ui(acc.v_, 1);
    for (size_t i = 0; i < t; ++i) {
      bases[i] = BigInt::RandomBelow(mod, rng);
      exps[i] = BigInt::Random(512, rng);
      GmpInt gb(bases[i]), ge(exps[i]), term;
      mpz_powm(term.v_, gb.v_, ge.v_, gm.v_);
      mpz_mul(acc.v_, acc.v_, term.v_);
      mpz_mod(acc.v_, acc.v_, gm.v_);
    }
    EXPECT_EQ(MultiExp(bases, exps, ctx).value().ToHex(), acc.ToHex())
        << "iter " << iter << " t=" << t;
  }
}

TEST(GmpDiffTest, FixedBasePow) {
  // Fixed-base comb tables vs mpz_powm, across capacities that give
  // different shapes and exponent sizes straddling each capacity (the
  // over-capacity fallback must agree too).
  Rng rng(13);
  for (int capacity : {1, 7, 9, 64, 130, 256, 512, 600, 1000, 1088}) {
    BigInt mod = BigInt::Random(768 + static_cast<int>(rng.NextBelow(512)), rng);
    if (!mod.IsOdd()) mod = mod + BigInt(1);
    BigInt base = BigInt::RandomBelow(mod, rng);
    if (base.IsZero()) base = BigInt(2);
    auto engine = FixedBaseEngine::Create(base, mod, capacity).value();
    GmpInt gb(base), gm(mod);
    for (int i = 0; i < 4; ++i) {
      BigInt e = BigInt::Random(
          1 + static_cast<int>(rng.NextBelow(
                  static_cast<uint64_t>(capacity) + 256)),
          rng);
      GmpInt ge(e), out;
      mpz_powm(out.v_, gb.v_, ge.v_, gm.v_);
      EXPECT_EQ(engine.Pow(e).value().ToHex(), out.ToHex())
          << "capacity " << capacity << " bits " << e.BitLength();
    }
  }
}

// Sets *modulus = N^{s+1} and *out = h_s^t mod N^{s+1}, with
// h_s = 2^{N^s} mod N^{s+1}: the blinding factor of a level-s ciphertext,
// straight from the definition.
void GmpBlinding(const KeyPair& keys, int level, const BigInt& t,
                 GmpInt* modulus, GmpInt* out) {
  GmpInt n(keys.pub.n), t_g(t), n_s, h;
  mpz_pow_ui(n_s.v_, n.v_, static_cast<unsigned long>(level));
  mpz_mul(modulus->v_, n_s.v_, n.v_);
  mpz_set_ui(h.v_, 2);
  mpz_powm(h.v_, h.v_, n_s.v_, modulus->v_);
  mpz_powm(out->v_, h.v_, t_g.v_, modulus->v_);
}

TEST(GmpDiffTest, KeyHolderEncryptMatchesDefinition) {
  // A key holder blinds with t mod (p-1) and t mod (q-1) over p^{s+1} and
  // q^{s+1}; the ciphertext must still be (1+N)^m * h_s^t mod N^{s+1} for
  // the full t that Encrypt draws first from its RNG.
  Rng rng(14);
  for (int key_bits : {128, 256, 512}) {
    const KeyPair keys = GenerateKeyPair(key_bits, rng).value();
    const Encryptor enc(keys);
    for (int level = 1; level <= 3; ++level) {
      for (int i = 0; i < 3; ++i) {
        const BigInt m = BigInt::RandomBelow(keys.pub.NPow(level), rng);
        Rng draw = rng;
        const BigInt t = BigInt::Random(key_bits + 64, draw);
        const Ciphertext ct = enc.Encrypt(m, rng, level).value();
        GmpInt modulus, out, n(keys.pub.n), m_g(m), g;
        GmpBlinding(keys, level, t, &modulus, &out);
        mpz_add_ui(g.v_, n.v_, 1);
        mpz_powm(g.v_, g.v_, m_g.v_, modulus.v_);
        mpz_mul(out.v_, out.v_, g.v_);
        mpz_mod(out.v_, out.v_, modulus.v_);
        EXPECT_EQ(ct.value.ToHex(), out.ToHex())
            << key_bits << "-bit key, level " << level << ", draw " << i;
      }
    }
  }
}

TEST(GmpDiffTest, KeyHolderBlindingOnEdgeExponents) {
  // The reductions t mod (p-1) and t mod (q-1) on exponents that reduce
  // to zero modulo p - 1 (0, p - 1, 3(p - 1)) and on the widest draw,
  // 2^{key_bits+64} - 1.
  Rng rng(15);
  for (int key_bits : {128, 256, 512}) {
    const KeyPair keys = GenerateKeyPair(key_bits, rng).value();
    const BigInt p1 = keys.sec.p - BigInt(1);
    const BigInt widest = (BigInt(1) << (key_bits + 64)) - BigInt(1);
    // The prime contexts Encryptor(keys) builds and lends to each level.
    const MontgomeryContext p_ctx =
        MontgomeryContext::Create(keys.sec.p).value();
    const MontgomeryContext q_ctx =
        MontgomeryContext::Create(keys.sec.q).value();
    for (int level = 1; level <= 3; ++level) {
      const internal::KeyHolderBlinding blinding =
          internal::KeyHolderBlinding::Create(level, p_ctx, q_ctx).value();
      for (const BigInt& t : {BigInt(0), p1, BigInt(3) * p1, widest}) {
        GmpInt modulus, out;
        GmpBlinding(keys, level, t, &modulus, &out);
        EXPECT_EQ(blinding.Pow(t).value().ToHex(), out.ToHex())
            << key_bits << "-bit key, level " << level << ", t bits "
            << t.BitLength();
      }
    }
  }
}

TEST(GmpDiffTest, KeyHolderDecryptMatchesGmp) {
  // Decrypt takes c^{r-1} modulo each r^{s+1} and the logarithm on each
  // half; it must return what the textbook path does: c^lambda mod
  // N^{s+1}, the Damgard-Jurik logarithm over N, then lambda^{-1} mod N^s.
  // Inputs are valid encryptions and arbitrary c coprime to N, 1 and
  // N^{s+1} - 1 among them.
  Rng rng(16);
  for (int key_bits : {128, 256, 512, 1024}) {
    const KeyPair keys = GenerateKeyPair(key_bits, rng).value();
    const Encryptor enc(keys);
    const Decryptor dec(keys.pub, keys.sec);
    for (int level = 1; level <= 3; ++level) {
      const BigInt n_s = keys.pub.NPow(level);
      const BigInt modulus = n_s * keys.pub.n;
      std::vector<BigInt> inputs = {BigInt(1), modulus - BigInt(1)};
      for (int i = 0; i < 2; ++i) {
        inputs.push_back(
            enc.Encrypt(BigInt::RandomBelow(n_s, rng), rng, level)
                .value()
                .value);
        BigInt c;
        do {
          c = BigInt::RandomBelow(modulus, rng);
        } while (Gcd(c, keys.pub.n) != BigInt(1));
        inputs.push_back(c);
      }
      const BigInt lambda_inv = ModInverse(keys.sec.lambda, n_s).value();
      for (const BigInt& c : inputs) {
        GmpInt c_g(c), lambda(keys.sec.lambda), modulus_g(modulus), a;
        mpz_powm(a.v_, c_g.v_, lambda.v_, modulus_g.v_);
        const BigInt lambda_m =
            internal::ExtractDjLog(BigInt::FromHex(a.ToHex()).value(),
                                   keys.pub.n, level)
                .value();
        Ciphertext ct;
        ct.value = c;
        ct.level = level;
        EXPECT_EQ(dec.Decrypt(ct).value(), ModMul(lambda_m, lambda_inv, n_s))
            << key_bits << "-bit key, level " << level << ", c bits "
            << c.BitLength();
      }
    }
  }
}

// ---- the Montgomery kernel, one row at a time ----

enum class Row { kPortable, kAdx };

// The row under test, or nullptr when this CPU cannot run it.
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

// v as `limbs` 64-bit words, least significant first. 0 <= v < 2^(64 limbs).
std::vector<uint64_t> GmpLimbs(const GmpInt& v, size_t limbs) {
  std::vector<uint64_t> out(limbs, 0);
  mpz_export(out.data(), nullptr, -1, sizeof(uint64_t), 0, 0, v.v_);
  return out;
}

std::vector<uint64_t> PaddedLimbs(const BigInt& v, size_t limbs) {
  std::vector<uint64_t> out = v.Limbs();
  out.resize(limbs, 0);
  return out;
}

class GmpMontRowTest : public ::testing::TestWithParam<Row> {
 protected:
  void SetUp() override {
    row_ = RunnableRow(GetParam());
    if (row_ == nullptr) GTEST_SKIP() << "CPU lacks BMI2 or ADX; no ADX row";
  }
  internal::MontRow row_ = nullptr;
};

TEST_P(GmpMontRowTest, MontMulMatchesGmpAtEveryLimbCount) {
  // a * b * R^{-1} mod n at 1 to 64 limbs. Three structured moduli push
  // the limbs and the final subtraction to their edges, three are random;
  // the operands 0, 1, n - 1, n - 2 and six random ones meet in every
  // pair: 38,400 products.
  Rng rng(16);
  size_t products = 0;
  for (size_t L = 1; L <= 64; ++L) {
    const int bits = static_cast<int>(64 * L);
    std::vector<BigInt> moduli = {(BigInt(1) << bits) - BigInt(1),
                                  (BigInt(1) << (bits - 1)) + BigInt(1),
                                  (BigInt(1) << bits) - BigInt(3)};
    for (int r = 0; r < 3; ++r) {
      moduli.push_back(BigInt::Random(bits - 1, rng) +
                       (BigInt(1) << (bits - 1)));
      if (!moduli.back().IsOdd()) moduli.back() = moduli.back() + BigInt(1);
    }
    for (const BigInt& m : moduli) {
      ASSERT_EQ(m.LimbCount(), L);
      const GmpInt gm(m);
      // n' = -n^{-1} mod 2^64 and R^{-1} mod n, both from GMP.
      GmpInt word, n_prime, r_inv;
      mpz_setbit(word.v_, 64);
      mpz_invert(n_prime.v_, gm.v_, word.v_);
      mpz_sub(n_prime.v_, word.v_, n_prime.v_);
      const uint64_t n_prime_limb = GmpLimbs(n_prime, 1)[0];
      const std::vector<uint64_t> n = PaddedLimbs(m, L);
      ASSERT_EQ(internal::NegInverseLimb(n[0]), n_prime_limb) << "L " << L;
      GmpInt r;
      mpz_setbit(r.v_, static_cast<mp_bitcnt_t>(bits));
      mpz_invert(r_inv.v_, r.v_, gm.v_);

      std::vector<BigInt> operands = {BigInt(0), BigInt(1), m - BigInt(1),
                                      m - BigInt(2)};
      while (operands.size() < 10) {
        operands.push_back(BigInt::RandomBelow(m, rng));
      }
      for (const BigInt& x : operands) {
        const GmpInt gx(x);
        const std::vector<uint64_t> xl = PaddedLimbs(x, L);
        for (const BigInt& y : operands) {
          const GmpInt gy(y);
          GmpInt want;
          mpz_mul(want.v_, gx.v_, gy.v_);
          mpz_mul(want.v_, want.v_, r_inv.v_);
          mpz_mod(want.v_, want.v_, gm.v_);

          std::vector<uint64_t> acc(2 * L + 1, 0), prod(L);
          internal::MontMulLimbs(row_, xl.data(), PaddedLimbs(y, L).data(),
                                 n.data(), n_prime_limb, L, acc.data(),
                                 prod.data());
          ASSERT_EQ(prod, GmpLimbs(want, L))
              << "L " << L << ", n " << m.ToHex() << ", a " << x.ToHex()
              << ", b " << y.ToHex();
          ++products;
        }
      }
    }
  }
  EXPECT_EQ(products, 38400u);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GmpMontRowTest, ::testing::Values(Row::kPortable, Row::kAdx),
    [](const ::testing::TestParamInfo<Row>& info) {
      return info.param == Row::kPortable ? "Portable" : "Adx";
    });

TEST(GmpDiffTest, ModInverse) {
  Rng rng(6);
  for (int iter = 0; iter < 50; ++iter) {
    BigInt m = BigInt::Random(512, rng) + BigInt(3);
    BigInt a = BigInt::Random(500, rng) + BigInt(1);
    GmpInt ga(a), gm(m), out;
    int invertible = mpz_invert(out.v_, ga.v_, gm.v_);
    auto ours = ModInverse(a, m);
    EXPECT_EQ(ours.ok(), invertible != 0);
    if (ours.ok()) {
      EXPECT_EQ(ours.value().ToHex(), out.ToHex());
    }
  }
}

TEST(GmpDiffTest, Gcd) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a = BigInt::Random(1000, rng);
    BigInt b = BigInt::Random(800, rng);
    GmpInt ga(a), gb(b), out;
    mpz_gcd(out.v_, ga.v_, gb.v_);
    EXPECT_EQ(Gcd(a, b).ToHex(), out.ToHex());
  }
}

TEST(GmpDiffTest, PrimalityAgreement) {
  Rng rng(8);
  int primes_seen = 0;
  for (int iter = 0; iter < 300; ++iter) {
    BigInt candidate = BigInt::Random(128, rng);
    GmpInt gc(candidate);
    bool gmp_says = mpz_probab_prime_p(gc.v_, 32) != 0;
    bool we_say = IsProbablePrime(candidate, rng);
    EXPECT_EQ(we_say, gmp_says) << candidate.ToDecimal();
    primes_seen += gmp_says ? 1 : 0;
  }
  // Sanity: some primes should appear in 300 draws of 128-bit numbers
  // (density ~ 1/89 for odd numbers; we draw both parities).
  EXPECT_GT(primes_seen, 0);
}

TEST(GmpDiffTest, GeneratedPrimesSatisfyGmp) {
  Rng rng(9);
  for (int bits : {64, 128, 256, 512}) {
    BigInt p = GeneratePrime(bits, rng).value();
    GmpInt gp(p);
    EXPECT_NE(mpz_probab_prime_p(gp.v_, 40), 0) << p.ToDecimal();
  }
}

TEST(GmpDiffTest, DecimalStringsAgree) {
  Rng rng(10);
  for (int iter = 0; iter < 50; ++iter) {
    BigInt a = RandomSigned(1 + static_cast<int>(rng.NextBelow(2000)), rng);
    GmpInt ga(a);
    char* s = mpz_get_str(nullptr, 10, ga.v_);
    EXPECT_EQ(a.ToDecimal(), std::string(s));
    free(s);
  }
}

TEST(GmpDiffTest, ShiftsAgree) {
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a = BigInt::Random(1 + static_cast<int>(rng.NextBelow(2000)), rng);
    unsigned shift = static_cast<unsigned>(rng.NextBelow(200));
    GmpInt ga(a), left, right;
    mpz_mul_2exp(left.v_, ga.v_, shift);
    mpz_fdiv_q_2exp(right.v_, ga.v_, shift);
    EXPECT_EQ((a << static_cast<int>(shift)).ToHex(), left.ToHex());
    EXPECT_EQ((a >> static_cast<int>(shift)).ToHex(), right.ToHex());
  }
}

}  // namespace
}  // namespace ppgnn
