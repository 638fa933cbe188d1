#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "bigint/fixedbase.h"
#include "bigint/modular.h"

namespace ppgnn {
namespace {

// Small keys keep tests fast; the scheme's algebra is size-independent.
constexpr int kTestKeyBits = 256;

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(20240601);
    keys_ = new KeyPair(GenerateKeyPair(kTestKeyBits, *rng_).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  static Rng* rng_;
  static KeyPair* keys_;
};

Rng* PaillierTest::rng_ = nullptr;
KeyPair* PaillierTest::keys_ = nullptr;

TEST_F(PaillierTest, KeyGenerationInvariants) {
  EXPECT_EQ(keys_->pub.key_bits, kTestKeyBits);
  EXPECT_EQ(keys_->pub.n.BitLength(), kTestKeyBits);
  EXPECT_EQ(keys_->sec.p * keys_->sec.q, keys_->pub.n);
  // lambda divides (p-1)(q-1) and is divisible by neither p nor q.
  BigInt totient = (keys_->sec.p - BigInt(1)) * (keys_->sec.q - BigInt(1));
  EXPECT_EQ(totient % keys_->sec.lambda, BigInt(0));
}

TEST_F(PaillierTest, KeyGenRejectsBadSizes) {
  Rng rng(1);
  EXPECT_FALSE(GenerateKeyPair(63, rng).ok());
  EXPECT_FALSE(GenerateKeyPair(65, rng).ok());
}

TEST_F(PaillierTest, EncryptDecryptRoundTripLevel1) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  const BigInt values[] = {BigInt(0), BigInt(1), BigInt(42),
                           keys_->pub.n - BigInt(1)};
  for (const BigInt& m : values) {
    Ciphertext ct = enc.Encrypt(m, *rng_, 1).value();
    EXPECT_EQ(ct.level, 1);
    EXPECT_EQ(dec.Decrypt(ct).value(), m) << m;
  }
}

TEST_F(PaillierTest, EncryptDecryptRoundTripLevel2) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  BigInt n2 = keys_->pub.NPow(2);
  const BigInt values[] = {BigInt(0), BigInt(7), keys_->pub.n + BigInt(5),
                           n2 - BigInt(1)};
  for (const BigInt& m : values) {
    Ciphertext ct = enc.Encrypt(m, *rng_, 2).value();
    EXPECT_EQ(ct.level, 2);
    EXPECT_EQ(dec.Decrypt(ct).value(), m);
  }
}

TEST_F(PaillierTest, EncryptDecryptRoundTripLevel3) {
  // The generalized scheme works for any s; spot-check s = 3.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  BigInt m = keys_->pub.NPow(3) - BigInt(123456789);
  Ciphertext ct = enc.Encrypt(m, *rng_, 3).value();
  EXPECT_EQ(dec.Decrypt(ct).value(), m);
}

TEST_F(PaillierTest, PlaintextReducedModuloNs) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  BigInt m = keys_->pub.n + BigInt(3);  // out of Z_N range
  Ciphertext ct = enc.Encrypt(m, *rng_, 1).value();
  EXPECT_EQ(dec.Decrypt(ct).value(), BigInt(3));
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  Encryptor enc(keys_->pub);
  Ciphertext a = enc.Encrypt(BigInt(5), *rng_, 1).value();
  Ciphertext b = enc.Encrypt(BigInt(5), *rng_, 1).value();
  EXPECT_NE(a.value, b.value);  // different blinding randomness
}

TEST_F(PaillierTest, CiphertextInRange) {
  Encryptor enc(keys_->pub);
  BigInt n2 = keys_->pub.NPow(2);
  for (int i = 0; i < 5; ++i) {
    Ciphertext ct = enc.Encrypt(BigInt(i), *rng_, 1).value();
    EXPECT_TRUE(ct.value < n2);
    EXPECT_FALSE(ct.value.IsNegative());
    // Ciphertexts must be units mod N^2.
    EXPECT_EQ(Gcd(ct.value, n2), BigInt(1));
  }
}

TEST_F(PaillierTest, HomomorphicAddition) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext a = enc.Encrypt(BigInt(1234), *rng_, 1).value();
  Ciphertext b = enc.Encrypt(BigInt(8766), *rng_, 1).value();
  Ciphertext sum = enc.Add(a, b).value();
  EXPECT_EQ(dec.Decrypt(sum).value(), BigInt(10000));
}

TEST_F(PaillierTest, HomomorphicAdditionWrapsModN) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  BigInt near_n = keys_->pub.n - BigInt(1);
  Ciphertext a = enc.Encrypt(near_n, *rng_, 1).value();
  Ciphertext b = enc.Encrypt(BigInt(5), *rng_, 1).value();
  EXPECT_EQ(dec.Decrypt(enc.Add(a, b).value()).value(), BigInt(4));
}

TEST_F(PaillierTest, AddRejectsMismatchedLevels) {
  Encryptor enc(keys_->pub);
  Ciphertext a = enc.Encrypt(BigInt(1), *rng_, 1).value();
  Ciphertext b = enc.Encrypt(BigInt(1), *rng_, 2).value();
  EXPECT_FALSE(enc.Add(a, b).ok());
}

TEST_F(PaillierTest, HomomorphicScalarMultiplication) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext ct = enc.Encrypt(BigInt(111), *rng_, 1).value();
  Ciphertext scaled = enc.ScalarMul(BigInt(9), ct).value();
  EXPECT_EQ(dec.Decrypt(scaled).value(), BigInt(999));
  // Scaling by zero yields an encryption of zero.
  EXPECT_EQ(dec.Decrypt(enc.ScalarMul(BigInt(0), ct).value()).value(),
            BigInt(0));
}

TEST_F(PaillierTest, ScalarMulRejectsNegative) {
  Encryptor enc(keys_->pub);
  Ciphertext ct = enc.Encrypt(BigInt(1), *rng_, 1).value();
  EXPECT_FALSE(enc.ScalarMul(BigInt(-2), ct).ok());
}

TEST_F(PaillierTest, DotProductSelectsIndicatedElement) {
  // The private-selection primitive (Eqn 4): a one-hot encrypted vector
  // dotted with a plaintext row returns the indicated element.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  std::vector<Ciphertext> v;
  const size_t hot = 2;
  for (size_t i = 0; i < 4; ++i) {
    v.push_back(enc.Encrypt(BigInt(i == hot ? 1 : 0), *rng_, 1).value());
  }
  std::vector<BigInt> x = {BigInt(10), BigInt(20), BigInt(30), BigInt(40)};
  Ciphertext out = enc.DotProduct(x, v).value();
  EXPECT_EQ(dec.Decrypt(out).value(), BigInt(30));
}

TEST_F(PaillierTest, DotProductGeneralLinearCombination) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  std::vector<Ciphertext> v = {enc.Encrypt(BigInt(3), *rng_, 1).value(),
                               enc.Encrypt(BigInt(5), *rng_, 1).value(),
                               enc.Encrypt(BigInt(7), *rng_, 1).value()};
  std::vector<BigInt> x = {BigInt(2), BigInt(0), BigInt(4)};
  Ciphertext out = enc.DotProduct(x, v).value();
  EXPECT_EQ(dec.Decrypt(out).value(), BigInt(2 * 3 + 0 * 5 + 4 * 7));
}

TEST_F(PaillierTest, DotProductValidatesShapes) {
  Encryptor enc(keys_->pub);
  std::vector<Ciphertext> v = {enc.Encrypt(BigInt(1), *rng_, 1).value()};
  EXPECT_FALSE(enc.DotProduct({BigInt(1), BigInt(2)}, v).ok());
  EXPECT_FALSE(enc.DotProduct({}, {}).ok());
}

TEST_F(PaillierTest, LayeredEncryptionRoundTrip) {
  // PPGNN-OPT's core trick: an eps_1 ciphertext is a valid eps_2
  // plaintext; two decryptions peel both layers.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  BigInt secret(987654321);
  Ciphertext inner = enc.Encrypt(secret, *rng_, 1).value();
  Ciphertext outer = enc.Encrypt(inner.value, *rng_, 2).value();
  EXPECT_EQ(dec.DecryptLayered(outer).value(), secret);
}

TEST_F(PaillierTest, LayeredSelectionViaScalarMul) {
  // Treating eps_1 ciphertexts as eps_2 scalars: dot([[one-hot]],
  // (c1, c2)) picks the indicated inner ciphertext.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext inner_a = enc.Encrypt(BigInt(111), *rng_, 1).value();
  Ciphertext inner_b = enc.Encrypt(BigInt(222), *rng_, 1).value();
  std::vector<Ciphertext> v2 = {enc.Encrypt(BigInt(0), *rng_, 2).value(),
                                enc.Encrypt(BigInt(1), *rng_, 2).value()};
  std::vector<BigInt> scalars = {inner_a.value, inner_b.value};
  Ciphertext outer = enc.DotProduct(scalars, v2).value();
  EXPECT_EQ(dec.DecryptLayered(outer).value(), BigInt(222));
}

TEST_F(PaillierTest, DecryptLayeredRejectsWrongLevel) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext ct = enc.Encrypt(BigInt(1), *rng_, 1).value();
  EXPECT_FALSE(dec.DecryptLayered(ct).ok());
}

TEST_F(PaillierTest, CiphertextByteSizes) {
  // L_e = 2 * keysize/8 for eps_1; eps_2 ciphertexts are 1.5x larger
  // (Z_{N^3}), the ratio driving Eqn 18's cost model.
  EXPECT_EQ(keys_->pub.CiphertextBytes(1),
            static_cast<size_t>(2 * kTestKeyBits / 8));
  EXPECT_EQ(keys_->pub.CiphertextBytes(2),
            static_cast<size_t>(3 * kTestKeyBits / 8));
}

TEST_F(PaillierTest, ExtractDjLogRecoversExponent) {
  const BigInt& n = keys_->pub.n;
  for (int s : {1, 2, 3}) {
    BigInt n_s1 = keys_->pub.NPow(s + 1);
    BigInt x = (BigInt(123456789) * keys_->pub.n + BigInt(42)).Mod(
        keys_->pub.NPow(s));
    BigInt a = ModExp(n + BigInt(1), x, n_s1).value();
    EXPECT_EQ(internal::ExtractDjLog(a, n, s).value(), x) << "s=" << s;
  }
}

TEST_F(PaillierTest, ExtractDjLogRejectsMalformedInput) {
  // A value that is not (1+N)^x mod N^2 (its L-part is not divisible).
  EXPECT_FALSE(internal::ExtractDjLog(BigInt(2), keys_->pub.n, 1).ok());
}

TEST_F(PaillierTest, RerandomizePreservesPlaintextButChangesCiphertext) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  for (int level : {1, 2}) {
    Ciphertext ct = enc.Encrypt(BigInt(31337), *rng_, level).value();
    Ciphertext re = enc.Rerandomize(ct, *rng_).value();
    EXPECT_EQ(re.level, level);
    EXPECT_NE(re.value, ct.value);
    EXPECT_EQ(dec.Decrypt(re).value(), BigInt(31337));
  }
}

TEST_F(PaillierTest, ZeroCiphertextIsAdditiveIdentity) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext ct = enc.Encrypt(BigInt(77), *rng_, 1).value();
  Ciphertext sum = enc.Add(ct, enc.Zero(1)).value();
  EXPECT_EQ(dec.Decrypt(sum).value(), BigInt(77));
}

TEST_F(PaillierTest, DistinctKeysProduceDistinctModuli) {
  Rng rng(31337);
  KeyPair other = GenerateKeyPair(kTestKeyBits, rng).value();
  EXPECT_NE(other.pub.n, keys_->pub.n);
}

TEST_F(PaillierTest, CrtAndDirectDecryptionAgree) {
  Encryptor enc(keys_->pub);
  Decryptor crt(keys_->pub, keys_->sec, /*use_crt=*/true);
  Decryptor direct(keys_->pub, keys_->sec, /*use_crt=*/false);
  for (int level : {1, 2}) {
    for (int i = 0; i < 10; ++i) {
      BigInt m = BigInt::RandomBelow(keys_->pub.NPow(level), *rng_);
      Ciphertext ct = enc.Encrypt(m, *rng_, level).value();
      BigInt via_crt = crt.Decrypt(ct).value();
      BigInt via_direct = direct.Decrypt(ct).value();
      EXPECT_EQ(via_crt, via_direct);
      EXPECT_EQ(via_crt, m);
    }
  }
}

TEST_F(PaillierTest, BlindingPathsAreBitIdenticalOnSameRngStream) {
  // The chaos/dedup/replay machinery depends on deterministic frames, so
  // every blinding configuration must produce byte-identical ciphertexts
  // from the same RNG stream: public key on the generic ladder and on the
  // shared fixed-base table, key holder on its CRT tables and on the
  // ladder.
  EncryptorOptions naive;
  naive.use_fixed_base = false;
  // Encryptor is non-movable (it owns mutexes and atomics), so hold the
  // configurations through unique_ptr.
  std::vector<std::pair<const char*, std::unique_ptr<Encryptor>>> configs;
  configs.emplace_back("naive", std::make_unique<Encryptor>(keys_->pub, naive));
  configs.emplace_back("fixed-base", std::make_unique<Encryptor>(keys_->pub));
  configs.emplace_back("crt", std::make_unique<Encryptor>(*keys_));
  EncryptorOptions crt_ladder;
  crt_ladder.use_fixed_base = false;
  configs.emplace_back("crt-ladder",
                       std::make_unique<Encryptor>(*keys_, crt_ladder));
  for (int level : {1, 2}) {
    for (int i = 0; i < 3; ++i) {
      const BigInt m = BigInt::RandomBelow(keys_->pub.NPow(level), *rng_);
      Rng reference_rng(9000 + i);
      const Ciphertext reference =
          configs[0].second->Encrypt(m, reference_rng, level).value();
      for (auto& [name, enc] : configs) {
        Rng rng(9000 + i);
        Ciphertext ct = enc->Encrypt(m, rng, level).value();
        EXPECT_EQ(ct.value, reference.value)
            << name << " level " << level << " diverged";
      }
    }
  }
}

TEST_F(PaillierTest, KeyHolderEncryptorRoundTrips) {
  // The key holder's (CRT) encrypt path must interoperate with
  // decryption at both levels.
  Encryptor enc(*keys_);
  Decryptor dec(keys_->pub, keys_->sec);
  Rng rng(77);
  for (int level : {1, 2}) {
    for (int i = 0; i < 4; ++i) {
      BigInt m = BigInt::RandomBelow(keys_->pub.NPow(level), rng);
      Ciphertext ct = enc.Encrypt(m, rng, level).value();
      EXPECT_EQ(dec.Decrypt(ct).value(), m) << "level " << level;
    }
  }
}

TEST_F(PaillierTest, KeyHolderOwnsTwoHalfWidthTablesPerLevel) {
  // A key holder blinds on two tables per level, sized to bits(p - 1)
  // over p^{s+1} and q^{s+1}, that its Encryptor owns: no full-width
  // table, and nothing enters the process-wide registry.
  const FixedBaseRegistryStats registry_before = SharedFixedBaseRegistryStats();
  const uint64_t created_before = FixedBaseEngine::created_count();
  Encryptor enc(*keys_);
  Rng rng(91);
  for (int level : {1, 2}) {
    ASSERT_TRUE(enc.Encrypt(BigInt(1), rng, level).ok());
    ASSERT_TRUE(enc.Encrypt(BigInt(0), rng, level).ok());
    EXPECT_EQ(FixedBaseEngine::created_count(),
              created_before + 2 * static_cast<uint64_t>(level))
        << "level " << level;
  }
  const FixedBaseRegistryStats registry_after = SharedFixedBaseRegistryStats();
  EXPECT_EQ(registry_after.hits, registry_before.hits);
  EXPECT_EQ(registry_after.misses, registry_before.misses);
  EXPECT_EQ(registry_after.engines, registry_before.engines);
  EXPECT_EQ(registry_after.table_bytes, registry_before.table_bytes);

  size_t expected_bytes = 0;
  for (int level : {1, 2}) {
    for (const BigInt& r : {keys_->sec.p, keys_->sec.q}) {
      BigInt r_pow(1);
      for (int i = 0; i <= level; ++i) r_pow = r_pow * r;
      const FixedBaseEngine table =
          FixedBaseEngine::Create(BigInt(2), r_pow,
                                  (r - BigInt(1)).BitLength())
              .value();
      expected_bytes += table.table_bytes();
    }
  }
  const Encryptor::BlindingStats stats = enc.blinding_stats();
  EXPECT_EQ(stats.table_bytes, expected_bytes);
  EXPECT_EQ(stats.fixed_base_evals, 4u);
  EXPECT_EQ(stats.generic_evals, 0u);
}

TEST(PaillierRegistryTest, PublicKeyEncryptorHoldsSharedTablesOnlyWhileAlive) {
  // A public-key Encryptor's full-width tables live in the shared
  // registry only as long as some Encryptor holds them. A key of its own
  // keeps any other test's table out of the lookup.
  Rng rng(4242);
  const KeyPair keys = GenerateKeyPair(kTestKeyBits, rng).value();
  const FixedBaseRegistryStats before = SharedFixedBaseRegistryStats();
  size_t held_bytes = 0;
  {
    Encryptor enc(keys.pub);
    for (int level : {1, 2}) {
      ASSERT_TRUE(enc.Encrypt(BigInt(1), rng, level).ok());
    }
    const FixedBaseRegistryStats held = SharedFixedBaseRegistryStats();
    EXPECT_EQ(held.engines, before.engines + 2);
    held_bytes = enc.blinding_stats().table_bytes;
    EXPECT_GT(held_bytes, 0u);
    EXPECT_EQ(held.table_bytes, before.table_bytes + held_bytes);
  }
  const FixedBaseRegistryStats after = SharedFixedBaseRegistryStats();
  EXPECT_EQ(after.engines, before.engines);
  EXPECT_EQ(after.table_bytes, before.table_bytes);
}

TEST(PaillierSoakTest, ManyRandomRoundTrips) {
  Rng rng(606);
  KeyPair keys = GenerateKeyPair(128, rng).value();
  Encryptor enc(keys.pub);
  Decryptor dec(keys.pub, keys.sec);
  for (int i = 0; i < 30; ++i) {
    BigInt m = BigInt::RandomBelow(keys.pub.n, rng);
    EXPECT_EQ(dec.Decrypt(enc.Encrypt(m, rng, 1).value()).value(), m);
  }
}

}  // namespace
}  // namespace ppgnn
