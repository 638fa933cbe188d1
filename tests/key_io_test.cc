#include "crypto/key_io.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace ppgnn {
namespace {

class KeyIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    keys_ = new KeyPair(GenerateKeyPair(256, rng).value());
  }
  static void TearDownTestSuite() { delete keys_; }
  static KeyPair* keys_;
};
KeyPair* KeyIoTest::keys_ = nullptr;

TEST_F(KeyIoTest, PublicKeyRoundTrip) {
  auto bytes = SerializePublicKey(keys_->pub);
  PublicKey pk = DeserializePublicKey(bytes).value();
  EXPECT_EQ(pk.n, keys_->pub.n);
  EXPECT_EQ(pk.key_bits, keys_->pub.key_bits);
}

TEST_F(KeyIoTest, KeyPairRoundTrip) {
  auto bytes = SerializeKeyPair(*keys_);
  KeyPair keys = DeserializeKeyPair(bytes).value();
  EXPECT_EQ(keys.pub.n, keys_->pub.n);
  EXPECT_EQ(keys.sec.lambda, keys_->sec.lambda);
  EXPECT_EQ(keys.sec.p, keys_->sec.p);
  EXPECT_EQ(keys.sec.q, keys_->sec.q);
}

TEST_F(KeyIoTest, DeserializedKeysActuallyWork) {
  auto bytes = SerializeKeyPair(*keys_);
  KeyPair keys = DeserializeKeyPair(bytes).value();
  Rng rng(1);
  Encryptor enc(keys.pub);
  Decryptor dec(keys.pub, keys.sec);
  Ciphertext ct = enc.Encrypt(BigInt(777), rng, 1).value();
  EXPECT_EQ(dec.Decrypt(ct).value(), BigInt(777));
}

TEST_F(KeyIoTest, RejectsTruncation) {
  auto bytes = SerializeKeyPair(*keys_);
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeKeyPair(truncated).ok()) << cut;
  }
}

TEST_F(KeyIoTest, RejectsTamperedFactor) {
  auto bytes = SerializeKeyPair(*keys_);
  // Flip a bit near the end (inside q).
  bytes[bytes.size() - 2] ^= 0x01;
  auto result = DeserializeKeyPair(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCryptoError);
}

TEST_F(KeyIoTest, RejectsTrailingGarbage) {
  auto bytes = SerializeKeyPair(*keys_);
  bytes.push_back(0x00);
  EXPECT_FALSE(DeserializeKeyPair(bytes).ok());
}

TEST_F(KeyIoTest, PublicKeyRejectsShortModulus) {
  PublicKey pk;
  pk.key_bits = 256;
  pk.n = BigInt(12345);
  auto bytes = SerializePublicKey(pk);
  EXPECT_FALSE(DeserializePublicKey(bytes).ok());
}

TEST_F(KeyIoTest, RejectsEvenModulus) {
  // Paillier's Montgomery arithmetic needs an odd N. An even N + 1 is
  // refused as a public key, and so is the pair p = 2, q odd, which
  // passes every other check: N = pq and lambda = lcm(1, q - 1).
  PublicKey pk = keys_->pub;
  pk.n = pk.n + BigInt(1);
  auto pub = DeserializePublicKey(SerializePublicKey(pk));
  ASSERT_FALSE(pub.ok());
  EXPECT_EQ(pub.status().code(), StatusCode::kCryptoError);

  KeyPair pair;
  pair.sec.p = BigInt(2);
  pair.sec.q = (BigInt(1) << 254) + BigInt(1);
  pair.sec.lambda = pair.sec.q - BigInt(1);
  pair.pub.n = pair.sec.p * pair.sec.q;
  pair.pub.key_bits = 256;
  auto loaded = DeserializeKeyPair(SerializeKeyPair(pair));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCryptoError);
}

TEST_F(KeyIoTest, RejectsDegenerateFactors) {
  // Both pairs pass N = pq and lambda = lcm(p - 1, q - 1). p = 1, q = N
  // gives the Decryptor a modulus p^{s+1} = 1, which admits no
  // Montgomery context; p = q gives it no CRT coefficient.
  KeyPair trivial = *keys_;
  trivial.sec.p = BigInt(1);
  trivial.sec.q = keys_->pub.n;
  trivial.sec.lambda = BigInt(0);
  KeyPair square = *keys_;
  square.sec.q = square.sec.p;
  square.sec.lambda = square.sec.p - BigInt(1);
  square.pub.n = square.sec.p * square.sec.p;
  square.pub.key_bits = square.pub.n.BitLength();
  for (const KeyPair& pair : {trivial, square}) {
    auto loaded = DeserializeKeyPair(SerializeKeyPair(pair));
    ASSERT_FALSE(loaded.ok()) << "p = " << pair.sec.p.ToHex();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCryptoError);
  }
}

TEST_F(KeyIoTest, FileSaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/ppgnn_keys.bin";
  ASSERT_TRUE(SaveKeyPair(path, *keys_).ok());
  KeyPair keys = LoadKeyPair(path).value();
  EXPECT_EQ(keys.pub.n, keys_->pub.n);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadKeyPair(path).ok());
}

}  // namespace
}  // namespace ppgnn
