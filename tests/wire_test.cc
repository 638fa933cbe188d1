#include "core/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "crypto/poi_codec.h"

namespace ppgnn {
namespace {

class WireTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(31415);
    keys_ = new KeyPair(GenerateKeyPair(256, *rng_).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
  }

  static QueryMessage PlainQuery() {
    QueryMessage msg;
    msg.k = 8;
    msg.theta0 = 0.05;
    msg.aggregate = AggregateKind::kMax;
    msg.plan.alpha = 2;
    msg.plan.n_bar = {2, 2};
    msg.plan.d_bar = {2, 2};
    msg.plan.delta_prime = 8;
    msg.pk = keys_->pub;
    Encryptor enc(keys_->pub);
    msg.indicator = EncryptIndicator(enc, 7, 8, *rng_).value();
    return msg;
  }

  // Handcrafts the query header (through the public key field) so the
  // adversarial tests below can smuggle values a well-formed Encode would
  // never produce.
  static ByteWriter ForgedHeader(uint64_t k, uint64_t alpha,
                                 const std::vector<uint64_t>& n_bar,
                                 const std::vector<uint64_t>& d_bar) {
    ByteWriter w;
    w.PutVarint(k);
    w.PutDouble(0.05);
    w.PutU8(0);  // kSum
    w.PutVarint(alpha);
    for (uint64_t nb : n_bar) w.PutVarint(nb);
    w.PutVarint(d_bar.size());
    for (uint64_t db : d_bar) w.PutVarint(db);
    w.PutVarint(static_cast<uint64_t>(keys_->pub.key_bits));
    w.PutBytes(keys_->pub.n.ToBytesPadded(keys_->pub.ByteSize()).value());
    return w;
  }

  static void AppendLevelCiphertext(ByteWriter& w, int level) {
    Encryptor enc(keys_->pub);
    Ciphertext ct = enc.Encrypt(BigInt(1), *rng_, level).value();
    w.PutBytes(
        ct.value.ToBytesPadded(keys_->pub.CiphertextBytes(level)).value());
  }

  static Rng* rng_;
  static KeyPair* keys_;
};
Rng* WireTest::rng_ = nullptr;
KeyPair* WireTest::keys_ = nullptr;

TEST_F(WireTest, QueryMessageRoundTripPlain) {
  QueryMessage msg = PlainQuery();
  auto bytes = msg.Encode().value();
  QueryMessage decoded = QueryMessage::Decode(bytes).value();
  EXPECT_EQ(decoded.k, msg.k);
  EXPECT_DOUBLE_EQ(decoded.theta0, msg.theta0);
  EXPECT_EQ(decoded.aggregate, msg.aggregate);
  EXPECT_EQ(decoded.plan.alpha, msg.plan.alpha);
  EXPECT_EQ(decoded.plan.n_bar, msg.plan.n_bar);
  EXPECT_EQ(decoded.plan.d_bar, msg.plan.d_bar);
  EXPECT_EQ(decoded.plan.delta_prime, msg.plan.delta_prime);
  EXPECT_EQ(decoded.pk.n, msg.pk.n);
  EXPECT_EQ(decoded.pk.key_bits, msg.pk.key_bits);
  EXPECT_FALSE(decoded.is_opt);
  ASSERT_EQ(decoded.indicator.size(), msg.indicator.size());
  for (size_t i = 0; i < msg.indicator.size(); ++i) {
    EXPECT_EQ(decoded.indicator[i].value, msg.indicator[i].value);
    EXPECT_EQ(decoded.indicator[i].level, 1);
  }
}

TEST_F(WireTest, QueryMessageRoundTripOpt) {
  QueryMessage msg = PlainQuery();
  msg.indicator.clear();
  msg.is_opt = true;
  Encryptor enc(keys_->pub);
  msg.opt_indicator = EncryptOptIndicator(enc, 7, 8, 2, *rng_).value();
  auto bytes = msg.Encode().value();
  QueryMessage decoded = QueryMessage::Decode(bytes).value();
  ASSERT_TRUE(decoded.is_opt);
  EXPECT_EQ(decoded.opt_indicator.omega, 2u);
  EXPECT_EQ(decoded.opt_indicator.block_size, 4u);
  ASSERT_EQ(decoded.opt_indicator.v1.size(), 4u);
  ASSERT_EQ(decoded.opt_indicator.v2.size(), 2u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded.opt_indicator.v1[i].value,
              msg.opt_indicator.v1[i].value);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded.opt_indicator.v2[i].value,
              msg.opt_indicator.v2[i].value);
    EXPECT_EQ(decoded.opt_indicator.v2[i].level, 2);
  }
}

TEST_F(WireTest, QueryDecodeRecomputesDeltaPrime) {
  QueryMessage msg = PlainQuery();
  msg.plan.delta_prime = 999;  // wrong on purpose; wire doesn't carry it
  // The indicator length must match the TRUE delta' = 8 for decode to
  // accept, so re-encode with the correct indicator.
  auto bytes = msg.Encode().value();
  QueryMessage decoded = QueryMessage::Decode(bytes).value();
  EXPECT_EQ(decoded.plan.delta_prime, 8u);
}

TEST_F(WireTest, QueryDecodeRejectsCorruption) {
  QueryMessage msg = PlainQuery();
  auto bytes = msg.Encode().value();

  // Truncation at every prefix must fail cleanly, never crash.
  for (size_t cut : std::vector<size_t>{0, 1, 5, 20, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(QueryMessage::Decode(truncated).ok()) << "cut=" << cut;
  }
  // Trailing garbage.
  std::vector<uint8_t> extended = bytes;
  extended.push_back(0x42);
  EXPECT_FALSE(QueryMessage::Decode(extended).ok());
  // Bad aggregate kind byte (offset: varint k (1B) + double theta0 (8B)).
  std::vector<uint8_t> bad_agg = bytes;
  bad_agg[9] = 77;
  EXPECT_FALSE(QueryMessage::Decode(bad_agg).ok());
}

// theta0 crosses the trust boundary as a raw double. A NaN used to reach
// an undefined float-to-integer cast when the LSP sized its Z-test.
TEST_F(WireTest, QueryDecodeRejectsHostileTheta0) {
  QueryMessage msg = PlainQuery();
  for (double theta0 : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), 0.0, -0.0,
                        -0.05, 1.0000001, 1e300}) {
    msg.theta0 = theta0;
    auto bytes = msg.Encode().value();
    EXPECT_FALSE(QueryMessage::Decode(bytes).ok()) << "theta0=" << theta0;
  }
  for (double theta0 : {1e-9, 0.05, 1.0}) {
    msg.theta0 = theta0;
    auto bytes = msg.Encode().value();
    auto decoded = QueryMessage::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << "theta0=" << theta0;
    EXPECT_EQ(decoded.value().theta0, theta0);
  }
}

TEST_F(WireTest, QueryDecodeRejectsShortPublicKey) {
  QueryMessage msg = PlainQuery();
  msg.pk.n = BigInt(12345);  // not full-width for key_bits = 256
  auto bytes = msg.Encode().value();
  EXPECT_FALSE(QueryMessage::Decode(bytes).ok());
}

// --- adversarial decode: overflow and narrowing regressions ---

// delta' = 4^64 wraps a uint64 to exactly 0, which used to match an
// *empty* indicator and sail through decode with a plan whose true
// candidate enumeration is astronomically large.
TEST_F(WireTest, QueryDecodeRejectsOverflowWrappedDeltaPrime) {
  ByteWriter w =
      ForgedHeader(1, 64, std::vector<uint64_t>(64, 2), {4});
  w.PutU8(0);     // plain indicator
  w.PutVarint(0);  // length 0 == wrapped delta'
  auto result = QueryMessage::Decode(w.Release());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Same wrap through the OPT branch: a shape of omega = block_size = 1
// trivially covers a delta' of 0.
TEST_F(WireTest, QueryDecodeRejectsOverflowWrappedDeltaPrimeOpt) {
  ByteWriter w =
      ForgedHeader(1, 64, std::vector<uint64_t>(64, 2), {4});
  w.PutU8(1);      // OPT indicator
  w.PutVarint(1);  // omega
  w.PutVarint(1);  // block_size
  AppendLevelCiphertext(w, 1);  // v1
  AppendLevelCiphertext(w, 2);  // v2
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

// d_bar entries near 2^64 used to pass the (uint64) >= 1 check, wrap the
// delta' *sum* back into a small value, and turn negative when narrowed
// to int: (2^64 - 4) + 8 = 4 (mod 2^64), with d_bar = {-4, 8}.
TEST_F(WireTest, QueryDecodeRejectsSegmentSizeAboveIntRange) {
  ByteWriter w = ForgedHeader(1, 1, {2}, {0xFFFFFFFFFFFFFFFCull, 8});
  w.PutU8(0);
  w.PutVarint(4);
  for (int i = 0; i < 4; ++i) AppendLevelCiphertext(w, 1);
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

// n_bar = 2^31 passes an unsigned >= 1 check but is INT_MIN after the
// cast; the subgroup bookkeeping downstream must never see it.
TEST_F(WireTest, QueryDecodeRejectsSubgroupSizeAboveIntRange) {
  ByteWriter w = ForgedHeader(1, 1, {uint64_t{1} << 31}, {2, 2});
  w.PutU8(0);
  w.PutVarint(4);
  for (int i = 0; i < 4; ++i) AppendLevelCiphertext(w, 1);
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

// k = 2^32 + 3 used to silently truncate to k = 3 on the cast.
TEST_F(WireTest, QueryDecodeRejectsTruncatedK) {
  ByteWriter w = ForgedHeader((uint64_t{1} << 32) + 3, 1, {2}, {2, 2});
  w.PutU8(0);
  w.PutVarint(4);
  for (int i = 0; i < 4; ++i) AppendLevelCiphertext(w, 1);
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

// omega * block_size wrapping 64 bits must not satisfy the coverage
// check (here (2^62 + 2) * 4 = 8 mod 2^64 >= delta' = 8).
TEST_F(WireTest, QueryDecodeRejectsOptShapeProductOverflow) {
  ByteWriter w = ForgedHeader(1, 2, {2, 2}, {2, 2});  // delta' = 8
  w.PutU8(1);
  w.PutVarint((uint64_t{1} << 62) + 2);  // omega
  w.PutVarint(4);                        // block_size
  for (int i = 0; i < 4; ++i) AppendLevelCiphertext(w, 1);
  auto result = QueryMessage::Decode(w.Release());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("OPT indicator shape"),
            std::string::npos);
}

// --- adversarial decode: ciphertext framing ---

TEST_F(WireTest, QueryDecodeRejectsWrongWidthCiphertext) {
  ByteWriter w = ForgedHeader(1, 1, {2}, {2, 2});  // delta' = 4
  w.PutU8(0);
  w.PutVarint(4);
  // A ciphertext frame of the wrong fixed width.
  w.PutBytes(std::vector<uint8_t>(10, 0xAB));
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

TEST_F(WireTest, QueryDecodeRejectsOversizedCiphertextLength) {
  ByteWriter w = ForgedHeader(1, 1, {2}, {2, 2});
  w.PutU8(0);
  w.PutVarint(4);
  // Length prefix promising far more bytes than the message holds.
  w.PutVarint(1 << 20);
  w.PutU8(0x01);
  EXPECT_FALSE(QueryMessage::Decode(w.Release()).ok());
}

// --- encode-side hardening ---

// A public key whose modulus does not fit its declared width used to hit
// Result::value() on an error (process abort); now it is a clean error.
TEST_F(WireTest, QueryEncodeRejectsOverflowingPublicKeyWidth) {
  QueryMessage msg = PlainQuery();
  msg.pk.key_bits = 64;  // modulus is 256-bit: nothing fits in 8 bytes
  auto result = msg.Encode();
  EXPECT_FALSE(result.ok());
}

TEST_F(WireTest, LocationSetRoundTrip) {
  LocationSetMessage msg;
  msg.user_id = 3;
  Rng rng(1);
  for (int i = 0; i < 25; ++i) {
    msg.locations.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  auto bytes = msg.Encode();
  // d = 25 locations at 8 bytes each, plus header: matches the paper's
  // L_l accounting.
  EXPECT_EQ(bytes.size(), 4u + 1u + 25u * 8u);
  LocationSetMessage decoded = LocationSetMessage::Decode(bytes).value();
  EXPECT_EQ(decoded.user_id, 3u);
  ASSERT_EQ(decoded.locations.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_NEAR(decoded.locations[i].x, msg.locations[i].x, 1e-9);
    EXPECT_NEAR(decoded.locations[i].y, msg.locations[i].y, 1e-9);
  }
}

TEST_F(WireTest, LocationSetRejectsEmptyAndTruncated) {
  LocationSetMessage msg;
  msg.user_id = 0;
  msg.locations = {{0.5, 0.5}};
  auto bytes = msg.Encode();
  bytes.pop_back();
  EXPECT_FALSE(LocationSetMessage::Decode(bytes).ok());

  LocationSetMessage empty;
  empty.user_id = 0;
  EXPECT_FALSE(LocationSetMessage::Decode(empty.Encode()).ok());
}

TEST_F(WireTest, AnswerMessageRoundTripBothLevels) {
  Encryptor enc(keys_->pub);
  for (int level : {1, 2}) {
    AnswerMessage msg;
    for (int i = 0; i < 3; ++i) {
      msg.ciphertexts.push_back(
          enc.Encrypt(BigInt(100 + i), *rng_, level).value());
    }
    auto bytes = msg.Encode(keys_->pub).value();
    AnswerMessage decoded = AnswerMessage::Decode(bytes, keys_->pub).value();
    ASSERT_EQ(decoded.ciphertexts.size(), 3u);
    Decryptor dec(keys_->pub, keys_->sec);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(decoded.ciphertexts[i].level, level);
      EXPECT_EQ(dec.Decrypt(decoded.ciphertexts[i]).value(),
                BigInt(100 + i));
    }
  }
}

TEST_F(WireTest, AnswerMessageWireSizeMatchesCostModel) {
  // m eps_1 ciphertexts of 2*keysize/8 bytes each (+ tiny header): the
  // O(k) L_e term of Table 2.
  Encryptor enc(keys_->pub);
  AnswerMessage msg;
  msg.ciphertexts.push_back(enc.Encrypt(BigInt(1), *rng_, 1).value());
  size_t expected_payload = keys_->pub.CiphertextBytes(1);
  auto bytes = msg.Encode(keys_->pub).value();
  EXPECT_GE(bytes.size(), expected_payload);
  EXPECT_LE(bytes.size(), expected_payload + 4);
}

// Encode used to emit an empty message (no level byte) that Decode could
// never accept; empty answers are now a hard error at the source.
TEST_F(WireTest, AnswerMessageRejectsEmptyAtEncode) {
  AnswerMessage empty;
  auto result = empty.Encode(keys_->pub);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The format carries one level byte for the whole vector, so a mixed
// vector would silently mis-parse on the other side; reject at encode.
TEST_F(WireTest, AnswerMessageRejectsMixedLevelsAtEncode) {
  Encryptor enc(keys_->pub);
  AnswerMessage msg;
  msg.ciphertexts.push_back(enc.Encrypt(BigInt(1), *rng_, 1).value());
  msg.ciphertexts.push_back(enc.Encrypt(BigInt(2), *rng_, 2).value());
  EXPECT_FALSE(msg.Encode(keys_->pub).ok());
}

TEST_F(WireTest, AnswerBroadcastRoundTrip) {
  AnswerBroadcast msg;
  msg.pois = {{0.25, 0.75}, {0.1, 0.2}};
  auto decoded = AnswerBroadcast::Decode(msg.Encode()).value();
  ASSERT_EQ(decoded.pois.size(), 2u);
  EXPECT_NEAR(decoded.pois[0].x, 0.25, 1e-9);
  EXPECT_NEAR(decoded.pois[1].y, 0.2, 1e-9);
  // Empty broadcast is legal (sanitation could in principle empty it).
  AnswerBroadcast empty;
  EXPECT_TRUE(AnswerBroadcast::Decode(empty.Encode()).value().pois.empty());
}

TEST_F(WireTest, AnswerMessageRejectsBadLevelOrWidth) {
  Encryptor enc(keys_->pub);
  AnswerMessage msg;
  msg.ciphertexts.push_back(enc.Encrypt(BigInt(5), *rng_, 1).value());
  auto bytes = msg.Encode(keys_->pub).value();
  // Corrupt the level byte (after the 1-byte count varint).
  bytes[1] = 9;
  EXPECT_FALSE(AnswerMessage::Decode(bytes, keys_->pub).ok());
}

// --- error frames ---

TEST_F(WireTest, ErrorMessageRoundTripAllCodes) {
  for (WireError code :
       {WireError::kMalformed, WireError::kOverloaded,
        WireError::kDeadlineExceeded, WireError::kInternal,
        WireError::kShuttingDown}) {
    ErrorMessage msg;
    msg.code = code;
    msg.detail = std::string("details for ") + WireErrorToString(code);
    ErrorMessage decoded = ErrorMessage::Decode(msg.Encode()).value();
    EXPECT_EQ(decoded.code, code);
    EXPECT_EQ(decoded.detail, msg.detail);
  }
}

TEST_F(WireTest, ErrorMessageClipsOversizedDetail) {
  ErrorMessage msg;
  msg.code = WireError::kInternal;
  msg.detail = std::string(10000, 'x');
  ErrorMessage decoded = ErrorMessage::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.detail.size(), kMaxWireErrorDetail);
}

TEST_F(WireTest, ErrorMessageRejectsGarbage) {
  EXPECT_FALSE(ErrorMessage::Decode({}).ok());
  EXPECT_FALSE(ErrorMessage::Decode({0x07, 0x00}).ok());  // unknown code
  // The first code past the taxonomy (kShuttingDown + 1) is rejected too.
  EXPECT_FALSE(ErrorMessage::Decode({0x05, 0x00}).ok());
  ErrorMessage msg;
  msg.code = WireError::kOverloaded;
  msg.detail = "queue full";
  auto bytes = msg.Encode();
  bytes.pop_back();
  EXPECT_FALSE(ErrorMessage::Decode(bytes).ok());
}

TEST_F(WireTest, WireErrorFromStatusTaxonomy) {
  EXPECT_EQ(WireErrorFromStatus(Status::InvalidArgument("x")),
            WireError::kMalformed);
  EXPECT_EQ(WireErrorFromStatus(Status::ProtocolError("x")),
            WireError::kMalformed);
  EXPECT_EQ(WireErrorFromStatus(Status::ResourceExhausted("x")),
            WireError::kOverloaded);
  EXPECT_EQ(WireErrorFromStatus(Status::DeadlineExceeded("x")),
            WireError::kDeadlineExceeded);
  EXPECT_EQ(WireErrorFromStatus(Status::CryptoError("x")),
            WireError::kInternal);
}

TEST_F(WireTest, ResponseFrameRoundTrips) {
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  ResponseFrame answer = ResponseFrame::Decode(
                             ResponseFrame::WrapAnswer(payload))
                             .value();
  EXPECT_FALSE(answer.is_error);
  EXPECT_EQ(answer.answer, payload);

  ErrorMessage err;
  err.code = WireError::kDeadlineExceeded;
  err.detail = "too slow";
  ResponseFrame error =
      ResponseFrame::Decode(ResponseFrame::WrapError(err)).value();
  ASSERT_TRUE(error.is_error);
  EXPECT_EQ(error.error.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(error.error.detail, "too slow");

  EXPECT_FALSE(ResponseFrame::Decode({}).ok());
  EXPECT_FALSE(ResponseFrame::Decode({0x09}).ok());  // unknown tag
}

TEST_F(WireTest, ResponseFrameDetectsCorruption) {
  Encryptor enc(keys_->pub);
  AnswerMessage msg;
  msg.ciphertexts.push_back(enc.Encrypt(BigInt(7), *rng_, 1).value());
  std::vector<uint8_t> frame =
      ResponseFrame::WrapAnswer(msg.Encode(keys_->pub).value());
  // Flip one bit anywhere in the frame: decode must fail cleanly. A flip
  // in the payload trips the CRC; a flip in the stored CRC mismatches the
  // payload; a flip in the tag is an unknown tag (or a CRC'd mismatch).
  for (size_t pos : std::vector<size_t>{0, 1, 4, 5, frame.size() / 2,
                                        frame.size() - 1}) {
    std::vector<uint8_t> bad = frame;
    bad[pos] ^= 0x10;
    EXPECT_FALSE(ResponseFrame::Decode(bad).ok()) << "pos=" << pos;
  }
}

// --- exhaustive truncation fuzz: every prefix of a valid encoding must
// --- produce a clean Status error (never UB, an abort, or acceptance).

TEST_F(WireTest, ResponseFrameEveryTruncationFailsCleanly) {
  ErrorMessage err;
  err.code = WireError::kOverloaded;
  err.detail = "queue full";
  const std::vector<uint8_t> frame = ResponseFrame::WrapError(err);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + cut);
    EXPECT_FALSE(ResponseFrame::Decode(prefix).ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(ResponseFrame::Decode(frame).ok());
}

TEST_F(WireTest, ErrorMessageEveryTruncationFailsCleanly) {
  ErrorMessage err;
  err.code = WireError::kMalformed;
  err.detail = "bad query bytes";
  const std::vector<uint8_t> bytes = err.Encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(ErrorMessage::Decode(prefix).ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(ErrorMessage::Decode(bytes).ok());
}

TEST_F(WireTest, AnswerMessageEveryTruncationFailsCleanly) {
  Encryptor enc(keys_->pub);
  for (int level : {1, 2}) {
    AnswerMessage msg;
    for (int i = 0; i < 2; ++i) {
      msg.ciphertexts.push_back(
          enc.Encrypt(BigInt(10 + i), *rng_, level).value());
    }
    const std::vector<uint8_t> bytes = msg.Encode(keys_->pub).value();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(AnswerMessage::Decode(prefix, keys_->pub).ok())
          << "level=" << level << " cut=" << cut;
    }
    EXPECT_TRUE(AnswerMessage::Decode(bytes, keys_->pub).ok());
  }
}

// --- wire-version-2 trailer: deadline + idempotency key ---

TEST_F(WireTest, QueryTrailerRoundTripPlainAndOpt) {
  for (bool opt : {false, true}) {
    QueryMessage msg = PlainQuery();
    if (opt) {
      msg.indicator.clear();
      msg.is_opt = true;
      Encryptor enc(keys_->pub);
      msg.opt_indicator = EncryptOptIndicator(enc, 7, 8, 2, *rng_).value();
    }
    msg.deadline_ms = 1500;
    msg.idempotency_key = 0xDEADBEEFCAFEF00Dull;
    QueryMessage decoded = QueryMessage::Decode(msg.Encode().value()).value();
    EXPECT_EQ(decoded.deadline_ms, 1500u) << "opt=" << opt;
    EXPECT_EQ(decoded.idempotency_key, 0xDEADBEEFCAFEF00Dull)
        << "opt=" << opt;
  }
}

TEST_F(WireTest, QueryTrailerAbsentWhenFieldsZero) {
  // Zero fields must produce the byte-identical version-1 frame, and a
  // version-1 frame must decode with the fields reading as absent (zero).
  QueryMessage v1 = PlainQuery();
  QueryMessage v2 = v1;
  v2.deadline_ms = 0;
  v2.idempotency_key = 0;
  EXPECT_EQ(v1.Encode().value(), v2.Encode().value());
  QueryMessage decoded = QueryMessage::Decode(v1.Encode().value()).value();
  EXPECT_EQ(decoded.deadline_ms, 0u);
  EXPECT_EQ(decoded.idempotency_key, 0u);
}

TEST_F(WireTest, QueryTrailerKeyAloneStillEmitsTrailer) {
  // An idempotency key without a deadline is a legal combination (client
  // dedup tagging with no budget): the trailer must still round-trip.
  QueryMessage msg = PlainQuery();
  msg.idempotency_key = 42;
  QueryMessage decoded = QueryMessage::Decode(msg.Encode().value()).value();
  EXPECT_EQ(decoded.deadline_ms, 0u);
  EXPECT_EQ(decoded.idempotency_key, 42u);
}

TEST_F(WireTest, QueryTrailerEveryTruncationFailsCleanly) {
  QueryMessage msg = PlainQuery();
  const size_t v1_len = msg.Encode().value().size();
  msg.deadline_ms = 250;
  msg.idempotency_key = 7;
  const std::vector<uint8_t> bytes = msg.Encode().value();
  ASSERT_GT(bytes.size(), v1_len);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    auto decoded = QueryMessage::Decode(prefix);
    if (cut == v1_len) {
      // Cutting exactly at the trailer boundary reconstructs the valid
      // version-1 frame: it must decode, with both fields absent.
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value().deadline_ms, 0u);
      EXPECT_EQ(decoded.value().idempotency_key, 0u);
    } else {
      EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    }
  }
  EXPECT_TRUE(QueryMessage::Decode(bytes).ok());
}

TEST_F(WireTest, QueryTrailerRejectsUnknownTagAndOversizedDeadline) {
  QueryMessage msg = PlainQuery();
  std::vector<uint8_t> bytes = msg.Encode().value();
  bytes.push_back(0x52);  // not kQueryTrailerTag
  EXPECT_FALSE(QueryMessage::Decode(bytes).ok());

  msg.deadline_ms = kMaxWireMillis + 1;
  EXPECT_FALSE(msg.Encode().ok());
}

TEST_F(WireTest, PeekQueryHeaderAgreesWithDecode) {
  for (bool opt : {false, true}) {
    for (bool trailer : {false, true}) {
      QueryMessage msg = PlainQuery();
      if (opt) {
        msg.indicator.clear();
        msg.is_opt = true;
        Encryptor enc(keys_->pub);
        msg.opt_indicator = EncryptOptIndicator(enc, 7, 8, 2, *rng_).value();
      }
      if (trailer) {
        msg.deadline_ms = 900;
        msg.idempotency_key = 123;
      }
      const std::vector<uint8_t> bytes = msg.Encode().value();
      QueryWireHeader header = PeekQueryHeader(bytes).value();
      QueryMessage decoded = QueryMessage::Decode(bytes).value();
      EXPECT_EQ(header.k, decoded.k);
      EXPECT_EQ(header.delta_prime, decoded.plan.delta_prime);
      EXPECT_EQ(header.key_bits, decoded.pk.key_bits);
      EXPECT_EQ(header.is_opt, decoded.is_opt);
      if (opt) {
        EXPECT_EQ(header.omega, decoded.opt_indicator.omega);
      }
      EXPECT_EQ(header.deadline_ms, decoded.deadline_ms);
      EXPECT_EQ(header.idempotency_key, decoded.idempotency_key);
    }
  }
}

TEST_F(WireTest, PeekQueryHeaderEveryTruncationFailsCleanly) {
  // A version-1 frame (no trailer) has no valid strict prefix: the peek
  // must reject every cut without touching ciphertext bytes.
  QueryMessage msg = PlainQuery();
  const std::vector<uint8_t> bytes = msg.Encode().value();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(PeekQueryHeader(prefix).ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(PeekQueryHeader(bytes).ok());
}

TEST_F(WireTest, PeekQueryHeaderFailsExactlyWhenDecodeFails) {
  // Admission prices a query by its peeked header, so a header the
  // decoders reject must not peek cleanly: it would be shed as a
  // retryable kOverloaded instead of answered as a terminal kMalformed.
  std::vector<std::vector<uint8_t>> inputs;
  for (double theta0 : {std::numeric_limits<double>::quiet_NaN(), 2.0}) {
    QueryMessage msg = PlainQuery();
    msg.theta0 = theta0;
    inputs.push_back(msg.Encode().value());
  }
  {
    QueryMessage msg = PlainQuery();
    msg.aggregate = static_cast<AggregateKind>(7);
    inputs.push_back(msg.Encode().value());
  }
  {
    // The last indicator ciphertext one byte short of its fixed width.
    ByteWriter w = ForgedHeader(8, 2, {2, 2}, {2, 2});
    w.PutU8(0);  // plain indicator
    w.PutVarint(8);
    for (int i = 0; i < 7; ++i) AppendLevelCiphertext(w, 1);
    w.PutBytes(std::vector<uint8_t>(keys_->pub.CiphertextBytes(1) - 1, 1));
    inputs.push_back(w.Release());
  }
  {
    // A public key whose top byte is zero: right width, not full-width.
    std::vector<uint8_t> bytes = PlainQuery().Encode().value();
    const std::vector<uint8_t> pk =
        keys_->pub.n.ToBytesPadded(keys_->pub.ByteSize()).value();
    auto at = std::search(bytes.begin(), bytes.end(), pk.begin(), pk.end());
    ASSERT_NE(at, bytes.end());
    *at = 0;
    inputs.push_back(bytes);
  }
  {
    // A shard query naming candidate 1 twice.
    ByteWriter w;
    w.PutU8(0x00);  // shard magic
    w.PutVarint(2);
    w.PutU8(0);  // kSum
    w.PutVarint(2);
    for (int i = 0; i < 2; ++i) {
      w.PutVarint(1);
      w.PutVarint(1);
      w.PutDouble(0.1);
      w.PutDouble(0.2);
    }
    inputs.push_back(w.Release());
  }
  {
    ShardQueryMessage msg;
    msg.k = 2;
    msg.candidates.push_back(
        {0, {{std::numeric_limits<double>::infinity(), 0.2}}});
    inputs.push_back(msg.Encode().value());
  }
  ASSERT_EQ(inputs.size(), 7u);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<uint8_t>& bytes = inputs[i];
    const bool decodes = IsShardQuery(bytes)
                             ? ShardQueryMessage::Decode(bytes).ok()
                             : QueryMessage::Decode(bytes).ok();
    EXPECT_FALSE(decodes) << "input " << i;
    EXPECT_EQ(PeekQueryHeader(bytes).ok(), decodes) << "input " << i;
  }
}

// --- version-gated retry_after_ms hint on error frames ---

TEST_F(WireTest, ErrorMessageRetryAfterRoundTrip) {
  ErrorMessage msg;
  msg.code = WireError::kOverloaded;
  msg.detail = "shed: predicted cost exceeds deadline";
  msg.retry_after_ms = 75;
  ErrorMessage decoded = ErrorMessage::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.code, WireError::kOverloaded);
  EXPECT_EQ(decoded.retry_after_ms, 75u);
}

TEST_F(WireTest, ErrorMessageRetryAfterAbsentOnOldFrames) {
  ErrorMessage msg;
  msg.code = WireError::kOverloaded;
  msg.detail = "queue full";
  ErrorMessage zero = msg;
  zero.retry_after_ms = 0;
  // Zero hint encodes as the byte-identical version-1 frame...
  EXPECT_EQ(msg.Encode(), zero.Encode());
  // ...and version-1 frames decode with the hint absent.
  ErrorMessage decoded = ErrorMessage::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.retry_after_ms, 0u);
  // An explicit zero varint on the wire is malformed (zero means absent,
  // and absent frames simply end earlier).
  std::vector<uint8_t> bytes = msg.Encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(ErrorMessage::Decode(bytes).ok());
}

TEST_F(WireTest, ErrorMessageRetryAfterClippedAtEncodeRejectedAtDecode) {
  ErrorMessage msg;
  msg.code = WireError::kOverloaded;
  msg.detail = "x";
  msg.retry_after_ms = kMaxWireMillis + 999;
  // Encode clips to the wire ceiling rather than erroring: a hint is
  // advisory, and a clipped hint is still a useful hint.
  ErrorMessage decoded = ErrorMessage::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.retry_after_ms, kMaxWireMillis);
}

TEST_F(WireTest, ErrorMessageWithHintEveryTruncationFailsCleanly) {
  ErrorMessage msg;
  msg.code = WireError::kDeadlineExceeded;
  msg.detail = "expired in queue";
  msg.retry_after_ms = 200;
  const std::vector<uint8_t> bytes = msg.Encode();
  ErrorMessage v1 = msg;
  v1.retry_after_ms = 0;
  const size_t v1_len = v1.Encode().size();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    auto decoded = ErrorMessage::Decode(prefix);
    if (cut == v1_len) {
      ASSERT_TRUE(decoded.ok());  // valid version-1 frame
      EXPECT_EQ(decoded.value().retry_after_ms, 0u);
    } else {
      EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    }
  }
  EXPECT_TRUE(ErrorMessage::Decode(bytes).ok());
}

// --- explicit key_bits on the wire ---

// Regression (pre-fix failing): key_bits used to be reconstructed as
// pk_bytes.size() * 8, which over-reports by up to 7 bits for any key
// size that is not a multiple of 8 — a 252-bit key round-tripped as 256
// bits, desynchronizing PoiCodec widths and CostModel buckets across the
// wire.
TEST_F(WireTest, QueryMessageRoundTripNonByteAlignedKeyBits) {
  Rng rng(2718);
  KeyPair keys = GenerateKeyPair(252, rng).value();
  QueryMessage msg;
  msg.k = 4;
  msg.theta0 = 0.05;
  msg.aggregate = AggregateKind::kSum;
  msg.plan.alpha = 1;
  msg.plan.n_bar = {2};
  msg.plan.d_bar = {2, 2};
  msg.plan.delta_prime = 4;
  msg.pk = keys.pub;
  Encryptor enc(keys.pub);
  msg.indicator = EncryptIndicator(enc, 2, 4, rng).value();
  auto bytes = msg.Encode().value();
  QueryMessage decoded = QueryMessage::Decode(bytes).value();
  EXPECT_EQ(decoded.pk.key_bits, 252);
  EXPECT_EQ(decoded.pk.n, keys.pub.n);
  QueryWireHeader header = PeekQueryHeader(bytes).value();
  EXPECT_EQ(header.key_bits, 252);
  EXPECT_FALSE(header.is_shard);
}

TEST_F(WireTest, QueryDecodeRejectsKeyBitsModulusMismatch) {
  QueryMessage msg = PlainQuery();
  auto bytes = msg.Encode().value();
  QueryMessage decoded = QueryMessage::Decode(bytes).value();
  ASSERT_EQ(decoded.pk.key_bits, 256);
  // Patch the declared key_bits on the wire from 256 to 250. The pk field
  // is still 32 bytes so the width check passes, but the modulus is
  // genuinely 256 bits wide — decode must catch the declared-width /
  // modulus mismatch. Walk the header fields to find the varint's offset.
  ByteReader r(bytes);
  ASSERT_TRUE(r.GetVarint().ok());  // k
  ASSERT_TRUE(r.GetDouble().ok());  // theta0
  ASSERT_TRUE(r.GetU8().ok());      // aggregate
  uint64_t alpha = r.GetVarint().value();
  for (uint64_t j = 0; j < alpha; ++j) ASSERT_TRUE(r.GetVarint().ok());
  uint64_t beta = r.GetVarint().value();
  for (uint64_t i = 0; i < beta; ++i) ASSERT_TRUE(r.GetVarint().ok());
  size_t off = bytes.size() - r.remaining();
  ASSERT_EQ(bytes[off], 0x80);      // varint(256) low byte
  ASSERT_EQ(bytes[off + 1], 0x02);  // varint(256) high byte
  bytes[off] = 0xFA;                // varint(250), same 2-byte width
  bytes[off + 1] = 0x01;
  EXPECT_FALSE(QueryMessage::Decode(bytes).ok());
}

TEST_F(WireTest, QueryDecodeAndPeekRefuseEvenModulus) {
  // Paillier's Montgomery arithmetic needs an odd N, so an even one is
  // refused where it enters, by the decoder and the admission peek alike.
  for (bool opt : {false, true}) {
    QueryMessage msg = PlainQuery();
    if (opt) {
      msg.indicator.clear();
      msg.is_opt = true;
      Encryptor enc(keys_->pub);
      msg.opt_indicator = EncryptOptIndicator(enc, 7, 8, 2, *rng_).value();
    }
    msg.pk.n = msg.pk.n + BigInt(1);  // still full width
    const std::vector<uint8_t> bytes = msg.Encode().value();
    const Result<QueryMessage> decoded = QueryMessage::Decode(bytes);
    const Result<QueryWireHeader> header = PeekQueryHeader(bytes);
    ASSERT_FALSE(decoded.ok()) << "opt " << opt;
    ASSERT_FALSE(header.ok()) << "opt " << opt;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(header.status(), decoded.status());
  }
}

TEST_F(WireTest, QueryEncodeRejectsOutOfRangeKeyBits) {
  QueryMessage msg = PlainQuery();
  msg.pk.key_bits = 32;  // below kMinWireKeyBits
  EXPECT_FALSE(msg.Encode().ok());
  msg = PlainQuery();
  msg.pk.key_bits = (1 << 16) + 8;  // above kMaxWireKeyBits
  EXPECT_FALSE(msg.Encode().ok());
}

// --- shard scatter-gather messages ---

TEST_F(WireTest, ShardQueryMessageRoundTrip) {
  ShardQueryMessage msg;
  msg.k = 5;
  msg.aggregate = AggregateKind::kMin;
  // Raw doubles, deliberately off the quantization grid.
  msg.candidates.push_back({3, {{0.123456789012345, 0.98765432109876}}});
  msg.candidates.push_back({17, {{0.5, 0.25}, {0.750000000001, 0.1}}});
  auto bytes = msg.Encode().value();
  EXPECT_TRUE(IsShardQuery(bytes));
  ShardQueryMessage decoded = ShardQueryMessage::Decode(bytes).value();
  EXPECT_EQ(decoded.k, 5);
  EXPECT_EQ(decoded.aggregate, AggregateKind::kMin);
  ASSERT_EQ(decoded.candidates.size(), 2u);
  EXPECT_EQ(decoded.candidates[0].index, 3u);
  EXPECT_EQ(decoded.candidates[1].index, 17u);
  // Bit-exact: no quantization on the shard path.
  EXPECT_EQ(decoded.candidates[0].locations[0].x, 0.123456789012345);
  EXPECT_EQ(decoded.candidates[1].locations[0].y, 0.25);
  EXPECT_EQ(decoded.deadline_ms, 0u);
  EXPECT_EQ(decoded.idempotency_key, 0u);
}

TEST_F(WireTest, ShardQueryMessageTrailerRoundTrip) {
  ShardQueryMessage msg;
  msg.k = 1;
  msg.candidates.push_back({0, {{0.1, 0.2}}});
  msg.deadline_ms = 1500;
  msg.idempotency_key = 0xFEEDFACEull;
  ShardQueryMessage decoded =
      ShardQueryMessage::Decode(msg.Encode().value()).value();
  EXPECT_EQ(decoded.deadline_ms, 1500u);
  EXPECT_EQ(decoded.idempotency_key, 0xFEEDFACEull);
}

TEST_F(WireTest, ShardQueryIsNeverMistakenForQueryMessage) {
  // A QueryMessage's first byte is the varint k >= 1, never 0x00.
  QueryMessage query = PlainQuery();
  auto query_bytes = query.Encode().value();
  EXPECT_FALSE(IsShardQuery(query_bytes));
  QueryWireHeader header = PeekQueryHeader(query_bytes).value();
  EXPECT_FALSE(header.is_shard);

  ShardQueryMessage shard;
  shard.k = 2;
  shard.candidates.push_back({0, {{0.3, 0.4}}});
  shard.deadline_ms = 250;
  shard.idempotency_key = 99;
  auto shard_bytes = shard.Encode().value();
  EXPECT_TRUE(IsShardQuery(shard_bytes));
  EXPECT_FALSE(QueryMessage::Decode(shard_bytes).ok());
  // The peek understands both shapes at one endpoint.
  QueryWireHeader peeked = PeekQueryHeader(shard_bytes).value();
  EXPECT_TRUE(peeked.is_shard);
  EXPECT_EQ(peeked.k, 2);
  EXPECT_EQ(peeked.delta_prime, 1u);
  EXPECT_EQ(peeked.key_bits, 0);
  EXPECT_EQ(peeked.deadline_ms, 250u);
  EXPECT_EQ(peeked.idempotency_key, 99u);
}

TEST_F(WireTest, ShardQueryEveryTruncationFailsCleanly) {
  ShardQueryMessage msg;
  msg.k = 3;
  msg.candidates.push_back({1, {{0.1, 0.2}, {0.3, 0.4}}});
  msg.deadline_ms = 777;
  msg.idempotency_key = 42;
  const auto bytes = msg.Encode().value();
  ShardQueryMessage v1 = msg;
  v1.deadline_ms = 0;
  v1.idempotency_key = 0;
  const size_t v1_len = v1.Encode().value().size();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    auto decoded = ShardQueryMessage::Decode(prefix);
    if (cut == v1_len) {
      ASSERT_TRUE(decoded.ok());  // valid trailer-less message
    } else {
      EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    }
  }
  EXPECT_TRUE(ShardQueryMessage::Decode(bytes).ok());
}

TEST_F(WireTest, ShardQueryRejectsNonFiniteLocations) {
  ShardQueryMessage msg;
  msg.k = 1;
  msg.candidates.push_back(
      {0, {{std::numeric_limits<double>::quiet_NaN(), 0.5}}});
  auto bytes = msg.Encode().value();  // encode does not inspect values
  EXPECT_FALSE(ShardQueryMessage::Decode(bytes).ok());
}

TEST_F(WireTest, ShardAnswerMessageRoundTrip) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c0;
  c0.index = 2;
  c0.results.push_back({7, {0.111111111111, 0.22222222222}, 0.0333333});
  c0.results.push_back({9, {0.4, 0.5}, 0.0666666});
  ShardAnswerMessage::CandidateResult c1;
  c1.index = 5;  // empty result list (shard held no nearby POIs)
  msg.candidates.push_back(c0);
  msg.candidates.push_back(c1);
  auto bytes = msg.Encode().value();
  ShardAnswerMessage decoded = ShardAnswerMessage::Decode(bytes).value();
  ASSERT_EQ(decoded.candidates.size(), 2u);
  EXPECT_EQ(decoded.candidates[0].index, 2u);
  ASSERT_EQ(decoded.candidates[0].results.size(), 2u);
  EXPECT_EQ(decoded.candidates[0].results[0].poi_id, 7u);
  EXPECT_EQ(decoded.candidates[0].results[0].location.x, 0.111111111111);
  EXPECT_EQ(decoded.candidates[0].results[0].cost, 0.0333333);
  EXPECT_TRUE(decoded.candidates[1].results.empty());
}

TEST_F(WireTest, ShardAnswerEveryTruncationFailsCleanly) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c;
  c.index = 0;
  c.results.push_back({1, {0.1, 0.2}, 0.3});
  msg.candidates.push_back(c);
  const auto bytes = msg.Encode().value();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(ShardAnswerMessage::Decode(prefix).ok()) << "cut=" << cut;
  }
  std::vector<uint8_t> extended = bytes;
  extended.push_back(0x00);
  EXPECT_FALSE(ShardAnswerMessage::Decode(extended).ok());
  EXPECT_TRUE(ShardAnswerMessage::Decode(bytes).ok());
}

// A NaN cost would violate the strict weak ordering of the coordinator's
// merge sort (undefined behavior in std::sort) — rejected at decode.
TEST_F(WireTest, ShardAnswerRejectsNonFiniteCost) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c;
  c.index = 0;
  c.results.push_back(
      {1, {0.1, 0.2}, std::numeric_limits<double>::quiet_NaN()});
  msg.candidates.push_back(c);
  auto bytes = msg.Encode().value();
  EXPECT_FALSE(ShardAnswerMessage::Decode(bytes).ok());
  c.results[0].cost = std::numeric_limits<double>::infinity();
  msg.candidates[0] = c;
  EXPECT_FALSE(ShardAnswerMessage::Decode(msg.Encode().value()).ok());
}

// A compromised or buggy replica repeating a POI id could double-count
// it in the merged top-k. The decode — the trust boundary between the
// coordinator and the shard wire — rejects the frame outright. The
// duplicate is introduced by byte-patching a valid frame, so the test
// pins the wire layout, not the encoder's cooperation.
TEST_F(WireTest, ShardAnswerRejectsDuplicatePoiIdByBytePatch) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c;
  c.index = 0;
  c.results.push_back({1, {0.1, 0.2}, 0.25});
  c.results.push_back({2, {0.3, 0.4}, 0.50});
  msg.candidates.push_back(c);
  auto bytes = msg.Encode().value();
  ASSERT_TRUE(ShardAnswerMessage::Decode(bytes).ok());

  // Layout: magic, candidate count, index, result count (1 byte each
  // here), then 28-byte results (u32 id + 3 doubles). Overwrite the
  // second result's id with the first's.
  const size_t first_id = 4, second_id = 4 + 28;
  ASSERT_GE(bytes.size(), second_id + 4);
  std::vector<uint8_t> patched = bytes;
  for (size_t b = 0; b < 4; ++b) {
    patched[second_id + b] = bytes[first_id + b];
  }
  auto decoded = ShardAnswerMessage::Decode(patched);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("duplicate"), std::string::npos);
}

// Results must arrive in strictly increasing (cost, id) order — the
// order the merge relies on. Out-of-order costs and equal-cost id ties
// are both rejected.
TEST_F(WireTest, ShardAnswerRejectsOutOfOrderResults) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c;
  c.index = 0;
  c.results.push_back({1, {0.1, 0.2}, 0.50});
  c.results.push_back({2, {0.3, 0.4}, 0.25});  // cost decreases
  msg.candidates.push_back(c);
  auto decoded = ShardAnswerMessage::Decode(msg.Encode().value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("order"), std::string::npos);

  // Equal costs must still be ordered by id; a tie (or inversion) in the
  // id tiebreak is the same malformed frame.
  c.results[0] = {5, {0.1, 0.2}, 0.25};
  c.results[1] = {3, {0.3, 0.4}, 0.25};
  msg.candidates[0] = c;
  EXPECT_FALSE(ShardAnswerMessage::Decode(msg.Encode().value()).ok());

  // The well-ordered version of the same rows decodes fine.
  c.results[0] = {3, {0.3, 0.4}, 0.25};
  c.results[1] = {5, {0.1, 0.2}, 0.25};
  msg.candidates[0] = c;
  EXPECT_TRUE(ShardAnswerMessage::Decode(msg.Encode().value()).ok());
}

// A repeated candidate index would make the coordinator's merge append
// two lists to one candidate, so one POI could appear twice in its
// top-k. Both shard messages need strictly ascending indices: encoders
// refuse anything else, and decoders reject it, shown by byte-patching
// valid frames.
TEST_F(WireTest, ShardMessagesRejectRepeatedCandidateIndex) {
  ShardAnswerMessage answer;
  ShardAnswerMessage::CandidateResult c0, c1;
  c0.index = 1;
  c0.results.push_back({7, {0.1, 0.2}, 0.25});
  c1.index = 2;
  c1.results.push_back({7, {0.1, 0.2}, 0.25});
  answer.candidates = {c0, c1};
  const auto answer_bytes = answer.Encode().value();
  ASSERT_TRUE(ShardAnswerMessage::Decode(answer_bytes).ok());
  // Layout: magic, candidate count, then per candidate its index and
  // result count (1 byte each here) and 28-byte results.
  const size_t answer_index = 2 + 2 + 28;
  ASSERT_EQ(answer_bytes[answer_index], 2);
  for (uint8_t index : {1, 0}) {  // repeated, then descending
    std::vector<uint8_t> patched = answer_bytes;
    patched[answer_index] = index;
    auto decoded = ShardAnswerMessage::Decode(patched);
    ASSERT_FALSE(decoded.ok()) << "index=" << int{index};
    EXPECT_NE(decoded.status().ToString().find("ascending"),
              std::string::npos);
  }
  answer.candidates[1].index = 1;
  EXPECT_FALSE(answer.Encode().ok());

  ShardQueryMessage query;
  query.k = 2;
  query.candidates.push_back({1, {{0.1, 0.2}}});
  query.candidates.push_back({2, {{0.1, 0.2}}});
  const auto query_bytes = query.Encode().value();
  ASSERT_TRUE(ShardQueryMessage::Decode(query_bytes).ok());
  // Layout: magic, k, aggregate, candidate count, then per candidate its
  // index and point count (1 byte each here) and 16-byte points.
  const size_t query_index = 4 + 2 + 16;
  ASSERT_EQ(query_bytes[query_index], 2);
  for (uint8_t index : {1, 0}) {
    std::vector<uint8_t> patched = query_bytes;
    patched[query_index] = index;
    auto decoded = ShardQueryMessage::Decode(patched);
    ASSERT_FALSE(decoded.ok()) << "index=" << int{index};
    EXPECT_NE(decoded.status().ToString().find("ascending"),
              std::string::npos);
  }
  query.candidates[1].index = 1;
  EXPECT_FALSE(query.Encode().ok());
}

// Duplicate ids are scoped per candidate: two candidates may (and do)
// legitimately rank the same POI.
TEST_F(WireTest, ShardAnswerAllowsSamePoiAcrossCandidates) {
  ShardAnswerMessage msg;
  ShardAnswerMessage::CandidateResult c0, c1;
  c0.index = 0;
  c0.results.push_back({7, {0.1, 0.2}, 0.25});
  c1.index = 1;
  c1.results.push_back({7, {0.1, 0.2}, 0.30});
  msg.candidates.push_back(c0);
  msg.candidates.push_back(c1);
  EXPECT_TRUE(ShardAnswerMessage::Decode(msg.Encode().value()).ok());
}

}  // namespace
}  // namespace ppgnn
