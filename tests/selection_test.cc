#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "bigint/montgomery.h"

namespace ppgnn {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(4242);
    keys_ = new KeyPair(GenerateKeyPair(256, *rng_).value());
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
  }

  // Builds an m x cols matrix with distinct recognizable entries:
  // column c, row r holds 1000*c + r + 1.
  static AnswerMatrix TestMatrix(size_t rows, size_t cols) {
    AnswerMatrix matrix;
    matrix.columns.resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      for (size_t r = 0; r < rows; ++r) {
        matrix.columns[c].push_back(
            BigInt(static_cast<uint64_t>(1000 * c + r + 1)));
      }
    }
    return matrix;
  }

  static Rng* rng_;
  static KeyPair* keys_;
};
Rng* SelectionTest::rng_ = nullptr;
KeyPair* SelectionTest::keys_ = nullptr;

TEST_F(SelectionTest, MatrixValidation) {
  AnswerMatrix empty;
  EXPECT_FALSE(empty.Validate().ok());
  AnswerMatrix no_rows;
  no_rows.columns = {{}};
  EXPECT_FALSE(no_rows.Validate().ok());
  AnswerMatrix ragged;
  ragged.columns = {{BigInt(1)}, {BigInt(1), BigInt(2)}};
  EXPECT_FALSE(ragged.Validate().ok());
  AnswerMatrix ok = TestMatrix(2, 3);
  EXPECT_TRUE(ok.Validate().ok());
  EXPECT_EQ(ok.Rows(), 2u);
  EXPECT_EQ(ok.Cols(), 3u);
}

TEST_F(SelectionTest, SelectsEveryColumnCorrectly) {
  // Theorem 3.1 exactness: for each hot position, the selected column
  // decrypts to exactly that candidate's answer.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  const size_t rows = 3, cols = 5;
  AnswerMatrix matrix = TestMatrix(rows, cols);
  for (uint64_t qi = 1; qi <= cols; ++qi) {
    auto indicator = EncryptIndicator(enc, qi, cols, *rng_).value();
    auto selected = PrivateSelect(enc, matrix, indicator).value();
    ASSERT_EQ(selected.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(dec.Decrypt(selected[r]).value(), matrix.columns[qi - 1][r]);
    }
  }
}

TEST_F(SelectionTest, RejectsDimensionMismatch) {
  Encryptor enc(keys_->pub);
  AnswerMatrix matrix = TestMatrix(2, 4);
  auto indicator = EncryptIndicator(enc, 1, 3, *rng_).value();
  EXPECT_FALSE(PrivateSelect(enc, matrix, indicator).ok());
}

TEST_F(SelectionTest, TwoPhaseSelectsEveryColumn) {
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  const size_t rows = 2, cols = 10;
  const uint64_t omega = 3;  // block_size = ceil(10/3) = 4, padded to 12
  AnswerMatrix matrix = TestMatrix(rows, cols);
  for (uint64_t qi = 1; qi <= cols; ++qi) {
    auto opt = EncryptOptIndicator(enc, qi, cols, omega, *rng_).value();
    auto selected = PrivateSelectTwoPhase(enc, matrix, opt).value();
    ASSERT_EQ(selected.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(selected[r].level, 2);
      EXPECT_EQ(dec.DecryptLayered(selected[r]).value(),
                matrix.columns[qi - 1][r]);
    }
  }
}

TEST_F(SelectionTest, TwoPhaseExactBlockDivision) {
  // cols divisible by omega: no padding path.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  AnswerMatrix matrix = TestMatrix(1, 8);
  auto opt = EncryptOptIndicator(enc, 7, 8, 2, *rng_).value();
  auto selected = PrivateSelectTwoPhase(enc, matrix, opt).value();
  EXPECT_EQ(dec.DecryptLayered(selected[0]).value(), matrix.columns[6][0]);
}

TEST_F(SelectionTest, TwoPhaseSingleBlockDegenerate) {
  // omega = 1 degenerates to single-phase selection wrapped in eps_2.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  AnswerMatrix matrix = TestMatrix(2, 4);
  auto opt = EncryptOptIndicator(enc, 3, 4, 1, *rng_).value();
  auto selected = PrivateSelectTwoPhase(enc, matrix, opt).value();
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(dec.DecryptLayered(selected[r]).value(), matrix.columns[2][r]);
  }
}

TEST_F(SelectionTest, TwoPhaseRejectsUndersizedIndicator) {
  Encryptor enc(keys_->pub);
  AnswerMatrix matrix = TestMatrix(1, 10);
  // Indicator planned for delta' = 6 cannot cover 10 columns.
  auto opt = EncryptOptIndicator(enc, 2, 6, 2, *rng_).value();
  EXPECT_FALSE(PrivateSelectTwoPhase(enc, matrix, opt).ok());
}

TEST_F(SelectionTest, LargeValuesSurviveSelection) {
  // Values close to N (the packed POI integers use nearly all bits).
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  AnswerMatrix matrix;
  BigInt big = keys_->pub.n - BigInt(12345);
  matrix.columns = {{big}, {keys_->pub.n - BigInt(1)}};
  auto indicator = EncryptIndicator(enc, 1, 2, *rng_).value();
  auto selected = PrivateSelect(enc, matrix, indicator).value();
  EXPECT_EQ(dec.Decrypt(selected[0]).value(), big);
}

TEST_F(SelectionTest, BitIdenticalToNaiveDotProduct) {
  // The multi-exp engine is an evaluation-order change over exact residue
  // arithmetic: each selected ciphertext must equal, bit for bit, the
  // serial ScalarMul/Add reference chain over the same indicator.
  Encryptor enc(keys_->pub);
  const size_t rows = 3, cols = 6;
  AnswerMatrix matrix = TestMatrix(rows, cols);
  auto indicator = EncryptIndicator(enc, 4, cols, *rng_).value();
  auto selected = PrivateSelect(enc, matrix, indicator).value();
  ASSERT_EQ(selected.size(), rows);
  std::vector<BigInt> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) row[c] = matrix.columns[c][r];
    Ciphertext naive = enc.DotProductNaive(row, indicator).value();
    EXPECT_EQ(selected[r].value, naive.value) << "row " << r;
    EXPECT_EQ(selected[r].level, naive.level);
  }
}

TEST_F(SelectionTest, ParallelResultBitIdenticalToSerial) {
  // Chunked partial products recombined with Add carry the same residue
  // as the serial evaluation, for both selection variants.
  Encryptor enc(keys_->pub);
  AnswerMatrix matrix = TestMatrix(2, 7);
  auto indicator = EncryptIndicator(enc, 5, 7, *rng_).value();
  auto serial = PrivateSelect(enc, matrix, indicator, /*threads=*/1).value();
  auto parallel = PrivateSelect(enc, matrix, indicator, /*threads=*/3).value();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].value, parallel[r].value) << "row " << r;
  }
  auto opt = EncryptOptIndicator(enc, 5, 7, 3, *rng_).value();
  auto serial2 = PrivateSelectTwoPhase(enc, matrix, opt, 1).value();
  auto parallel2 = PrivateSelectTwoPhase(enc, matrix, opt, 4).value();
  for (size_t r = 0; r < serial2.size(); ++r) {
    EXPECT_EQ(serial2[r].value, parallel2[r].value) << "row " << r;
  }
}

TEST_F(SelectionTest, SelectionHotPathBuildsNoContexts) {
  // All Montgomery contexts are derived when the Encryptor is built; the
  // selection loops themselves must never re-derive one.
  Encryptor enc(keys_->pub);
  AnswerMatrix matrix = TestMatrix(2, 8);
  auto indicator = EncryptIndicator(enc, 3, 8, *rng_).value();
  auto opt = EncryptOptIndicator(enc, 3, 8, 2, *rng_).value();
  const uint64_t before = MontgomeryContext::created_count();
  ASSERT_TRUE(PrivateSelect(enc, matrix, indicator, 2).ok());
  ASSERT_TRUE(PrivateSelectTwoPhase(enc, matrix, opt, 2).ok());
  EXPECT_EQ(MontgomeryContext::created_count(), before);
}

TEST_F(SelectionTest, TwoPhaseCancelledInPhaseOneBuildsNoPhaseTwoEngine) {
  // With the deadline already past, phase 1 fails every row, so phase 2
  // returns before building its [[v2]] engine: on one thread, the only
  // products are those of the [[v1]] engine built up front.
  Encryptor enc(keys_->pub);
  const size_t rows = 2;
  AnswerMatrix matrix = TestMatrix(rows, 8);
  auto opt = EncryptOptIndicator(enc, 3, 8, 2, *rng_).value();
  int matrix_bits = 0;
  for (const auto& column : matrix.columns) {
    matrix_bits = std::max(matrix_bits, MaxBitLength(column));
  }
  uint64_t before = MontgomeryContext::product_count();
  ASSERT_TRUE(enc.MakeDotEngine(opt.v1, matrix_bits, opt.omega * rows).ok());
  const uint64_t v1_products = MontgomeryContext::product_count() - before;

  const Deadline passed = std::chrono::steady_clock::now();
  before = MontgomeryContext::product_count();
  auto selected = PrivateSelectTwoPhase(enc, matrix, opt, /*threads=*/1,
                                        nullptr, passed);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(MontgomeryContext::product_count() - before, v1_products);
}

TEST_F(SelectionTest, ZeroColumnsSelectable) {
  // Padded answers are all-zero integers; selecting them must work.
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  AnswerMatrix matrix;
  matrix.columns = {{BigInt(0)}, {BigInt(5)}};
  auto indicator = EncryptIndicator(enc, 1, 2, *rng_).value();
  auto selected = PrivateSelect(enc, matrix, indicator).value();
  EXPECT_EQ(dec.Decrypt(selected[0]).value(), BigInt(0));
}

}  // namespace
}  // namespace ppgnn
