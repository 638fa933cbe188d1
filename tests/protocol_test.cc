#include "core/protocol.h"

#include <gtest/gtest.h>

#include "bigint/fixedbase.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

// Shared fixtures: a mid-sized database and fixed keys so each test does
// not pay key generation.
class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new LspDatabase(GenerateSequoiaLike(5000, 321));
    Rng rng(999);
    keys_ = new KeyPair(GenerateKeyPair(256, rng).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete keys_;
  }

  static ProtocolParams SmallParams() {
    ProtocolParams params;
    params.n = 4;
    params.d = 6;
    params.delta = 12;
    params.k = 4;
    params.key_bits = 256;
    params.theta0 = 0.05;
    return params;
  }

  // SmallParams sized for 512-bit keys but run under the fixture's
  // 256-bit keys, unsanitized: k = 4 then needs two packed integers under
  // the key the answer is encrypted with, so the answer width must come
  // from that key, not from params.key_bits.
  static ProtocolParams KeySizeMismatchParams() {
    ProtocolParams params = SmallParams();
    params.key_bits = 512;
    params.sanitize = false;
    return params;
  }

  static std::vector<Point> Group(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> out(n);
    for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
    return out;
  }

  static void ExpectMatchesReference(Variant variant,
                                     const ProtocolParams& params,
                                     uint64_t seed) {
    auto group = Group(params.n, seed);
    Rng rng(seed * 3 + 1);
    auto outcome = RunQuery(variant, params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    Rng ref_rng(0);
    auto reference = ReferenceAnswer(params, group, *db_, ref_rng);
    ASSERT_EQ(outcome->pois.size(), reference.size())
        << VariantToString(variant);
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(outcome->pois[i].x, reference[i].poi.location.x, 1e-8);
      EXPECT_NEAR(outcome->pois[i].y, reference[i].poi.location.y, 1e-8);
    }
  }

  static LspDatabase* db_;
  static KeyPair* keys_;
};
LspDatabase* ProtocolTest::db_ = nullptr;
KeyPair* ProtocolTest::keys_ = nullptr;

TEST_F(ProtocolTest, ParamsValidation) {
  ProtocolParams p = SmallParams();
  EXPECT_TRUE(p.Validate().ok());
  p.n = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.d = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.delta = p.d - 1;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.k = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.theta0 = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.key_bits = 100;
  EXPECT_FALSE(p.Validate().ok());
}

TEST_F(ProtocolTest, EffectiveDeltaSingleUser) {
  ProtocolParams p = SmallParams();
  p.n = 1;
  EXPECT_EQ(p.EffectiveDelta(), p.d);
  p.n = 4;
  EXPECT_EQ(p.EffectiveDelta(), p.delta);
}

TEST_F(ProtocolTest, PpgnnGroupMatchesPlaintextReference) {
  ExpectMatchesReference(Variant::kPpgnn, SmallParams(), 11);
  ExpectMatchesReference(Variant::kPpgnn, SmallParams(), 12);
  ExpectMatchesReference(Variant::kPpgnn, KeySizeMismatchParams(), 11);
}

TEST_F(ProtocolTest, PpgnnOptMatchesPlaintextReference) {
  ExpectMatchesReference(Variant::kPpgnnOpt, SmallParams(), 13);
  ExpectMatchesReference(Variant::kPpgnnOpt, SmallParams(), 14);
  ExpectMatchesReference(Variant::kPpgnnOpt, KeySizeMismatchParams(), 12);
}

TEST_F(ProtocolTest, NaiveMatchesPlaintextReference) {
  ExpectMatchesReference(Variant::kNaive, SmallParams(), 15);
  ExpectMatchesReference(Variant::kNaive, KeySizeMismatchParams(), 13);
}

TEST_F(ProtocolTest, SingleUserQueryMatchesKnn) {
  ProtocolParams params = SmallParams();
  params.n = 1;
  params.d = 8;
  ExpectMatchesReference(Variant::kPpgnn, params, 21);
  ExpectMatchesReference(Variant::kPpgnnOpt, params, 22);
}

TEST_F(ProtocolTest, SingleUserReturnsFullK) {
  // No Privacy IV for n = 1: no sanitation, full k POIs come back.
  ProtocolParams params = SmallParams();
  params.n = 1;
  auto group = Group(1, 31);
  Rng rng(32);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->pois.size(), static_cast<size_t>(params.k));
  EXPECT_EQ(outcome->info.sanitize_samples, 0u);
}

TEST_F(ProtocolTest, NasVariantSkipsSanitation) {
  ProtocolParams params = SmallParams();
  params.sanitize = false;
  auto group = Group(params.n, 41);
  Rng rng(42);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->pois.size(), static_cast<size_t>(params.k));
  EXPECT_EQ(outcome->info.sanitize_samples, 0u);
  EXPECT_DOUBLE_EQ(outcome->info.sanitize_seconds, 0.0);
}

TEST_F(ProtocolTest, SanitationNeverReturnsEmptyAnswer) {
  ProtocolParams params = SmallParams();
  for (uint64_t seed = 50; seed < 56; ++seed) {
    auto group = Group(params.n, seed);
    Rng rng(seed);
    auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok());
    EXPECT_GE(outcome->pois.size(), 1u);
    EXPECT_LE(outcome->pois.size(), static_cast<size_t>(params.k));
  }
}

TEST_F(ProtocolTest, DeltaPrimeRespectsPrivacyII) {
  ProtocolParams params = SmallParams();
  auto group = Group(params.n, 61);
  Rng rng(62);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->info.delta_prime,
            static_cast<uint64_t>(params.delta));
}

TEST_F(ProtocolTest, NaiveUsesExactlyDeltaCandidates) {
  ProtocolParams params = SmallParams();
  auto group = Group(params.n, 71);
  Rng rng(72);
  auto outcome = RunQuery(Variant::kNaive, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->info.delta_prime,
            static_cast<uint64_t>(params.delta));
}

TEST_F(ProtocolTest, CommunicationCostOrdering) {
  // Fig 6a: Naive > PPGNN > PPGNN-OPT on communication for large delta.
  ProtocolParams params = SmallParams();
  params.n = 4;
  params.d = 8;
  params.delta = 64;
  params.sanitize = false;  // speeds the test; comm unaffected
  auto group = Group(params.n, 81);
  uint64_t comm[3];
  Variant variants[] = {Variant::kNaive, Variant::kPpgnn, Variant::kPpgnnOpt};
  for (int i = 0; i < 3; ++i) {
    Rng rng(82);
    auto outcome = RunQuery(variants[i], params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    comm[i] = outcome->costs.TotalCommBytes();
  }
  EXPECT_GT(comm[0], comm[1]);  // Naive > PPGNN
  EXPECT_GT(comm[1], comm[2]);  // PPGNN > OPT
}

TEST_F(ProtocolTest, OptUsesSqrtScaleIndicator) {
  ProtocolParams params = SmallParams();
  params.delta = 49;
  params.d = 8;
  params.sanitize = false;
  auto group = Group(params.n, 91);
  Rng rng(92);
  auto outcome = RunQuery(Variant::kPpgnnOpt, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->info.omega, 2u);
  EXPECT_LE(outcome->info.omega, 12u);
}

TEST_F(ProtocolTest, CostsArePopulated) {
  ProtocolParams params = SmallParams();
  auto group = Group(params.n, 101);
  Rng rng(102);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok());
  const CostReport& costs = outcome->costs;
  EXPECT_GT(costs.bytes_user_to_lsp, 0u);
  EXPECT_GT(costs.bytes_lsp_to_user, 0u);
  EXPECT_GT(costs.bytes_user_to_user, 0u);  // pos broadcast + answer
  EXPECT_GT(costs.user_seconds, 0.0);
  EXPECT_GT(costs.lsp_seconds, 0.0);
  // Sanitation dominates but never exceeds total LSP time.
  EXPECT_LE(outcome->info.sanitize_seconds, costs.lsp_seconds + 1e-9);
}

TEST_F(ProtocolTest, RejectsWrongGroupSize) {
  ProtocolParams params = SmallParams();
  auto group = Group(params.n - 1, 111);
  Rng rng(112);
  EXPECT_FALSE(RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_).ok());
}

TEST_F(ProtocolTest, NaiveRejectsSingleUser) {
  ProtocolParams params = SmallParams();
  params.n = 1;
  auto group = Group(1, 121);
  Rng rng(122);
  EXPECT_FALSE(RunQuery(Variant::kNaive, params, group, *db_, rng, keys_).ok());
}

TEST_F(ProtocolTest, FreshKeysPerQueryAlsoWork) {
  ProtocolParams params = SmallParams();
  params.key_bits = 128;
  params.sanitize = false;
  auto group = Group(params.n, 131);
  Rng rng(132);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GE(outcome->pois.size(), 1u);

  // PPGNN-OPT takes the same 128-bit floor: its layered answer under a
  // fresh 128-bit key still decrypts to the plaintext reference.
  Rng opt_rng(133);
  auto opt = RunQuery(Variant::kPpgnnOpt, params, group, *db_, opt_rng);
  ASSERT_TRUE(opt.ok()) << opt.status();
  Rng ref_rng(0);
  auto reference = ReferenceAnswer(params, group, *db_, ref_rng);
  ASSERT_EQ(opt->pois.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(opt->pois[i].x, reference[i].poi.location.x, 1e-8);
    EXPECT_NEAR(opt->pois[i].y, reference[i].poi.location.y, 1e-8);
  }
}

TEST_F(ProtocolTest, FreshKeyQueriesLeaveTheTableRegistryAlone) {
  // The users hold p and q, so RunQuery blinds as a key holder, on tables
  // its own Encryptor builds and drops: a fresh key per query adds no
  // full-width table to the process-wide registry.
  ProtocolParams params = SmallParams();
  params.sanitize = false;
  for (Variant variant : {Variant::kPpgnn, Variant::kPpgnnOpt}) {
    const FixedBaseRegistryStats before = SharedFixedBaseRegistryStats();
    auto group = Group(params.n, 141);
    Rng rng(142);
    auto outcome = RunQuery(variant, params, group, *db_, rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    const FixedBaseRegistryStats after = SharedFixedBaseRegistryStats();
    EXPECT_EQ(after.engines, before.engines) << VariantToString(variant);
    EXPECT_EQ(after.misses, before.misses) << VariantToString(variant);
    Rng ref_rng(0);
    auto reference = ReferenceAnswer(params, group, *db_, ref_rng);
    ASSERT_EQ(outcome->pois.size(), reference.size())
        << VariantToString(variant);
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(outcome->pois[i].x, reference[i].poi.location.x, 1e-8);
      EXPECT_NEAR(outcome->pois[i].y, reference[i].poi.location.y, 1e-8);
    }
  }
}

TEST_F(ProtocolTest, AnswerWidthMatchesCodec) {
  ProtocolParams params = SmallParams();
  params.k = 4;  // 256-bit key packs 3 POIs/int -> m = 2
  auto group = Group(params.n, 141);
  Rng rng(142);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->info.answer_width_m, 2u);
}

TEST_F(ProtocolTest, ParallelLspIsDeterministic) {
  // The per-candidate sanitation seed makes the answer independent of the
  // LSP thread count, and the reported LSP cost stays total-work.
  ProtocolParams params = SmallParams();
  auto group = Group(params.n, 171);
  std::vector<Point> baseline;
  for (int threads : {1, 2, 4, 7}) {
    params.lsp_threads = threads;
    Rng rng(172);
    auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (threads == 1) {
      baseline = outcome->pois;
      EXPECT_DOUBLE_EQ(outcome->info.lsp_parallel_seconds, 0.0);
    } else {
      ASSERT_EQ(outcome->pois.size(), baseline.size()) << threads;
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(outcome->pois[i], baseline[i]) << threads;
      }
      EXPECT_GT(outcome->info.lsp_parallel_seconds, 0.0);
    }
  }
}

TEST_F(ProtocolTest, ParamsRejectBadThreadCount) {
  ProtocolParams params = SmallParams();
  params.lsp_threads = 0;
  EXPECT_FALSE(params.Validate().ok());
  params.lsp_threads = 500;
  EXPECT_FALSE(params.Validate().ok());
}

TEST_F(ProtocolTest, VariantNames) {
  EXPECT_STREQ(VariantToString(Variant::kPpgnn), "PPGNN");
  EXPECT_STREQ(VariantToString(Variant::kPpgnnOpt), "PPGNN-OPT");
  EXPECT_STREQ(VariantToString(Variant::kNaive), "Naive");
}

TEST_F(ProtocolTest, TinyDatabaseReturnsAllPois) {
  // k > |D|: the kGNN black box returns everything; the codec and the
  // selection must handle answers shorter than k.
  LspDatabase tiny(GenerateUniform(3, 1));
  ProtocolParams params = SmallParams();
  params.k = 8;
  params.sanitize = false;
  auto group = Group(params.n, 201);
  Rng rng(202);
  auto outcome = RunQuery(Variant::kPpgnn, params, group, tiny, rng, keys_);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->pois.size(), 3u);
}

TEST_F(ProtocolTest, CustomTestConfigPropagates) {
  // A stricter gamma means a larger N_H, visible as more Monte-Carlo
  // samples drawn per test on average.
  ProtocolParams params = SmallParams();
  auto group = Group(params.n, 211);
  uint64_t samples_loose, samples_strict;
  {
    params.test.gamma = 0.2;
    Rng rng(212);
    auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok());
    samples_loose = outcome->info.sanitize_samples;
  }
  {
    params.test.gamma = 0.01;
    params.test.phi = 0.05;  // smaller effect size -> much larger N_H
    Rng rng(212);
    auto outcome = RunQuery(Variant::kPpgnn, params, group, *db_, rng, keys_);
    ASSERT_TRUE(outcome.ok());
    samples_strict = outcome->info.sanitize_samples;
  }
  EXPECT_GT(samples_strict, samples_loose);
}

struct SweepCase {
  Variant variant;
  int n;
  AggregateKind kind;
};

class ProtocolSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolSweepTest, MatchesReferenceAcrossTheMatrix) {
  const SweepCase& c = GetParam();
  static LspDatabase* db = new LspDatabase(GenerateSequoiaLike(3000, 555));
  static KeyPair* keys = [] {
    Rng rng(556);
    return new KeyPair(GenerateKeyPair(256, rng).value());
  }();

  ProtocolParams params;
  params.n = c.n;
  params.d = 4;
  params.delta = 8;
  params.k = 3;
  params.key_bits = 256;
  params.aggregate = c.kind;
  Rng group_rng(600 + c.n);
  std::vector<Point> group(c.n);
  for (Point& p : group) p = {group_rng.NextDouble(), group_rng.NextDouble()};

  Rng rng(601);
  auto outcome = RunQuery(c.variant, params, group, *db, rng, keys);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  Rng ref_rng(0);
  auto reference = ReferenceAnswer(params, group, *db, ref_rng);
  ASSERT_EQ(outcome->pois.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(outcome->pois[i].x, reference[i].poi.location.x, 1e-8);
    EXPECT_NEAR(outcome->pois[i].y, reference[i].poi.location.y, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtocolSweepTest,
    ::testing::Values(
        SweepCase{Variant::kPpgnn, 1, AggregateKind::kSum},
        SweepCase{Variant::kPpgnn, 2, AggregateKind::kSum},
        SweepCase{Variant::kPpgnn, 5, AggregateKind::kMax},
        SweepCase{Variant::kPpgnn, 5, AggregateKind::kMin},
        SweepCase{Variant::kPpgnnOpt, 1, AggregateKind::kSum},
        SweepCase{Variant::kPpgnnOpt, 2, AggregateKind::kMax},
        SweepCase{Variant::kPpgnnOpt, 5, AggregateKind::kSum},
        SweepCase{Variant::kNaive, 2, AggregateKind::kSum},
        SweepCase{Variant::kNaive, 5, AggregateKind::kMin}));

TEST_F(ProtocolTest, MaxAggregateEndToEnd) {
  ProtocolParams params = SmallParams();
  params.aggregate = AggregateKind::kMax;
  ExpectMatchesReference(Variant::kPpgnn, params, 151);
}

TEST_F(ProtocolTest, MinAggregateEndToEnd) {
  ProtocolParams params = SmallParams();
  params.aggregate = AggregateKind::kMin;
  ExpectMatchesReference(Variant::kPpgnn, params, 161);
}

}  // namespace
}  // namespace ppgnn
