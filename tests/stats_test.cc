#include "stats/hypothesis.h"
#include "stats/normal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"

namespace ppgnn {
namespace {

using Verdict = SequentialProportionTest::Verdict;

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.0), 1 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(6.0), 1.0, 1e-8);
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644853627, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.8), 0.841621234, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.0013498980316301), -3.0, 1e-6);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p = 0.001; p < 1.0; p += 0.017) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9) << p;
  }
}

TEST(NormalTest, UpperCriticalPaperValues) {
  // z_0.05 ~ 1.645 and z_0.2 ~ 0.842 (the paper's gamma and eta).
  EXPECT_NEAR(UpperCritical(0.05), 1.6449, 1e-3);
  EXPECT_NEAR(UpperCritical(0.2), 0.8416, 1e-3);
}

TEST(NormalTest, UpperCriticalKeepsTheFarTail) {
  // 1 - gamma rounds to 1 below gamma ~ 1.1e-16; z must stay finite.
  EXPECT_NEAR(UpperCritical(1e-20), 9.2623, 1e-3);
  EXPECT_NEAR(UpperCritical(1e-50), 14.9333, 1e-3);
  EXPECT_NEAR(UpperCritical(1e-300), 37.0471, 1e-3);
}

TEST(SampleSizeTest, PaperDefaultsProduceExpectedScale) {
  // theta0 = 0.05, phi = 0.1 -> theta1 = 0.055: N_H lands in the
  // ten-thousands; theta0 = 0.01 needs many more samples.
  TestConfig config;  // gamma 0.05, eta 0.2, phi 0.1
  uint64_t n_05 = RequiredSampleSize(0.05, config).value();
  EXPECT_GT(n_05, 8000u);
  EXPECT_LT(n_05, 20000u);
  uint64_t n_01 = RequiredSampleSize(0.01, config).value();
  EXPECT_GT(n_01, n_05);
  uint64_t n_10 = RequiredSampleSize(0.10, config).value();
  EXPECT_LT(n_10, n_05);
}

TEST(SampleSizeTest, MatchesClosedForm) {
  TestConfig config;
  double theta0 = 0.05;
  double theta1 = theta0 * 1.1;
  double z_g = UpperCritical(config.gamma);
  double z_e = UpperCritical(config.eta);
  double root = (z_g * std::sqrt(theta0 * (1 - theta0)) +
                 z_e * std::sqrt(theta1 * (1 - theta1))) /
                (theta1 - theta0);
  EXPECT_EQ(RequiredSampleSize(theta0, config).value(),
            static_cast<uint64_t>(std::ceil(root * root)));
}

TEST(SampleSizeTest, RejectsInvalidInputs) {
  TestConfig config;
  EXPECT_FALSE(RequiredSampleSize(0.0, config).ok());
  EXPECT_FALSE(RequiredSampleSize(1.0, config).ok());
  EXPECT_FALSE(RequiredSampleSize(0.95, config).ok());  // theta1 >= 1
  TestConfig bad = config;
  bad.gamma = 0.0;
  EXPECT_FALSE(RequiredSampleSize(0.05, bad).ok());
}

TEST(SampleSizeTest, RejectsNaNAndOversizedSampleCounts) {
  // theta0 arrives from the wire. A NaN used to reach the uint64 cast
  // (undefined; it produced N_H = 2^63), and a tiny theta0 asked for
  // ~6.4e11 samples per Z-test.
  TestConfig config;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(RequiredSampleSize(nan, config).ok());
  EXPECT_FALSE(RequiredSampleSize(1e-9, config).ok());
  for (double TestConfig::*field :
       {&TestConfig::gamma, &TestConfig::eta, &TestConfig::phi}) {
    TestConfig bad = config;
    bad.*field = nan;
    EXPECT_FALSE(RequiredSampleSize(0.05, bad).ok());
  }
  // The paper's smallest theta0 stays far below the ceiling.
  auto n_01 = RequiredSampleSize(0.01, config);
  ASSERT_TRUE(n_01.ok());
  EXPECT_EQ(n_01.value(), 63225u);
  EXPECT_LT(n_01.value() * 100, kMaxSampleSize);
}

TEST(SampleSizeTest, RejectsPhiThatIsNotFiniteAndPositive) {
  // A phi <= 0 puts theta1 at or below theta0, so a success would no
  // longer count as evidence of a large region. Such a phi used to size a
  // test (N_H = 11,362 at phi = -0.1 and 384 at -0.5) or fail for another
  // reason (the sample-size ceiling at phi = 0).
  TestConfig config;
  const double inf = std::numeric_limits<double>::infinity();
  for (double phi : {0.0, -0.1, -0.5, -inf, inf}) {
    TestConfig bad = config;
    bad.phi = phi;
    auto n_h = RequiredSampleSize(0.05, bad);
    ASSERT_FALSE(n_h.ok()) << phi;
    EXPECT_EQ(n_h.status().message(), "phi must be finite and > 0") << phi;
    // A test over such a configuration is decided unsafe at once.
    SequentialProportionTest test(1000, 0.05, bad);
    EXPECT_EQ(test.CurrentVerdict(), Verdict::kNotReject) << phi;
    EXPECT_EQ(test.Lookahead(), 0u) << phi;
  }
  // Wald's lower boundary needs gamma + eta < 1; at 0.5 + 0.5 Eqn 17 gave
  // N_H = 0.
  TestConfig even = config;
  even.gamma = 0.5;
  even.eta = 0.5;
  EXPECT_FALSE(RequiredSampleSize(0.05, even).ok());
}

TEST(ZTestTest, ThresholdFormula) {
  double threshold = RejectionThreshold(10000, 0.05, 0.05);
  EXPECT_NEAR(threshold, 10000 * 0.05 + 1.6449 * std::sqrt(10000 * 0.0475),
              0.5);
  EXPECT_TRUE(RejectsH0(static_cast<uint64_t>(threshold) + 1, 10000, 0.05,
                        0.05));
  EXPECT_FALSE(RejectsH0(static_cast<uint64_t>(threshold) - 1, 10000, 0.05,
                         0.05));
}

TEST(ZTestTest, TypeIErrorBounded) {
  // With true theta == theta0 (H0 boundary), the rejection frequency must
  // stay near gamma.
  Rng rng(17);
  TestConfig config;
  double theta0 = 0.1;
  uint64_t n = 2000;
  int rejections = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i) hits += rng.NextBernoulli(theta0) ? 1 : 0;
    if (RejectsH0(hits, n, theta0, config.gamma)) ++rejections;
  }
  double rate = static_cast<double>(rejections) / trials;
  EXPECT_LT(rate, config.gamma + 0.02);
}

TEST(ZTestTest, PowerAgainstClearlyLargeRegion) {
  // With theta = 2 * theta0, rejection should be near-certain at N_H.
  Rng rng(19);
  TestConfig config;
  double theta0 = 0.05;
  uint64_t n = RequiredSampleSize(theta0, config).value();
  int rejections = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i)
      hits += rng.NextBernoulli(2 * theta0) ? 1 : 0;
    if (RejectsH0(hits, n, theta0, config.gamma)) ++rejections;
  }
  EXPECT_GT(rejections, trials * 95 / 100);
}

// Wald's test fed one sample at a time, from its definition: the statistic
// moves by the test's one-hit and one-miss statistic per sample, and the
// verdict is safe once it reaches upper(), unsafe once it falls to lower()
// or after 2 n samples. Only the fixed-point weights and boundaries come
// from the class; the stepping, the truncation and the verdict are its own.
class ReferenceSprt {
 public:
  ReferenceSprt(const SequentialProportionTest& weights, uint64_t n)
      : hit_(weights.Statistic(1, 0)),
        miss_(weights.Statistic(0, 1)),
        upper_(weights.upper()),
        lower_(weights.lower()),
        limit_(2 * n) {}

  Verdict Add(bool hit) {
    ++used_;
    statistic_ += hit ? hit_ : miss_;
    return verdict();
  }
  Verdict verdict() const {
    if (statistic_ >= upper_) return Verdict::kReject;
    if (statistic_ <= lower_ || used_ >= limit_) return Verdict::kNotReject;
    return Verdict::kUndecided;
  }
  uint64_t used() const { return used_; }

 private:
  int64_t hit_, miss_, upper_, lower_;
  uint64_t limit_;
  uint64_t used_ = 0;
  int64_t statistic_ = 0;
};

TEST(SequentialTest, MatchesBatchDecisionExactly) {
  // The test fed one sample at a time must follow the reference, and
  // lookahead-sized batches of the same stream must stop at the same
  // sample. Each trial draws 2 n outcomes: the test may use them all.
  Rng rng(23);
  TestConfig config;
  const double theta0 = 0.07;
  const uint64_t n = 500;
  for (int trial = 0; trial < 300; ++trial) {
    double p = rng.NextDouble() * 0.2;  // sweep around theta0
    std::vector<bool> outcomes(2 * n);
    for (uint64_t i = 0; i < 2 * n; ++i) outcomes[i] = rng.NextBernoulli(p);

    SequentialProportionTest seq(n, theta0, config);
    ReferenceSprt reference(seq, n);
    for (uint64_t i = 0;
         i < 2 * n && seq.CurrentVerdict() == Verdict::kUndecided; ++i) {
      ASSERT_EQ(seq.AddSample(outcomes[i]), reference.Add(outcomes[i]))
          << "p=" << p << " sample " << i;
    }
    EXPECT_NE(seq.CurrentVerdict(), Verdict::kUndecided) << "p=" << p;
    EXPECT_EQ(seq.samples_used(), reference.used()) << "p=" << p;
    EXPECT_LE(seq.samples_used(), 2 * n);

    SequentialProportionTest blocks(n, theta0, config);
    uint64_t pos = 0;
    while (uint64_t block = blocks.Lookahead()) {
      ASSERT_LE(pos + block, 2 * n);
      uint64_t block_hits = 0;
      for (uint64_t i = pos; i < pos + block; ++i) block_hits += outcomes[i];
      blocks.AddBatch(block, block_hits);
      pos += block;
    }
    EXPECT_EQ(blocks.CurrentVerdict(), seq.CurrentVerdict()) << "p=" << p;
    EXPECT_EQ(blocks.samples_used(), seq.samples_used()) << "p=" << p;
  }
}

TEST(SequentialTest, LookaheadBatchesNeverStraddleTheDecision) {
  // Bernoulli streams with p swept around theta0, fed one at a time and in
  // lookahead-sized batches side by side. One at a time, the verdict must
  // follow the reference at every step and never become decided strictly
  // inside a batch; batched, it must land on the same verdict and sample
  // count.
  Rng rng(29);
  TestConfig config;
  for (double theta0 : {0.05, 0.3}) {
    const uint64_t n_h = RequiredSampleSize(theta0, config).value();
    for (uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{37}, uint64_t{500},
                       n_h}) {
      for (int trial = 0; trial < 60; ++trial) {
        const double p = theta0 * 2.0 * trial / 59.0;  // 0 .. 2 theta0
        SequentialProportionTest single(n, theta0, config);
        SequentialProportionTest batched(n, theta0, config);
        ReferenceSprt reference(single, n);
        while (uint64_t block = batched.Lookahead()) {
          ASSERT_EQ(single.CurrentVerdict(), Verdict::kUndecided);
          uint64_t hits = 0;
          for (uint64_t j = 0; j < block; ++j) {
            const bool hit = rng.NextBernoulli(p);
            hits += hit ? 1 : 0;
            Verdict v = single.AddSample(hit);
            ASSERT_EQ(v, reference.Add(hit)) << "n=" << n << " p=" << p;
            if (j + 1 < block) {
              ASSERT_EQ(v, Verdict::kUndecided)
                  << "decided inside a batch: n=" << n << " p=" << p;
            }
          }
          batched.AddBatch(block, hits);
          ASSERT_EQ(batched.CurrentVerdict(), single.CurrentVerdict());
          ASSERT_EQ(batched.samples_used(), single.samples_used());
          ASSERT_EQ(batched.successes(), single.successes());
        }
        EXPECT_NE(batched.CurrentVerdict(), Verdict::kUndecided);
        EXPECT_LE(batched.samples_used(), 2 * n);
      }
    }
  }
}

TEST(SequentialTest, StatisticNeverExceedsTheExactRatio) {
  // Wald's Type I bound holds for the exact log-likelihood ratio. The
  // fixed-point statistic stays at or below it (here in long double), and
  // upper() at or above ln(1 / gamma), so a safe verdict implies the exact
  // ratio reached 1 / gamma. Extreme configurations included, every count
  // up to 2 kMaxSampleSize times every weight fits in 64 bits.
  constexpr int kBits = SequentialProportionTest::kFractionBits;
  const uint64_t counts[] = {0, 1, 2, 31, 1000, 12345, kMaxSampleSize,
                             2 * kMaxSampleSize};
  struct Case {
    double theta0, phi, gamma, eta;
  };
  const Case cases[] = {{0.05, 0.1, 0.05, 0.2},  {0.01, 0.1, 0.05, 0.2},
                        {0.2, 0.1, 0.05, 0.2},   {1e-6, 2.0, 0.05, 0.2},
                        {0.5, 2e-3, 0.01, 0.1},  {0.9, 0.1, 0.05, 0.2},
                        {0.3, 2.0, 0.2, 0.5},    {1e-300, 1e299, 1e-12, 0.2}};
  for (const Case& c : cases) {
    const TestConfig config{c.gamma, c.eta, c.phi};
    ASSERT_TRUE(RequiredSampleSize(c.theta0, config).ok()) << c.theta0;
    const SequentialProportionTest test(kMaxSampleSize, c.theta0, config);
    const long double theta0 = c.theta0;
    const long double theta1 = c.theta0 * (1.0 + c.phi);  // as the class has it
    const long double hit = log1pl((theta1 - theta0) / theta0);
    const long double miss = -log1pl(-(theta1 - theta0) / (1 - theta0));
    const long double unit = ldexpl(1.0L, kBits);
    EXPECT_GE(static_cast<long double>(test.upper()),
              -logl(c.gamma) * unit)
        << c.theta0;
    EXPECT_LT(test.lower(), 0) << c.theta0;
    const long double widest =
        std::max({static_cast<long double>(test.Statistic(1, 0)),
                  static_cast<long double>(-test.Statistic(0, 1)),
                  static_cast<long double>(test.upper()),
                  static_cast<long double>(-test.lower())});
    EXPECT_LT(widest * 2 * kMaxSampleSize, 0x1p62L) << c.theta0;
    for (uint64_t hits : counts) {
      for (uint64_t misses : counts) {
        const long double exact =
            (static_cast<long double>(hits) * hit -
             static_cast<long double>(misses) * miss) *
            unit;
        const long double got = test.Statistic(hits, misses);
        EXPECT_LE(got, exact) << c.theta0 << " " << hits << " " << misses;
        // Rounding costs under one unit plus the margin per sample; more
        // would mean a product wrapped.
        EXPECT_GT(got, exact - (hits + misses) * (1 + widest * 0x1p-31L) - 1)
            << c.theta0 << " " << hits << " " << misses;
      }
    }
  }
}

TEST(SequentialTest, PaperDefaultConstantsArePinned) {
  // theta0 = 0.05, gamma = 0.05, eta = 0.2, phi = 0.1, in 2^-28 nats:
  // ln(1.1), -ln(0.945 / 0.95), ln(20) and ln(0.15 / 0.95). A build whose
  // floating point (an FMA contraction, another -march) moved one of them
  // could move verdicts and lookaheads.
  const SequentialProportionTest test(12116, 0.05, TestConfig{});
  EXPECT_EQ(test.Statistic(1, 0), 25584631);
  EXPECT_EQ(test.Statistic(0, 1), -1416550);
  EXPECT_EQ(test.upper(), 804160760);
  EXPECT_EQ(test.lower(), -495485330);
  EXPECT_EQ(test.total_samples(), 24232u);
  EXPECT_EQ(test.Lookahead(), 32u);
}

TEST(SequentialTest, BatchLongerThanLookaheadIsIgnored) {
  SequentialProportionTest test(1000, 0.05, TestConfig{});
  const uint64_t lookahead = test.Lookahead();
  ASSERT_GT(lookahead, 1u);
  test.AddBatch(lookahead + 1, 0);
  test.AddBatch(2, 3);  // more successes than samples
  EXPECT_EQ(test.samples_used(), 0u);
  test.AddBatch(lookahead, lookahead);  // all hits: rejects on the last one
  EXPECT_EQ(test.CurrentVerdict(), SequentialProportionTest::Verdict::kReject);
  EXPECT_EQ(test.Lookahead(), 0u);
}

TEST(SequentialTest, EarlyExitSavesSamplesOnExtremes) {
  TestConfig config;
  const uint64_t n = 10000;
  // All successes: reject fires long before n samples.
  SequentialProportionTest hot(n, 0.05, config);
  while (hot.CurrentVerdict() ==
         SequentialProportionTest::Verdict::kUndecided) {
    hot.AddSample(true);
  }
  EXPECT_EQ(hot.CurrentVerdict(), SequentialProportionTest::Verdict::kReject);
  EXPECT_LT(hot.samples_used(), n / 5);

  // All failures: not-reject is provable once the tail can't reach the
  // threshold.
  SequentialProportionTest cold(n, 0.05, config);
  while (cold.CurrentVerdict() ==
         SequentialProportionTest::Verdict::kUndecided) {
    cold.AddSample(false);
  }
  EXPECT_EQ(cold.CurrentVerdict(),
            SequentialProportionTest::Verdict::kNotReject);
  EXPECT_LT(cold.samples_used(), n);
}

TEST(SequentialTest, DecidedStateIgnoresFurtherSamples) {
  SequentialProportionTest test(100, 0.05, TestConfig{});
  while (test.CurrentVerdict() ==
         SequentialProportionTest::Verdict::kUndecided) {
    test.AddSample(true);
  }
  uint64_t used = test.samples_used();
  test.AddSample(true);
  test.AddSample(false);
  EXPECT_EQ(test.samples_used(), used);
}

}  // namespace
}  // namespace ppgnn
