#include "core/sanitize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "core/attack.h"
#include "geo/aggregate.h"
#include "geo/distance_oracle.h"
#include "stats/hypothesis.h"

namespace ppgnn {
namespace {

std::vector<RankedPoi> MakeRankedAnswer(const std::vector<Point>& group,
                                        std::vector<Point> pois,
                                        AggregateKind kind) {
  std::sort(pois.begin(), pois.end(), [&](const Point& a, const Point& b) {
    return AggregateCost(kind, a, group) < AggregateCost(kind, b, group);
  });
  std::vector<RankedPoi> out;
  for (size_t i = 0; i < pois.size(); ++i) {
    out.push_back(
        {{static_cast<uint32_t>(i), pois[i]}, AggregateCost(kind, pois[i], group)});
  }
  return out;
}

std::vector<Point> RandomPoints(int count, Rng& rng) {
  std::vector<Point> out(count);
  for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
  return out;
}

// A non-Euclidean metric (L1), so the oracle path of the kernel is covered.
class ManhattanOracle : public DistanceOracle {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
  }
  const char* name() const override { return "manhattan"; }
};

// The original sanitation algorithm, kept as the reference the block
// kernel must equal: a fresh InequalityAttack per (prefix, target), fed
// one Satisfies(SamplePoint(rng)) at a time into AddSample.
bool ReferencePrefixSafe(const AnswerSanitizer& sanitizer, double gamma,
                         const std::vector<Point>& colluders,
                         const std::vector<Point>& prefix_points,
                         AggregateKind kind, Rng& rng, SanitizeStats* stats,
                         const DistanceOracle* oracle) {
  InequalityAttack attack(colluders, prefix_points, kind,
                          {0.0, 0.0, 1.0, 1.0}, oracle);
  SequentialProportionTest test(sanitizer.sample_size(), sanitizer.theta0(),
                                TestConfig{.gamma = gamma});
  ++stats->tests_run;
  while (test.CurrentVerdict() ==
         SequentialProportionTest::Verdict::kUndecided) {
    test.AddSample(attack.Satisfies(attack.SamplePoint(rng)));
    ++stats->samples_drawn;
  }
  return test.CurrentVerdict() == SequentialProportionTest::Verdict::kReject;
}

std::vector<RankedPoi> ReferenceSanitize(const AnswerSanitizer& sanitizer,
                                         double gamma,
                                         const std::vector<RankedPoi>& answer,
                                         const std::vector<Point>& locations,
                                         AggregateKind kind, Rng& rng,
                                         SanitizeStats* stats,
                                         const DistanceOracle* oracle) {
  const size_t n = locations.size();
  if (n <= 1 || answer.size() <= 1) return answer;
  std::vector<Point> prefix_points = {answer[0].poi.location};
  size_t safe_len = 1;
  std::vector<Point> colluders(n - 1);
  for (size_t t = 2; t <= answer.size(); ++t) {
    prefix_points.push_back(answer[t - 1].poi.location);
    bool safe_for_all = true;
    for (size_t target = 0; target < n && safe_for_all; ++target) {
      size_t w = 0;
      for (size_t u = 0; u < n; ++u) {
        if (u != target) colluders[w++] = locations[u];
      }
      safe_for_all = ReferencePrefixSafe(sanitizer, gamma, colluders,
                                         prefix_points, kind, rng, stats,
                                         oracle);
    }
    if (!safe_for_all) break;
    safe_len = t;
  }
  return std::vector<RankedPoi>(answer.begin(),
                                answer.begin() + static_cast<long>(safe_len));
}

TEST(SanitizerTest, CreateComputesSampleSize) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  EXPECT_EQ(sanitizer.sample_size(),
            RequiredSampleSize(0.05, config).value());
  EXPECT_DOUBLE_EQ(sanitizer.theta0(), 0.05);
  EXPECT_FALSE(AnswerSanitizer::Create(0.0, config).ok());
  EXPECT_FALSE(AnswerSanitizer::Create(1.5, config).ok());
}

TEST(SanitizerTest, SingleUserAnswerUntouched) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(1);
  std::vector<Point> group = {{0.5, 0.5}};
  auto answer = MakeRankedAnswer(group, RandomPoints(5, rng),
                                 AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  EXPECT_EQ(sanitized.size(), answer.size());
}

TEST(SanitizerTest, SingletonAnswerAlwaysSafe) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(2);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(1, rng), AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  EXPECT_EQ(sanitized.size(), 1u);
}

TEST(SanitizerTest, OutputIsPrefixOfInput) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> group = RandomPoints(6, rng);
    auto answer =
        MakeRankedAnswer(group, RandomPoints(10, rng), AggregateKind::kSum);
    auto sanitized =
        sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
    ASSERT_GE(sanitized.size(), 1u);
    ASSERT_LE(sanitized.size(), answer.size());
    for (size_t i = 0; i < sanitized.size(); ++i) {
      EXPECT_EQ(sanitized[i].poi.id, answer[i].poi.id);
    }
  }
}

TEST(SanitizerTest, ReturnedPrefixPassesItsOwnSafetyTest) {
  // The invariant of Section 5.2: the returned prefix is safe for every
  // target user; verify by re-running the attack region estimate.
  TestConfig config;
  double theta0 = 0.05;
  auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
  Rng rng(4);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(8, rng), AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  std::vector<Point> prefix_points;
  for (const auto& rp : sanitized) prefix_points.push_back(rp.poi.location);
  if (prefix_points.size() >= 2) {
    for (size_t target = 0; target < group.size(); ++target) {
      std::vector<Point> colluders;
      for (size_t u = 0; u < group.size(); ++u) {
        if (u != target) colluders.push_back(group[u]);
      }
      InequalityAttack attack(colluders, prefix_points, AggregateKind::kSum);
      Rng est(99 + target);
      // Region estimate should be comfortably above theta0 (allowing MC
      // noise around the test's threshold).
      EXPECT_GT(attack.EstimateRegionFraction(est, 20000), theta0 * 0.8);
    }
  }
}

TEST(SanitizerTest, StricterTheta0ReturnsFewerPois) {
  TestConfig config;
  Rng seed_rng(5);
  std::vector<Point> group = RandomPoints(8, seed_rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(16, seed_rng), AggregateKind::kSum);
  double prev_size = 1e9;
  for (double theta0 : {0.01, 0.05, 0.10}) {
    auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
    // Average over a few runs to damp Monte-Carlo noise.
    double total = 0;
    for (int run = 0; run < 5; ++run) {
      Rng rng(1000 + run);
      total += static_cast<double>(
          sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng).size());
    }
    double avg = total / 5;
    EXPECT_LE(avg, prev_size + 0.75) << "theta0=" << theta0;
    prev_size = avg;
  }
}

TEST(SanitizerTest, StatsAreAccumulated) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(6);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(6, rng), AggregateKind::kSum);
  SanitizeStats stats;
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng, &stats);
  if (sanitized.size() > 1 || answer.size() > 1) {
    EXPECT_GT(stats.tests_run, 0u);
    EXPECT_GT(stats.samples_drawn, 0u);
  }
}

TEST(SanitizerTest, PrefixSafeForTargetAgreesWithZTest) {
  // A wide-open two-POI configuration (bisector region ~ half the space)
  // must be judged safe for theta0 = 0.05; an extremely tight
  // configuration must be judged unsafe for theta0 = 0.9.
  TestConfig config;
  auto loose = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(7);
  std::vector<Point> colluders = {{0.5, 0.2}};
  std::vector<Point> halfspace = {{0.25, 0.5}, {0.75, 0.5}};
  EXPECT_TRUE(loose.PrefixSafeForTarget(colluders, halfspace,
                                        AggregateKind::kSum, rng));
  auto strict = AnswerSanitizer::Create(0.9, config).value();
  EXPECT_FALSE(strict.PrefixSafeForTarget(colluders, halfspace,
                                          AggregateKind::kSum, rng));
}

TEST(SanitizerTest, EarlyExitUsesFarFewerSamplesThanNH) {
  // For a clearly-safe prefix the sequential test should stop early.
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(8);
  std::vector<Point> group = {{0.5, 0.45}, {0.5, 0.55}};
  auto answer = MakeRankedAnswer(group, {{0.5, 0.5}, {0.9, 0.9}},
                                 AggregateKind::kSum);
  SanitizeStats stats;
  sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng, &stats);
  ASSERT_GT(stats.tests_run, 0u);
  EXPECT_LT(stats.samples_drawn / stats.tests_run,
            sanitizer.sample_size() / 2);
}

TEST(SanitizerTest, WorksForAllAggregates) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(9);
  std::vector<Point> group = RandomPoints(4, rng);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    auto answer = MakeRankedAnswer(group, RandomPoints(6, rng), kind);
    auto sanitized = sanitizer.Sanitize(answer, group, kind, rng);
    EXPECT_GE(sanitized.size(), 1u);
    EXPECT_LE(sanitized.size(), answer.size());
  }
}

TEST(SanitizerTest, BlockKernelIsDecisionIdenticalToReference) {
  // Same prefix, same work counters, and the Rng left at the same position:
  // a block that overshot the sequential test's decision by even one
  // sample would draw more, and one that stopped short would decide wrong.
  TestConfig config;
  const ManhattanOracle manhattan;
  Rng setup(41);
  int trimmed = 0, full = 0;
  for (double theta0 : {0.05, 0.2}) {
    auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
    for (AggregateKind kind :
         {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
      for (int n : {2, 3, 8}) {
        for (int len : {2, 8, 16}) {
          for (const DistanceOracle* oracle :
               {static_cast<const DistanceOracle*>(nullptr),
                static_cast<const DistanceOracle*>(&manhattan)}) {
            std::vector<Point> group = RandomPoints(n, setup);
            auto answer =
                MakeRankedAnswer(group, RandomPoints(len, setup), kind);
            const uint64_t seed = setup.NextUint64();
            Rng rng(seed), ref_rng(seed);
            SanitizeStats stats, ref_stats;
            auto sanitized =
                sanitizer.Sanitize(answer, group, kind, rng, &stats, oracle);
            auto reference =
                ReferenceSanitize(sanitizer, config.gamma, answer, group, kind,
                                  ref_rng, &ref_stats, oracle);
            std::string where = std::string(AggregateKindToString(kind)) +
                                " theta0=" + std::to_string(theta0) +
                                " n=" + std::to_string(n) +
                                " len=" + std::to_string(len) +
                                (oracle != nullptr ? " manhattan" : "");
            ASSERT_EQ(sanitized.size(), reference.size()) << where;
            EXPECT_EQ(stats.samples_drawn, ref_stats.samples_drawn) << where;
            EXPECT_EQ(stats.tests_run, ref_stats.tests_run) << where;
            EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64()) << where;
            (sanitized.size() < answer.size() ? trimmed : full) += 1;
          }
        }
      }
    }
  }
  // The matrix exercises both verdicts.
  EXPECT_GT(trimmed, 0);
  EXPECT_GT(full, 0);
}

TEST(SanitizerTest, PrefixSafeForTargetIsDecisionIdenticalToReference) {
  // Includes the shapes Sanitize never reaches: no colluders, and
  // prefixes too short to carry an inequality (every sample is a hit).
  TestConfig config;
  const ManhattanOracle manhattan;
  Rng setup(43);
  int safe = 0, unsafe = 0;
  for (double theta0 : {0.05, 0.3}) {
    auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
    for (AggregateKind kind :
         {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
      for (int colluder_count : {0, 1, 7}) {
        for (int prefix_len : {0, 1, 2, 5}) {
          for (const DistanceOracle* oracle :
               {static_cast<const DistanceOracle*>(nullptr),
                static_cast<const DistanceOracle*>(&manhattan)}) {
            std::vector<Point> colluders = RandomPoints(colluder_count, setup);
            std::vector<Point> prefix = RandomPoints(prefix_len, setup);
            const uint64_t seed = setup.NextUint64();
            Rng rng(seed), ref_rng(seed);
            SanitizeStats stats, ref_stats;
            bool got = sanitizer.PrefixSafeForTarget(colluders, prefix, kind,
                                                     rng, &stats, oracle);
            bool want = ReferencePrefixSafe(sanitizer, config.gamma, colluders,
                                            prefix, kind, ref_rng, &ref_stats,
                                            oracle);
            std::string where = std::string(AggregateKindToString(kind)) +
                                " colluders=" + std::to_string(colluder_count) +
                                " prefix=" + std::to_string(prefix_len) +
                                (oracle != nullptr ? " manhattan" : "");
            EXPECT_EQ(got, want) << where;
            EXPECT_EQ(stats.samples_drawn, ref_stats.samples_drawn) << where;
            EXPECT_EQ(stats.tests_run, ref_stats.tests_run) << where;
            EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64()) << where;
            (got ? safe : unsafe) += 1;
          }
        }
      }
    }
  }
  EXPECT_GT(safe, 0);
  EXPECT_GT(unsafe, 0);
}

// Calibration of the sequential test on regions of known area. One
// target, no colluders, POIs on the line y = 0.5 at theta - e and
// theta + e (and theta + 3e for prefix 3): every inequality is a vertical
// bisector, so the solution region is {x <= theta}, of area theta. Over
// 400 seeded tests per point, the rejection rate (prefix judged safe)
// must stay within three binomial standard errors of the design: at most
// gamma at theta = theta0 and at theta0 / 2 (Type I error), at least
// 1 - eta at theta1 = theta0 (1 + phi) (power). The paper's theta0 range
// is covered at both ends.
TEST(SanitizerTest, ZTestRejectionRatesMatchGammaAndEta) {
  const TestConfig config;
  constexpr int kTests = 400;
  constexpr double kOffset = 0.01;
  auto three_sigma = [](double rate) {
    return 3.0 * std::sqrt(rate * (1.0 - rate) / kTests);
  };
  const double type_one_ceiling = config.gamma + three_sigma(config.gamma);
  const double power_floor = 1.0 - config.eta;
  uint64_t seed = 50;
  for (double theta0 : {0.01, 0.05, 0.2}) {
    const double theta1 = theta0 * (1.0 + config.phi);
    const auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
    auto rejection_rate = [&](double theta, size_t prefix_len) {
      std::vector<Point> prefix = {{theta - kOffset, 0.5},
                                   {theta + kOffset, 0.5},
                                   {theta + 3 * kOffset, 0.5}};
      prefix.resize(prefix_len);
      Rng rng(seed++);
      int rejections = 0;
      for (int t = 0; t < kTests; ++t) {
        rejections += sanitizer.PrefixSafeForTarget({}, prefix,
                                                    AggregateKind::kSum, rng)
                          ? 1
                          : 0;
      }
      return static_cast<double>(rejections) / kTests;
    };
    for (size_t prefix_len : {2u, 3u}) {
      const std::string where = "theta0 " + std::to_string(theta0) +
                                " prefix " + std::to_string(prefix_len);
      const double half = rejection_rate(theta0 / 2, prefix_len);
      EXPECT_LE(half, type_one_ceiling) << where;
      const double type_one = rejection_rate(theta0, prefix_len);
      EXPECT_LE(type_one, type_one_ceiling) << where;
      const double power = rejection_rate(theta1, prefix_len);
      EXPECT_GE(power, power_floor - three_sigma(power_floor)) << where;
      std::cout << where << ": rejected " << half << " at theta0 / 2, "
                << type_one << " at theta0, " << power << " at theta1\n";
    }
  }
}

}  // namespace
}  // namespace ppgnn
