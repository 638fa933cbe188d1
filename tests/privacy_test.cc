// Empirical validation of the privacy guarantees (Theorem 4.3 and
// Theorem 5.2): the probabilistic claims of the proofs, tested as
// statistics over many protocol rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/attack.h"
#include "core/candidate.h"
#include "core/partition.h"
#include "core/protocol.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

// Replicates Algorithm 1 lines 3-6: segment by Eqn 11, position uniform
// in the segment; returns the absolute 1-based position of the real
// location for subgroup j.
int DrawAbsolutePosition(const PartitionPlan& plan, int d, int j, Rng& rng) {
  int64_t pick = rng.NextInRange(1, d);
  int64_t acc = 0;
  int seg = 1;
  for (int i = 1; i <= plan.beta(); ++i) {
    acc += plan.d_bar[i - 1];
    if (pick <= acc) {
      seg = i;
      break;
    }
  }
  int x = static_cast<int>(rng.NextInRange(1, plan.d_bar[seg - 1]));
  (void)j;  // all subgroups draw i.i.d.
  return plan.SegmentOffset(seg) - 1 + x;
}

TEST(PrivacyITest, RealPositionIsUniformOverD) {
  // Theorem 4.3, Privacy I: P(LSP identifies the real location) = 1/d,
  // i.e. the real location's slot is uniform over the d positions.
  const int n = 8, d = 25, delta = 100;
  PartitionPlan plan = SolvePartition(n, d, delta).value();
  Rng rng(1);
  const int trials = 50000;
  std::vector<int> counts(d, 0);
  for (int t = 0; t < trials; ++t) {
    ++counts[DrawAbsolutePosition(plan, d, 0, rng) - 1];
  }
  // Chi-square against uniform; d-1 = 24 dof, 99.9th percentile ~ 51.2.
  double expected = static_cast<double>(trials) / d;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 51.2) << "positions are not uniform";
}

TEST(PrivacyITest, UniformForEveryPlanShape) {
  // The uniformity must hold for any solved plan, including very skewed
  // segment sizes.
  Rng rng(2);
  for (auto [n, d, delta] : {std::tuple{2, 10, 50}, std::tuple{4, 12, 80},
                             std::tuple{16, 25, 200}}) {
    PartitionPlan plan = SolvePartition(n, d, delta).value();
    const int trials = 20000;
    std::vector<int> counts(d, 0);
    for (int t = 0; t < trials; ++t) {
      ++counts[DrawAbsolutePosition(plan, d, 0, rng) - 1];
    }
    double expected = static_cast<double>(trials) / d;
    for (int c : counts) {
      // Every slot within 6 sigma of the binomial expectation.
      double sigma = std::sqrt(expected * (1.0 - 1.0 / d));
      EXPECT_NEAR(c, expected, 6 * sigma) << "n" << n << " d" << d;
    }
  }
}

TEST(PrivacyIITest, QueryIndexDistributionMatchesTheory) {
  // Privacy II: each candidate in segment i carries probability
  // (d_i/d) * (1/d_i)^alpha. Verify the empirical distribution of the
  // real query's index matches, and that the min probability over all
  // candidates is <= 1/delta (the advertised guarantee).
  const int n = 4, d = 8, delta = 20;
  PartitionPlan plan = SolvePartition(n, d, delta).value();
  ASSERT_GE(plan.delta_prime, static_cast<uint64_t>(delta));

  Rng rng(3);
  const int trials = 200000;
  std::vector<int> counts(plan.delta_prime, 0);
  for (int t = 0; t < trials; ++t) {
    // Replicate the coordinator's full (seg, x_1..x_alpha) draw.
    int64_t pick = rng.NextInRange(1, d);
    int64_t acc = 0;
    int seg = 1;
    for (int i = 1; i <= plan.beta(); ++i) {
      acc += plan.d_bar[i - 1];
      if (pick <= acc) {
        seg = i;
        break;
      }
    }
    std::vector<int> x(plan.alpha);
    for (int j = 0; j < plan.alpha; ++j) {
      x[j] = static_cast<int>(rng.NextInRange(1, plan.d_bar[seg - 1]));
    }
    ++counts[QueryIndex(plan, seg, x) - 1];
  }

  uint64_t index = 0;
  for (int seg = 1; seg <= plan.beta(); ++seg) {
    double d_seg = plan.d_bar[seg - 1];
    double per_candidate =
        (d_seg / d) * std::pow(1.0 / d_seg, plan.alpha);
    uint64_t combos = 1;
    for (int j = 0; j < plan.alpha; ++j)
      combos *= static_cast<uint64_t>(plan.d_bar[seg - 1]);
    for (uint64_t c = 0; c < combos; ++c, ++index) {
      double expected = per_candidate * trials;
      double sigma = std::sqrt(expected);
      EXPECT_NEAR(counts[index], expected, 6 * sigma + 1) << "index " << index;
    }
    // The guarantee: no candidate is more likely than 1/delta... the
    // paper's bound is on the TOTAL number of candidates; verify
    // delta' >= delta so 1/delta' <= 1/delta for a uniform-segment plan.
  }
  EXPECT_EQ(index, plan.delta_prime);
}

TEST(PrivacyIIITest, UserReceivesExactlyOneAnswer) {
  // Privacy III: the wire answer is m ciphertexts — independent of
  // delta' — so the user cannot learn any non-selected candidate's
  // answer.
  LspDatabase lsp(GenerateSequoiaLike(2000, 4));
  Rng rng(5);
  KeyPair keys = GenerateKeyPair(256, rng).value();
  for (int delta : {12, 24, 48}) {
    ProtocolParams params;
    params.n = 3;
    params.d = 4;
    params.delta = delta;
    params.k = 3;
    params.key_bits = 256;
    params.sanitize = false;
    std::vector<Point> group = {{0.2, 0.2}, {0.5, 0.5}, {0.7, 0.3}};
    auto outcome = RunQuery(Variant::kPpgnn, params, group, lsp, rng, &keys);
    ASSERT_TRUE(outcome.ok());
    // The downlink must be exactly the m answer ciphertexts + framing,
    // independent of delta.
    size_t expected =
        outcome->info.answer_width_m * keys.pub.CiphertextBytes(1);
    EXPECT_GE(outcome->costs.bytes_lsp_to_user, expected);
    EXPECT_LE(outcome->costs.bytes_lsp_to_user, expected + 16);
  }
}

TEST(PrivacyIVTest, CollusionRegionExceedsTheta0AfterSanitation) {
  // Theorem 5.2 at the paper defaults (n = 8, k = 8, theta0 = 0.05): any
  // n-1 colluders localize the remaining user to a region of at least
  // theta0 of the space, with confidence 1 - gamma. Attack every returned
  // prefix of length >= 2, for every target, with a region estimate
  // precise enough (10^6 samples: standard error ~2e-4 at theta0) to be
  // compared against theta0 itself.
  LspDatabase lsp(GenerateSequoiaLike(20000, 6));
  ProtocolParams params;
  params.n = 8;
  params.d = 4;
  params.delta = 8;
  params.k = 8;
  params.key_bits = 256;
  params.theta0 = 0.05;

  Rng rng(7);
  KeyPair keys = GenerateKeyPair(256, rng).value();
  int attacks = 0, below_theta0 = 0;
  double min_region = 1.0;
  for (int trial = 0; trial < 14; ++trial) {
    std::vector<Point> group(params.n);
    for (Point& p : group) p = {rng.NextDouble(), rng.NextDouble()};
    auto outcome = RunQuery(Variant::kPpgnn, params, group, lsp, rng, &keys);
    ASSERT_TRUE(outcome.ok());
    for (size_t len = 2; len <= outcome->pois.size(); ++len) {
      std::vector<Point> prefix(outcome->pois.begin(),
                                outcome->pois.begin() + len);
      for (int target = 0; target < params.n; ++target) {
        std::vector<Point> colluders;
        for (int u = 0; u < params.n; ++u) {
          if (u != target) colluders.push_back(group[u]);
        }
        InequalityAttack attack(colluders, prefix, AggregateKind::kSum);
        Rng mc(1000 + attacks);
        ++attacks;
        const double region = attack.EstimateRegionFraction(mc, 1'000'000);
        min_region = std::min(min_region, region);
        if (region < params.theta0) ++below_theta0;
      }
    }
  }
  ASSERT_GE(attacks, 64);
  // The Z-test bounds each unsafe prefix's chance of being returned by
  // gamma, so at least (1 - gamma) of the attacks must fail.
  EXPECT_LE(below_theta0, attacks * params.test.gamma)
      << below_theta0 << " of " << attacks
      << " attacks got below theta0; smallest region " << min_region;
}

TEST(PrivacyIVTest, WithoutSanitationAttacksDoSucceed) {
  // The control experiment: PPGNN-NAS leaks — some attack localizes a
  // user below theta0. This is what Figure 1 illustrates.
  LspDatabase lsp(GenerateSequoiaLike(20000, 8));
  ProtocolParams params;
  params.n = 5;
  params.d = 4;
  params.delta = 8;
  params.k = 8;
  params.key_bits = 256;
  params.theta0 = 0.05;
  params.sanitize = false;

  Rng rng(9);
  KeyPair keys = GenerateKeyPair(256, rng).value();
  bool any_success = false;
  for (int trial = 0; trial < 6 && !any_success; ++trial) {
    std::vector<Point> group(params.n);
    for (Point& p : group) p = {rng.NextDouble(), rng.NextDouble()};
    auto outcome = RunQuery(Variant::kPpgnn, params, group, lsp, rng, &keys);
    ASSERT_TRUE(outcome.ok());
    for (int target = 0; target < params.n; ++target) {
      std::vector<Point> colluders;
      for (int u = 0; u < params.n; ++u) {
        if (u != target) colluders.push_back(group[u]);
      }
      InequalityAttack attack(colluders, outcome->pois,
                              AggregateKind::kSum);
      Rng mc(2000 + trial * 10 + target);
      if (attack.EstimateRegionFraction(mc, 20000) < params.theta0) {
        any_success = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_success)
      << "the unsanitized top-8 answer never enabled an attack — "
         "suspiciously strong";
}

}  // namespace
}  // namespace ppgnn
