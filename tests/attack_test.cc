#include "core/attack.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "geo/aggregate.h"
#include "geo/rect.h"

namespace ppgnn {
namespace {

TEST(AttackTest, FewerThanTwoPoisAlwaysSatisfied) {
  InequalityAttack none({}, {}, AggregateKind::kSum);
  EXPECT_TRUE(none.Satisfies({0.5, 0.5}));
  InequalityAttack one({{0.1, 0.1}}, {{0.5, 0.5}}, AggregateKind::kSum);
  EXPECT_TRUE(one.Satisfies({0.9, 0.9}));
  EXPECT_EQ(one.NumInequalities(), 0u);
}

TEST(AttackTest, SingleUserBisectorGeometry) {
  // No colluders, answer (p1, p2): the solution region is the half-plane
  // nearer to p1 — the classic kNN inversion.
  InequalityAttack attack({}, {{0.25, 0.5}, {0.75, 0.5}},
                          AggregateKind::kSum);
  EXPECT_TRUE(attack.Satisfies({0.1, 0.5}));    // closer to p1
  EXPECT_FALSE(attack.Satisfies({0.9, 0.5}));   // closer to p2
  EXPECT_TRUE(attack.Satisfies({0.5, 0.9}));    // on the bisector (<=)
  // Monte-Carlo fraction should be ~0.5.
  Rng rng(1);
  EXPECT_NEAR(attack.EstimateRegionFraction(rng, 20000), 0.5, 0.02);
}

TEST(AttackTest, SatisfiesMatchesDirectDefinition) {
  // Cross-check the partial-aggregate fast path against a direct
  // evaluation of Eqn 14 for all three aggregate kinds.
  Rng rng(2);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Point> colluders;
      for (int i = 0; i < 4; ++i)
        colluders.push_back({rng.NextDouble(), rng.NextDouble()});
      std::vector<Point> answer;
      for (int i = 0; i < 5; ++i)
        answer.push_back({rng.NextDouble(), rng.NextDouble()});
      InequalityAttack attack(colluders, answer, kind);
      for (int s = 0; s < 20; ++s) {
        Point candidate{rng.NextDouble(), rng.NextDouble()};
        // Direct: F(p_i, C) with C = colluders + candidate.
        std::vector<Point> full = colluders;
        full.push_back(candidate);
        bool direct = true;
        for (size_t i = 0; i + 1 < answer.size(); ++i) {
          if (AggregateCost(kind, answer[i], full) >
              AggregateCost(kind, answer[i + 1], full)) {
            direct = false;
            break;
          }
        }
        EXPECT_EQ(attack.Satisfies(candidate), direct)
            << AggregateKindToString(kind) << " trial " << trial;
      }
    }
  }
}

TEST(AttackTest, RealLocationAlwaysInRegion) {
  // Soundness: the target's true location always satisfies the
  // inequalities derived from a correctly ranked answer.
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Point> group;
    for (int i = 0; i < 5; ++i)
      group.push_back({rng.NextDouble(), rng.NextDouble()});
    // Build a ranked "answer" by sorting random POIs by true cost.
    std::vector<Point> pois;
    for (int i = 0; i < 6; ++i)
      pois.push_back({rng.NextDouble(), rng.NextDouble()});
    std::sort(pois.begin(), pois.end(), [&](const Point& a, const Point& b) {
      return AggregateCost(AggregateKind::kSum, a, group) <
             AggregateCost(AggregateKind::kSum, b, group);
    });
    // Collude against user 0.
    std::vector<Point> colluders(group.begin() + 1, group.end());
    InequalityAttack attack(colluders, pois, AggregateKind::kSum);
    EXPECT_TRUE(attack.Satisfies(group[0])) << "trial " << trial;
  }
}

TEST(AttackTest, LongerPrefixShrinksRegion) {
  // More inequalities can only cut the region down (monotonicity).
  Rng rng(4);
  std::vector<Point> colluders = {{0.2, 0.3}, {0.7, 0.8}};
  std::vector<Point> answer;
  for (int i = 0; i < 8; ++i)
    answer.push_back({rng.NextDouble(), rng.NextDouble()});
  // Sort answer by cost w.r.t. some plausible group to get a realistic
  // ranking.
  std::vector<Point> group = colluders;
  group.push_back({0.5, 0.5});
  std::sort(answer.begin(), answer.end(), [&](const Point& a, const Point& b) {
    return AggregateCost(AggregateKind::kSum, a, group) <
           AggregateCost(AggregateKind::kSum, b, group);
  });
  double prev = 1.0;
  for (size_t t = 2; t <= answer.size(); ++t) {
    std::vector<Point> prefix(answer.begin(), answer.begin() + t);
    InequalityAttack attack(colluders, prefix, AggregateKind::kSum);
    Rng est_rng(100 + t);
    double frac = attack.EstimateRegionFraction(est_rng, 4000);
    EXPECT_LE(frac, prev + 0.03) << "t=" << t;  // MC noise tolerance
    prev = frac;
  }
}

TEST(AttackTest, Figure1StyleAttackShrinksRegionBelowHalf) {
  // Recreate the paper's Figure 1 narrative: colluders close together,
  // answer POIs ranked; the victim's region should be well under the
  // whole space.
  std::vector<Point> colluders = {{0.8, 0.2}, {0.85, 0.3}};
  std::vector<Point> answer = {{0.5, 0.5}, {0.2, 0.2}, {0.9, 0.9},
                               {0.1, 0.8}};
  // Rank the POIs correctly for a victim at (0.3, 0.6).
  Point victim{0.3, 0.6};
  std::vector<Point> group = colluders;
  group.push_back(victim);
  std::sort(answer.begin(), answer.end(), [&](const Point& a, const Point& b) {
    return AggregateCost(AggregateKind::kSum, a, group) <
           AggregateCost(AggregateKind::kSum, b, group);
  });
  InequalityAttack attack(colluders, answer, AggregateKind::kSum);
  EXPECT_TRUE(attack.Satisfies(victim));
  Rng rng(5);
  double frac = attack.EstimateRegionFraction(rng, 20000);
  EXPECT_LT(frac, 0.6);
  EXPECT_GT(frac, 0.0);
}

TEST(AttackTest, CustomSpaceSampling) {
  Rect space{0.0, 0.0, 2.0, 2.0};
  InequalityAttack attack({}, {{0.5, 1.0}, {1.5, 1.0}}, AggregateKind::kSum,
                          space);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    Point p = attack.SamplePoint(rng);
    EXPECT_TRUE(space.Contains(p));
  }
  // Bisector splits the 2x2 space evenly too.
  EXPECT_NEAR(attack.EstimateRegionFraction(rng, 20000), 0.5, 0.02);
}

// CountSatisfied(rng, c, len) must equal counting Satisfies(SamplePoint)
// one sample at a time on the prefix's own attack, over the same draws,
// and leave the Rng where that loop leaves it: for every block length
// c = 1..257 (one past a full block) and every prefix length.
void ExpectCountMatchesSatisfies(const std::vector<Point>& colluders,
                                 const std::vector<Point>& answer,
                                 AggregateKind kind, Rect space,
                                 const std::string& label) {
  const InequalityAttack attack(colluders, answer, kind, space);
  for (size_t len = 1; len <= answer.size(); ++len) {
    const std::vector<Point> prefix(answer.begin(), answer.begin() + len);
    const InequalityAttack reference(colluders, prefix, kind, space);
    for (uint64_t c = 1; c <= 257; ++c) {
      Rng block_rng(1000 * len + c);
      Rng point_rng(1000 * len + c);
      uint64_t expected = 0;
      for (uint64_t s = 0; s < c; ++s) {
        const Point sample = reference.SamplePoint(point_rng);
        expected += reference.Satisfies(sample) ? 1 : 0;
      }
      ASSERT_EQ(attack.CountSatisfied(block_rng, c, len), expected)
          << label << " len " << len << " c " << c;
      ASSERT_EQ(block_rng.NextUint64(), point_rng.NextUint64())
          << label << " len " << len << " c " << c;
    }
  }
}

TEST(AttackTest, CountSatisfiedEqualsSatisfiesPerSample) {
  Rng rng(8);
  std::vector<Point> answer;
  for (int i = 0; i < 5; ++i)
    answer.push_back({rng.NextDouble(), rng.NextDouble()});
  std::vector<Point> colluders;
  for (int i = 0; i < 3; ++i)
    colluders.push_back({rng.NextDouble(), rng.NextDouble()});
  // Zero-area spaces: every sample sits exactly on the bisector of the
  // first two POIs, equidistant from the colluders too (a tie, so the
  // inequality holds), or exactly on a POI (distance 0).
  const std::vector<Point> tie_answer = {
      {0.25, 0.5}, {0.75, 0.5}, {0.5, 0.25}, {0.9, 0.1}};
  const std::vector<Point> tie_colluders = {{0.5, 0.1}, {0.5, 0.9}};
  const Rect on_bisector = Rect::FromPoint({0.5, 0.3});
  const Rect on_poi = Rect::FromPoint(tie_answer[1]);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    const std::string name = AggregateKindToString(kind);
    for (bool collude : {false, true}) {
      const std::string label =
          name + (collude ? " with colluders" : " alone");
      ExpectCountMatchesSatisfies(collude ? colluders : std::vector<Point>{},
                                  answer, kind, {0.0, 0.0, 1.0, 1.0},
                                  label + ", unit square");
      const std::vector<Point> at_tie =
          collude ? tie_colluders : std::vector<Point>{};
      ExpectCountMatchesSatisfies(at_tie, tie_answer, kind, on_bisector,
                                  label + ", on a bisector");
      ExpectCountMatchesSatisfies(at_tie, tie_answer, kind, on_poi,
                                  label + ", on a POI");
      // The tie satisfies the first inequality for every sample.
      const InequalityAttack tie(at_tie, tie_answer, kind, on_bisector);
      Rng tie_rng(9);
      EXPECT_EQ(tie.CountSatisfied(tie_rng, 300, 2), 300u) << label;
    }
  }
}

TEST(AttackTest, ZeroSamplesGiveZeroFraction) {
  InequalityAttack attack({}, {{0.1, 0.1}, {0.9, 0.9}}, AggregateKind::kSum);
  Rng rng(7);
  EXPECT_EQ(attack.EstimateRegionFraction(rng, 0), 0.0);
}

}  // namespace
}  // namespace ppgnn
