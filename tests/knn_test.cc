#include "spatial/knn.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/random.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

TEST(KnnTest, EmptyTreeAndZeroK) {
  RTree empty = RTree::Build({});
  EXPECT_TRUE(KnnQuery(empty, {0.5, 0.5}, 3).empty());
  RTree tree = RTree::Build(GenerateUniform(10, 1));
  EXPECT_TRUE(KnnQuery(tree, {0.5, 0.5}, 0).empty());
  EXPECT_TRUE(KnnQuery(tree, {0.5, 0.5}, -2).empty());
}

TEST(KnnTest, KLargerThanDatabaseReturnsAll) {
  RTree tree = RTree::Build(GenerateUniform(7, 2));
  EXPECT_EQ(KnnQuery(tree, {0.1, 0.1}, 100).size(), 7u);
}

TEST(KnnTest, NearestOfThree) {
  std::vector<Poi> pois = {{0, {0.1, 0.1}}, {1, {0.5, 0.5}}, {2, {0.9, 0.9}}};
  RTree tree = RTree::Build(pois);
  auto result = KnnQuery(tree, {0.52, 0.52}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 1u);
}

TEST(KnnTest, ResultsSortedByDistance) {
  RTree tree = RTree::Build(GenerateUniform(500, 3));
  auto result = KnnQuery(tree, {0.3, 0.7}, 20);
  ASSERT_EQ(result.size(), 20u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].cost, result[i].cost);
  }
}

TEST(KnnTest, ReportedCostIsTrueDistance) {
  RTree tree = RTree::Build(GenerateUniform(200, 4));
  Point q{0.25, 0.75};
  for (const RankedPoi& rp : KnnQuery(tree, q, 10)) {
    EXPECT_DOUBLE_EQ(rp.cost, Distance(q, rp.poi.location));
  }
}

class KnnDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnDifferentialTest, MatchesBruteForce) {
  const int k = GetParam();
  std::vector<Poi> pois = GenerateSequoiaLike(3000, 55);
  RTree tree = RTree::Build(pois);
  Rng rng(66);
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    auto fast = KnnQuery(tree, q, k);
    auto slow = KnnBruteForce(pois, q, k);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].poi.id, slow[i].poi.id)
          << "trial " << trial << " rank " << i;
      EXPECT_DOUBLE_EQ(fast[i].cost, slow[i].cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnDifferentialTest,
                         ::testing::Values(1, 2, 8, 32, 100));

// A point of the 16 x 16 grid with exact binary coordinates, so distances
// tie exactly whenever the offsets match.
Point GridPoint(Rng& rng) {
  return {static_cast<double>(rng.NextBelow(16)) / 16.0,
          static_cast<double>(rng.NextBelow(16)) / 16.0};
}

TEST(KnnTest, MatchesBruteForceOnTiedGrid) {
  // 3,000 POIs on 256 grid points tie on distance everywhere, and their
  // ids are shuffled, so the answer is right only if KnnQuery emits the
  // (distance, id) order KnnBruteForce sorts by: ids, order and cost bits.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(700 + seed);
    std::vector<uint32_t> ids(3000);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
    rng.Shuffle(ids);
    std::vector<Poi> pois(ids.size());
    for (size_t i = 0; i < pois.size(); ++i) pois[i] = {ids[i], GridPoint(rng)};
    RTree tree = RTree::Build(pois);
    for (int trial = 0; trial < 20; ++trial) {
      const Point q = GridPoint(rng);
      for (int k : {1, 5, 17, 40}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " trial " << trial << " k=" << k);
        const std::vector<RankedPoi> fast = KnnQuery(tree, q, k);
        const std::vector<RankedPoi> slow = KnnBruteForce(pois, q, k);
        ASSERT_EQ(fast.size(), slow.size());
        for (size_t i = 0; i < fast.size(); ++i) {
          ASSERT_EQ(fast[i].poi.id, slow[i].poi.id) << "rank " << i;
          ASSERT_EQ(std::bit_cast<uint64_t>(fast[i].cost),
                    std::bit_cast<uint64_t>(slow[i].cost))
              << "rank " << i;
        }
      }
    }
  }
}

TEST(KnnTest, QueryOutsideDataSpace) {
  std::vector<Poi> pois = GenerateUniform(100, 7);
  RTree tree = RTree::Build(pois);
  auto fast = KnnQuery(tree, {5.0, 5.0}, 5);
  auto slow = KnnBruteForce(pois, {5.0, 5.0}, 5);
  ASSERT_EQ(fast.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(fast[i].poi.id, slow[i].poi.id);
}

}  // namespace
}  // namespace ppgnn
