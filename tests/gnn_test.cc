#include "spatial/gnn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <queue>

#include "common/random.h"
#include "core/candidate.h"
#include "core/partition.h"
#include "service/shard_coordinator.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

std::vector<Point> RandomGroup(int n, Rng& rng) {
  std::vector<Point> out(n);
  for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
  return out;
}

// Same ids in the same order, and the same cost bits.
void ExpectSameAnswers(const std::vector<RankedPoi>& got,
                       const std::vector<RankedPoi>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].poi.id, want[i].poi.id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].cost),
              std::bit_cast<uint64_t>(want[i].cost))
        << "rank " << i;
  }
}

// A point of the 16 x 16 grid with exact binary coordinates, so distances
// between grid points tie exactly whenever their offsets match.
Point GridPoint(Rng& rng) {
  return {static_cast<double>(rng.NextBelow(16)) / 16.0,
          static_cast<double>(rng.NextBelow(16)) / 16.0};
}

// `count` grid POIs (so many share a point) with shuffled ids, so id
// order is unrelated to where a POI lands in the tree.
std::vector<Poi> TiedGridPois(size_t count, Rng& rng) {
  std::vector<uint32_t> ids(count);
  for (size_t i = 0; i < count; ++i) ids[i] = static_cast<uint32_t>(i);
  rng.Shuffle(ids);
  std::vector<Poi> pois(count);
  for (size_t i = 0; i < count; ++i) pois[i] = {ids[i], GridPoint(rng)};
  return pois;
}

// Node pops of the best-first MBM loop with the solver's total order
// (key, nodes before POIs, node index or POI id) and no frontier
// pruning: every child and POI is queued.
uint64_t UnprunedNodePops(const RTree& tree, const std::vector<Point>& queries,
                          int k, AggregateKind kind) {
  struct Entry {
    double key;
    bool is_poi;
    uint32_t index;
    uint32_t tie;
  };
  auto later = [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    if (a.is_poi != b.is_poi) return a.is_poi;
    if (a.tie != b.tie) return a.tie > b.tie;
    return a.index > b.index;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> frontier(
      later);
  uint64_t node_pops = 0;
  int pois_popped = 0;
  const uint32_t root = tree.root();
  frontier.push(
      {AggregateMinDistance(kind, tree.nodes()[root].box, queries), false,
       root, root});
  while (!frontier.empty() && pois_popped < k) {
    const Entry top = frontier.top();
    frontier.pop();
    if (top.is_poi) {
      ++pois_popped;
      continue;
    }
    ++node_pops;
    const RTree::Node& node = tree.nodes()[top.index];
    for (uint32_t entry : node.entries) {
      if (node.is_leaf) {
        const Poi& poi = tree.pois()[entry];
        frontier.push({AggregateCost(kind, poi.location, queries), true,
                       entry, poi.id});
      } else {
        frontier.push({AggregateMinDistance(kind, tree.nodes()[entry].box,
                                            queries),
                       false, entry, entry});
      }
    }
  }
  return node_pops;
}

TEST(GnnTest, EmptyInputs) {
  RTree tree = RTree::Build(GenerateUniform(10, 1));
  MbmGnnSolver solver(&tree);
  EXPECT_TRUE(solver.Query({}, 3, AggregateKind::kSum).empty());
  EXPECT_TRUE(
      solver.Query({{0.5, 0.5}}, 0, AggregateKind::kSum).empty());
  RTree empty = RTree::Build({});
  MbmGnnSolver empty_solver(&empty);
  EXPECT_TRUE(
      empty_solver.Query({{0.5, 0.5}}, 3, AggregateKind::kSum).empty());
}

TEST(GnnTest, SingleUserReducesToKnn) {
  std::vector<Poi> pois = GenerateUniform(1000, 2);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  Point q{0.4, 0.6};
  auto gnn = solver.Query({q}, 10, AggregateKind::kSum);
  auto knn = KnnBruteForce(pois, q, 10);
  ASSERT_EQ(gnn.size(), knn.size());
  for (size_t i = 0; i < gnn.size(); ++i) {
    EXPECT_EQ(gnn[i].poi.id, knn[i].poi.id);
  }
}

TEST(GnnTest, SumMinimizerForTwoUsersLiesBetween) {
  // Place a POI exactly between two users plus decoys far away; the
  // midpoint POI must win under sum.
  std::vector<Poi> pois = {
      {0, {0.5, 0.5}}, {1, {0.05, 0.05}}, {2, {0.95, 0.95}}};
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  auto result = solver.Query({{0.3, 0.3}, {0.7, 0.7}}, 1, AggregateKind::kSum);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 0u);
}

TEST(GnnTest, MinAggregatePicksAnyUsersNearest) {
  std::vector<Poi> pois = {{0, {0.0, 0.0}}, {1, {1.0, 1.0}}, {2, {0.5, 0.0}}};
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  // User B sits on POI 1; min-aggregate must return it first.
  auto result =
      solver.Query({{0.2, 0.2}, {1.0, 1.0}}, 1, AggregateKind::kMin);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 1u);
}

TEST(GnnTest, ResultsSortedByAggregateCost) {
  RTree tree = RTree::Build(GenerateSequoiaLike(2000, 3));
  MbmGnnSolver solver(&tree);
  Rng rng(4);
  auto queries = RandomGroup(5, rng);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    auto result = solver.Query(queries, 15, kind);
    ASSERT_EQ(result.size(), 15u);
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].cost, result[i].cost);
    }
    for (const RankedPoi& rp : result) {
      EXPECT_DOUBLE_EQ(rp.cost, AggregateCost(kind, rp.poi.location, queries));
    }
  }
}

struct GnnCase {
  int n;
  int k;
  AggregateKind kind;
};

class GnnDifferentialTest : public ::testing::TestWithParam<GnnCase> {};

TEST_P(GnnDifferentialTest, MbmMatchesBruteForce) {
  const GnnCase& c = GetParam();
  std::vector<Poi> pois = GenerateSequoiaLike(2500, 77);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver mbm(&tree);
  BruteForceGnnSolver brute(&pois);
  Rng rng(88 + c.n * 10 + c.k);
  for (int trial = 0; trial < 10; ++trial) {
    auto queries = RandomGroup(c.n, rng);
    auto fast = mbm.Query(queries, c.k, c.kind);
    auto slow = brute.Query(queries, c.k, c.kind);
    ExpectSameAnswers(fast, slow);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GnnDifferentialTest,
    ::testing::Values(GnnCase{1, 5, AggregateKind::kSum},
                      GnnCase{2, 8, AggregateKind::kSum},
                      GnnCase{8, 8, AggregateKind::kSum},
                      GnnCase{32, 4, AggregateKind::kSum},
                      GnnCase{4, 16, AggregateKind::kMax},
                      GnnCase{8, 8, AggregateKind::kMax},
                      GnnCase{4, 16, AggregateKind::kMin},
                      GnnCase{8, 8, AggregateKind::kMin}));

TEST(GnnTest, MbmMatchesBruteForceOnTiedGrid) {
  // Duplicate POIs and users on grid points make costs tie, so the answer
  // is only right if MBM emits the (cost, id) order the brute force sorts
  // by: a node whose key equals a queued POI's cost must pop before that
  // POI, since it may hold a lower-id POI of the same cost.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(300 + seed);
    std::vector<Poi> pois = TiedGridPois(400 + 100 * seed, rng);
    RTree tree = RTree::Build(pois);
    MbmGnnSolver mbm(&tree);
    BruteForceGnnSolver brute(&pois);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Point> queries(1 + trial % 4);
      for (Point& q : queries) q = GridPoint(rng);
      for (AggregateKind kind :
           {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
        for (int k = 1; k <= 6; ++k) {
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " trial " << trial << " "
                       << AggregateKindToString(kind) << " k=" << k);
          ExpectSameAnswers(mbm.Query(queries, k, kind),
                            brute.Query(queries, k, kind));
        }
      }
    }
  }
}

TEST(GnnTest, FrontierPruningKeepsPopsOnThePaperShape) {
  // The paper's defaults: 101 candidates (n = 8, d = 25, delta = 100),
  // answered on one tree and on the four slices a cluster's shards hold.
  // Pruning must keep every answer and the node-pop count of the
  // unpruned traversal, which perfbench reports as spatial.nodes_visited.
  const int n = 8, d = 25;
  PartitionPlan plan = SolvePartition(n, d, 100).value();
  Rng rng(401);
  std::vector<LocationSet> location_sets(n);
  for (LocationSet& set : location_sets) set = RandomGroup(d, rng);
  std::vector<std::vector<Point>> candidates =
      GenerateCandidateQueries(plan, location_sets).value();
  ASSERT_EQ(candidates.size(), 101u);

  std::vector<Poi> pois = GenerateSequoiaLike(5000, 402);
  std::vector<std::vector<Poi>> shapes = PartitionPoisForShards(pois, 4);
  shapes.insert(shapes.begin(), pois);
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    const std::vector<Poi>& slice = shapes[shape];
    RTree tree = RTree::Build(slice);
    MbmGnnSolver mbm(&tree);
    BruteForceGnnSolver brute(&slice);
    const int all = static_cast<int>(slice.size()) + 1;
    for (AggregateKind kind :
         {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
      for (size_t c = 0; c < candidates.size(); ++c) {
        const std::vector<RankedPoi> ranked =
            brute.Query(candidates[c], all, kind);
        for (int k : {1, 8, all}) {
          SCOPED_TRACE(testing::Message()
                       << "shape " << shape << " candidate " << c << " "
                       << AggregateKindToString(kind) << " k=" << k);
          const std::vector<RankedPoi> want(
              ranked.begin(),
              ranked.begin() + std::min<size_t>(ranked.size(), k));
          ExpectSameAnswers(mbm.Query(candidates[c], k, kind), want);
          EXPECT_EQ(mbm.last_nodes_visited(),
                    UnprunedNodePops(tree, candidates[c], k, kind));
        }
      }
    }
  }
}

TEST(GnnTest, MbmPrunesAggressively) {
  // Best-first with the aggregate bound should visit far fewer nodes than
  // the whole tree for a small k.
  RTree tree = RTree::Build(GenerateSequoiaLike(20000, 5));
  MbmGnnSolver solver(&tree);
  Rng rng(6);
  // A realistic group: users within walking distance of each other, so
  // the aggregate bound can cut off most of the tree.
  std::vector<Point> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back({0.4 + 0.05 * rng.NextDouble(),
                       0.6 + 0.05 * rng.NextDouble()});
  }
  solver.Query(queries, 8, AggregateKind::kSum);
  EXPECT_LT(solver.last_nodes_visited(), tree.nodes().size() / 4);
}

TEST(GnnTest, SolverNames) {
  RTree tree = RTree::Build(GenerateUniform(10, 7));
  std::vector<Poi> pois = tree.pois();
  MbmGnnSolver mbm(&tree);
  BruteForceGnnSolver brute(&pois);
  EXPECT_STREQ(mbm.name(), "MBM");
  EXPECT_STREQ(brute.name(), "BruteForce");
}

}  // namespace
}  // namespace ppgnn
