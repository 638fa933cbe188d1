#include "geo/aggregate.h"
#include "geo/point.h"
#include "geo/rect.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ppgnn {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

// Every out[s] of EuclideanDistances must have Distance's bits.
void ExpectDistancesMatch(const Point& from, const double* xs,
                          const double* ys, size_t count) {
  std::vector<double> out(count + 1, -1.0);
  EuclideanDistances(from, xs, ys, count, out.data());
  for (size_t s = 0; s < count; ++s) {
    ASSERT_EQ(std::bit_cast<uint64_t>(out[s]),
              std::bit_cast<uint64_t>(Distance(from, {xs[s], ys[s]})))
        << "count " << count << " sample " << s << " from " << from;
  }
  EXPECT_EQ(out[count], -1.0) << "wrote past count " << count;
}

TEST(PointTest, EuclideanDistancesEqualDistanceBitForBit) {
  Rng rng(41);
  // Random points at scales from 1e-6 to 1e6, so any fused or reordered
  // arithmetic would show in the last bits.
  std::vector<double> xs(1 << 16);
  std::vector<double> ys(xs.size());
  for (size_t s = 0; s < xs.size(); ++s) {
    const double scale = std::pow(10.0, rng.NextInRange(-6, 6));
    xs[s] = (rng.NextDouble() - 0.5) * scale;
    ys[s] = (rng.NextDouble() - 0.5) * scale;
  }
  for (int trial = 0; trial < 8; ++trial) {
    const Point from{rng.NextDouble() - 0.5, rng.NextDouble() - 0.5};
    ExpectDistancesMatch(from, xs.data(), ys.data(), xs.size());
  }

  // Every odd tail, from aligned and from unaligned (8-byte offset)
  // inputs, including samples exactly at `from` (distance 0).
  std::vector<double> bx(35);
  std::vector<double> by(bx.size());
  for (size_t count = 0; count <= 33; ++count) {
    for (size_t offset : {0, 1}) {
      const Point from{rng.NextDouble(), rng.NextDouble()};
      for (size_t s = 0; s < count; ++s) {
        const bool at_from = s % 3 == 0;
        bx[offset + s] = at_from ? from.x : rng.NextDouble();
        by[offset + s] = at_from ? from.y : rng.NextDouble();
      }
      ExpectDistancesMatch(from, bx.data() + offset, by.data() + offset,
                           count);
    }
  }
  const double zx[3] = {0.25, 0.25, 0.25};
  const double zy[3] = {0.75, 0.75, 0.75};
  double zero[3] = {1.0, 1.0, 1.0};
  EuclideanDistances({0.25, 0.75}, zx, zy, 3, zero);
  for (double d : zero) EXPECT_EQ(std::bit_cast<uint64_t>(d), 0u);
}

TEST(RectTest, ContainsAndIntersects) {
  Rect r{0.2, 0.2, 0.6, 0.6};
  EXPECT_TRUE(r.Contains({0.2, 0.2}));   // boundary inclusive
  EXPECT_TRUE(r.Contains({0.4, 0.5}));
  EXPECT_FALSE(r.Contains({0.7, 0.4}));
  EXPECT_TRUE(r.Intersects({0.5, 0.5, 1.0, 1.0}));
  EXPECT_TRUE(r.Intersects({0.6, 0.6, 1.0, 1.0}));  // touching corners
  EXPECT_FALSE(r.Intersects({0.61, 0.61, 1.0, 1.0}));
}

TEST(RectTest, EmptyBehavesAsUnionIdentity) {
  Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0.0);
  Rect r{0.1, 0.1, 0.3, 0.4};
  EXPECT_EQ(e.Union(r), r);
  EXPECT_EQ(r.Union(e), r);
}

TEST(RectTest, UnionCovers) {
  Rect a{0, 0, 1, 1};
  Rect b{2, 2, 3, 3};
  Rect u = a.Union(b);
  EXPECT_EQ(u, (Rect{0, 0, 3, 3}));
}

TEST(RectTest, ExpandToInclude) {
  Rect r = Rect::FromPoint({0.5, 0.5});
  r.ExpandToInclude({0.1, 0.9});
  EXPECT_EQ(r, (Rect{0.1, 0.5, 0.5, 0.9}));
}

TEST(RectTest, GeometryAccessors) {
  Rect r{1, 2, 4, 6};
  EXPECT_DOUBLE_EQ(r.Width(), 3);
  EXPECT_DOUBLE_EQ(r.Height(), 4);
  EXPECT_DOUBLE_EQ(r.Area(), 12);
  EXPECT_DOUBLE_EQ(r.Perimeter(), 14);
  EXPECT_EQ(r.Center(), (Point{2.5, 4}));
}

TEST(RectDistanceTest, MinDistanceZeroInside) {
  Rect r{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(MinDistance({0.5, 0.5}, r), 0.0);
  EXPECT_DOUBLE_EQ(MinDistance({1.0, 1.0}, r), 0.0);  // boundary
}

TEST(RectDistanceTest, MinDistanceToSidesAndCorners) {
  Rect r{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(MinDistance({2.0, 0.5}, r), 1.0);   // right side
  EXPECT_DOUBLE_EQ(MinDistance({0.5, -2.0}, r), 2.0);  // below
  EXPECT_DOUBLE_EQ(MinDistance({4.0, 5.0}, r), 5.0);   // corner: 3-4-5
}

TEST(RectDistanceTest, MaxDistanceIsFarCorner) {
  Rect r{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(MaxDistance({0, 0}, r), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MaxDistance({-3, 0}, r), std::sqrt(16 + 1.0));
  EXPECT_DOUBLE_EQ(MaxDistance({0.5, 0.5}, r), std::sqrt(0.5));
}

TEST(RectDistanceTest, MinLeqMaxProperty) {
  Rng rng(21);
  Rect r{0.3, 0.3, 0.7, 0.8};
  for (int i = 0; i < 200; ++i) {
    Point p{rng.NextDouble() * 3 - 1, rng.NextDouble() * 3 - 1};
    EXPECT_LE(MinDistance(p, r), MaxDistance(p, r));
  }
}

TEST(AggregateTest, KindStringRoundTrip) {
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    EXPECT_EQ(AggregateKindFromString(AggregateKindToString(kind)).value(),
              kind);
  }
  EXPECT_FALSE(AggregateKindFromString("median").ok());
}

TEST(AggregateTest, CostValues) {
  std::vector<Point> queries = {{0, 0}, {0, 3}};
  Point p{4, 0};
  EXPECT_DOUBLE_EQ(AggregateCost(AggregateKind::kSum, p, queries), 4.0 + 5.0);
  EXPECT_DOUBLE_EQ(AggregateCost(AggregateKind::kMax, p, queries), 5.0);
  EXPECT_DOUBLE_EQ(AggregateCost(AggregateKind::kMin, p, queries), 4.0);
}

TEST(AggregateTest, SingleUserAllKindsEqual) {
  std::vector<Point> one = {{0.2, 0.8}};
  Point p{0.9, 0.1};
  double dist = Distance(p, one[0]);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    EXPECT_DOUBLE_EQ(AggregateCost(kind, p, one), dist);
  }
}

class AggregateBoundTest : public ::testing::TestWithParam<AggregateKind> {};

TEST_P(AggregateBoundTest, MinDistanceLowerBoundsEveryInteriorPoint) {
  // The MBM pruning bound must satisfy
  //   AggregateMinDistance(box, C) <= F(q, C) for all q in box.
  AggregateKind kind = GetParam();
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    Rect box{rng.NextDouble() * 0.5, rng.NextDouble() * 0.5, 0, 0};
    box.max_x = box.min_x + rng.NextDouble() * 0.4;
    box.max_y = box.min_y + rng.NextDouble() * 0.4;
    std::vector<Point> queries;
    for (int i = 0; i < 4; ++i)
      queries.push_back({rng.NextDouble(), rng.NextDouble()});
    double bound = AggregateMinDistance(kind, box, queries);
    for (int i = 0; i < 20; ++i) {
      Point q{box.min_x + rng.NextDouble() * box.Width(),
              box.min_y + rng.NextDouble() * box.Height()};
      EXPECT_LE(bound, AggregateCost(kind, q, queries) + 1e-12);
    }
  }
}

TEST_P(AggregateBoundTest, MaxDistanceUpperBoundsEveryInteriorPoint) {
  AggregateKind kind = GetParam();
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    Rect box{rng.NextDouble() * 0.5, rng.NextDouble() * 0.5, 0, 0};
    box.max_x = box.min_x + rng.NextDouble() * 0.4;
    box.max_y = box.min_y + rng.NextDouble() * 0.4;
    std::vector<Point> queries;
    for (int i = 0; i < 4; ++i)
      queries.push_back({rng.NextDouble(), rng.NextDouble()});
    double bound = AggregateMaxDistance(kind, box, queries);
    for (int i = 0; i < 20; ++i) {
      Point q{box.min_x + rng.NextDouble() * box.Width(),
              box.min_y + rng.NextDouble() * box.Height()};
      EXPECT_GE(bound, AggregateCost(kind, q, queries) - 1e-12);
    }
  }
}

TEST_P(AggregateBoundTest, DegenerateBoxEqualsPointCost) {
  AggregateKind kind = GetParam();
  Point p{0.42, 0.24};
  Rect box = Rect::FromPoint(p);
  std::vector<Point> queries = {{0.1, 0.9}, {0.8, 0.3}, {0.5, 0.5}};
  EXPECT_DOUBLE_EQ(AggregateMinDistance(kind, box, queries),
                   AggregateCost(kind, p, queries));
  EXPECT_DOUBLE_EQ(AggregateMaxDistance(kind, box, queries),
                   AggregateCost(kind, p, queries));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregateBoundTest,
                         ::testing::Values(AggregateKind::kSum,
                                           AggregateKind::kMax,
                                           AggregateKind::kMin));

// Every out[c] of both batch kernels must have the scalar fold's bits:
// AggregateMinDistances on the boxes, AggregateCosts on their low corners.
void ExpectBatchMatchesScalar(AggregateKind kind, const std::vector<Rect>& boxes,
                              const std::vector<Point>& queries) {
  const size_t count = boxes.size();
  std::vector<double> lo_x(count), lo_y(count), hi_x(count), hi_y(count);
  for (size_t c = 0; c < count; ++c) {
    lo_x[c] = boxes[c].min_x;
    lo_y[c] = boxes[c].min_y;
    hi_x[c] = boxes[c].max_x;
    hi_y[c] = boxes[c].max_y;
  }
  std::vector<double> out(count + 1, -1.0);
  AggregateMinDistances(kind, lo_x.data(), lo_y.data(), hi_x.data(),
                        hi_y.data(), count, queries, out.data());
  for (size_t c = 0; c < count; ++c) {
    ASSERT_EQ(std::bit_cast<uint64_t>(out[c]),
              std::bit_cast<uint64_t>(
                  AggregateMinDistance(kind, boxes[c], queries)))
        << "box " << c << " " << boxes[c];
  }
  EXPECT_EQ(out[count], -1.0) << "AggregateMinDistances wrote past count";
  AggregateCosts(kind, lo_x.data(), lo_y.data(), count, queries, out.data());
  for (size_t c = 0; c < count; ++c) {
    ASSERT_EQ(std::bit_cast<uint64_t>(out[c]),
              std::bit_cast<uint64_t>(
                  AggregateCost(kind, {lo_x[c], lo_y[c]}, queries)))
        << "point " << c << " (" << lo_x[c] << ", " << lo_y[c] << ")";
  }
  EXPECT_EQ(out[count], -1.0) << "AggregateCosts wrote past count";
}

// Box c of a test batch, cycling through random boxes, boxes with
// `anchor` inside and on an edge, point boxes (some at `anchor`),
// Rect::Empty(), and corners drawn from ±0 and 1e±300.
Rect BatchBox(size_t c, const Point& anchor, Rng& rng) {
  static constexpr double kSpecial[] = {0.0,    -0.0,    1e300,
                                        -1e300, 1e-300, -1e-300};
  const double x = rng.NextDouble();
  const double y = rng.NextDouble();
  switch (c % 6) {
    case 0:
      return {x, y, x + rng.NextDouble() * 0.3, y + rng.NextDouble() * 0.3};
    case 1:
      return {anchor.x - 0.1 * x, anchor.y - 0.1 * y, anchor.x + 0.2 * y,
              anchor.y + 0.2 * x};
    case 2:
      return {anchor.x, anchor.y - 0.1 * y, anchor.x + x, anchor.y + 0.1};
    case 3:
      return Rect::FromPoint(c % 4 == 1 ? anchor : Point{x, y});
    case 4:
      return Rect::Empty();
    default:
      return {kSpecial[rng.NextBelow(6)], kSpecial[rng.NextBelow(6)],
              kSpecial[rng.NextBelow(6)], kSpecial[rng.NextBelow(6)]};
  }
}

TEST(AggregateTest, BatchKernelsEqualScalarFoldBitForBit) {
  Rng rng(43);
  std::vector<Point> paper(8);
  for (Point& q : paper) q = {rng.NextDouble(), rng.NextDouble()};
  std::vector<Point> signed_zeros = paper;
  signed_zeros.push_back({0.0, -0.0});
  signed_zeros.push_back({-0.0, 0.0});
  const std::vector<std::vector<Point>> query_sets = {
      {},
      {{rng.NextDouble(), rng.NextDouble()}},
      paper,
      signed_zeros,
      {{0.5, 0.25}, {1e300, -1e300}, {1e-300, -1e-300}},
  };
  // Twice an R-tree node's fanout (16) plus an odd tail.
  constexpr size_t kMaxCount = 2 * 16 + 1;
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    for (size_t set = 0; set < query_sets.size(); ++set) {
      const std::vector<Point>& queries = query_sets[set];
      const Point anchor = queries.empty() ? Point{0.5, 0.5} : queries[0];
      for (size_t count = 0; count <= kMaxCount; ++count) {
        SCOPED_TRACE(testing::Message() << AggregateKindToString(kind)
                                        << " query set " << set << " count "
                                        << count);
        std::vector<Rect> boxes(count);
        for (size_t c = 0; c < count; ++c) boxes[c] = BatchBox(c, anchor, rng);
        ExpectBatchMatchesScalar(kind, boxes, queries);
      }
    }
  }
}

}  // namespace
}  // namespace ppgnn
