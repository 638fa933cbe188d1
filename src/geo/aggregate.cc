#include "geo/aggregate.h"

#include <algorithm>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ppgnn {

Result<AggregateKind> AggregateKindFromString(const std::string& name) {
  if (name == "sum") return AggregateKind::kSum;
  if (name == "max") return AggregateKind::kMax;
  if (name == "min") return AggregateKind::kMin;
  return Status::InvalidArgument("unknown aggregate function: " + name);
}

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kMin:
      return "min";
  }
  return "unknown";
}

namespace {

template <typename DistFn>
double Fold(AggregateKind kind, const std::vector<Point>& queries,
            DistFn&& dist) {
  switch (kind) {
    case AggregateKind::kSum: {
      double total = 0.0;
      for (const Point& q : queries) total += dist(q);
      return total;
    }
    case AggregateKind::kMax: {
      double best = 0.0;
      for (const Point& q : queries) best = std::max(best, dist(q));
      return best;
    }
    case AggregateKind::kMin: {
      double best = std::numeric_limits<double>::infinity();
      for (const Point& q : queries) best = std::min(best, dist(q));
      return best;
    }
  }
  return 0.0;
}

#if defined(__SSE2__)
// Fold for two children at once, one per lane: each lane starts from
// Fold's initial value and takes Fold's steps in Fold's operand order.
// std::max(best, d) is (best < d) ? d : best, which is maxpd(d, best);
// std::min(best, d) is (d < best) ? d : best, which is minpd(d, best).
// So each lane rounds, and picks among ±0 and NaN, as the scalar does.
template <typename DistFn>
__m128d FoldPair(AggregateKind kind, const std::vector<Point>& queries,
                 DistFn&& dist) {
  switch (kind) {
    case AggregateKind::kSum: {
      __m128d total = _mm_setzero_pd();
      for (const Point& q : queries) total = _mm_add_pd(total, dist(q));
      return total;
    }
    case AggregateKind::kMax: {
      __m128d best = _mm_setzero_pd();
      for (const Point& q : queries) best = _mm_max_pd(dist(q), best);
      return best;
    }
    case AggregateKind::kMin: {
      __m128d best = _mm_set1_pd(std::numeric_limits<double>::infinity());
      for (const Point& q : queries) best = _mm_min_pd(dist(q), best);
      return best;
    }
  }
  return _mm_setzero_pd();
}

// sqrt(dx * dx + dy * dy) in Distance's order; sqrtpd rounds like sqrtsd,
// and ppgnn_geo's -ffp-contract=off keeps the scalar side unfused too.
__m128d Norm(__m128d dx, __m128d dy) {
  return _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
}

// MinDistance's std::max({lo - q, 0.0, q - hi}) keeps the first of equal
// maxima: (lo - q < 0.0 ? 0.0 : lo - q), then that unless it is below
// q - hi. maxpd(a, b) is (a > b) ? a : b, so the two steps are
// maxpd(0.0, lo - q) and maxpd(q - hi, that).
__m128d AxisGap(__m128d q, __m128d lo, __m128d hi) {
  const __m128d below = _mm_max_pd(_mm_setzero_pd(), _mm_sub_pd(lo, q));
  return _mm_max_pd(_mm_sub_pd(q, hi), below);
}
#endif

}  // namespace

double AggregateCost(AggregateKind kind, const Point& p,
                     const std::vector<Point>& queries) {
  return Fold(kind, queries, [&](const Point& q) { return Distance(p, q); });
}

double AggregateMinDistance(AggregateKind kind, const Rect& box,
                            const std::vector<Point>& queries) {
  return Fold(kind, queries,
              [&](const Point& q) { return MinDistance(q, box); });
}

double AggregateMaxDistance(AggregateKind kind, const Rect& box,
                            const std::vector<Point>& queries) {
  return Fold(kind, queries,
              [&](const Point& q) { return MaxDistance(q, box); });
}

void AggregateMinDistances(AggregateKind kind, const double* min_x,
                           const double* min_y, const double* max_x,
                           const double* max_y, size_t count,
                           const std::vector<Point>& queries, double* out) {
  size_t c = 0;
#if defined(__SSE2__)
  for (; c + 2 <= count; c += 2) {
    const __m128d lo_x = _mm_loadu_pd(min_x + c);
    const __m128d lo_y = _mm_loadu_pd(min_y + c);
    const __m128d hi_x = _mm_loadu_pd(max_x + c);
    const __m128d hi_y = _mm_loadu_pd(max_y + c);
    _mm_storeu_pd(out + c, FoldPair(kind, queries, [&](const Point& q) {
                    return Norm(AxisGap(_mm_set1_pd(q.x), lo_x, hi_x),
                                AxisGap(_mm_set1_pd(q.y), lo_y, hi_y));
                  }));
  }
#endif
  for (; c < count; ++c) {
    out[c] = AggregateMinDistance(
        kind, {min_x[c], min_y[c], max_x[c], max_y[c]}, queries);
  }
}

void AggregateCosts(AggregateKind kind, const double* xs, const double* ys,
                    size_t count, const std::vector<Point>& queries,
                    double* out) {
  size_t c = 0;
#if defined(__SSE2__)
  for (; c + 2 <= count; c += 2) {
    const __m128d px = _mm_loadu_pd(xs + c);
    const __m128d py = _mm_loadu_pd(ys + c);
    _mm_storeu_pd(out + c, FoldPair(kind, queries, [&](const Point& q) {
                    return Norm(_mm_sub_pd(px, _mm_set1_pd(q.x)),
                                _mm_sub_pd(py, _mm_set1_pd(q.y)));
                  }));
  }
#endif
  for (; c < count; ++c) out[c] = AggregateCost(kind, {xs[c], ys[c]}, queries);
}

}  // namespace ppgnn
