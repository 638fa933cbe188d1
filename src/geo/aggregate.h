// Aggregate cost functions F over per-user distances (Eqn 1 of the paper).
//
// F(p, C) = F(dis(p, l_1), ..., dis(p, l_n)) for a POI p and query
// locations C. F must be monotonically increasing in each argument; the
// paper evaluates sum (default), max, and min.

#ifndef PPGNN_GEO_AGGREGATE_H_
#define PPGNN_GEO_AGGREGATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ppgnn {

enum class AggregateKind {
  kSum,
  kMax,
  kMin,
};

Result<AggregateKind> AggregateKindFromString(const std::string& name);
const char* AggregateKindToString(AggregateKind kind);

/// Evaluates F(p, C) for a candidate POI location against query locations.
double AggregateCost(AggregateKind kind, const Point& p,
                     const std::vector<Point>& queries);

/// A lower bound on F(q, C) over all q inside `box` — the MBM pruning
/// bound: amindist(box, C) = F(mindist(box, l_1), ..., mindist(box, l_n)).
/// Valid because F is monotone in each per-user distance.
double AggregateMinDistance(AggregateKind kind, const Rect& box,
                            const std::vector<Point>& queries);

/// An upper bound on F(q, C) over all q inside `box` (used by IPPF-style
/// candidate filtering): F(maxdist(box, l_1), ..., maxdist(box, l_n)).
double AggregateMaxDistance(AggregateKind kind, const Rect& box,
                            const std::vector<Point>& queries);

/// out[c] = AggregateMinDistance(kind, {min_x[c], min_y[c], max_x[c],
/// max_y[c]}, queries) for c < count, bit for bit. SSE2 targets evaluate
/// two boxes per instruction (aggregate.cc).
void AggregateMinDistances(AggregateKind kind, const double* min_x,
                           const double* min_y, const double* max_x,
                           const double* max_y, size_t count,
                           const std::vector<Point>& queries, double* out);

/// out[c] = AggregateCost(kind, {xs[c], ys[c]}, queries) for c < count,
/// bit for bit. SSE2 targets evaluate two points per instruction.
void AggregateCosts(AggregateKind kind, const double* xs, const double* ys,
                    size_t count, const std::vector<Point>& queries,
                    double* out);

}  // namespace ppgnn

#endif  // PPGNN_GEO_AGGREGATE_H_
