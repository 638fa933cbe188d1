// k-nearest-neighbor search over an R-tree (MBM with one location) plus a
// brute-force reference implementation used for differential testing.

#ifndef PPGNN_SPATIAL_KNN_H_
#define PPGNN_SPATIAL_KNN_H_

#include <vector>

#include "geo/point.h"
#include "spatial/rtree.h"

namespace ppgnn {

/// A ranked query answer entry.
struct RankedPoi {
  Poi poi;
  double cost = 0.0;  // distance (kNN) or aggregate cost (kGNN)
};

/// Returns the k POIs nearest to `query` in ascending distance order
/// (fewer if the database is smaller). Ties are broken by POI id, as in
/// KnnBruteForce.
std::vector<RankedPoi> KnnQuery(const RTree& tree, const Point& query, int k);

/// O(D log D) reference used to validate KnnQuery.
std::vector<RankedPoi> KnnBruteForce(const std::vector<Poi>& pois,
                                     const Point& query, int k);

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_KNN_H_
