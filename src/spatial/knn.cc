#include "spatial/knn.h"

#include <algorithm>

#include "spatial/gnn.h"

namespace ppgnn {

// A sum over one location is 0.0 + Distance, which is Distance bit for
// bit, so MBM's answers are the k first of the (distance, id) order.
std::vector<RankedPoi> KnnQuery(const RTree& tree, const Point& query, int k) {
  return MbmGnnSolver(&tree).Query({query}, k, AggregateKind::kSum);
}

std::vector<RankedPoi> KnnBruteForce(const std::vector<Poi>& pois,
                                     const Point& query, int k) {
  std::vector<RankedPoi> all;
  all.reserve(pois.size());
  for (const Poi& poi : pois) all.push_back({poi, Distance(query, poi.location)});
  std::sort(all.begin(), all.end(), [](const RankedPoi& a, const RankedPoi& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.poi.id < b.poi.id;
  });
  if (all.size() > static_cast<size_t>(std::max(k, 0)))
    all.resize(static_cast<size_t>(std::max(k, 0)));
  return all;
}

}  // namespace ppgnn
