#include "spatial/gnn.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace ppgnn {
namespace {

// Frontier entry. The order is total: key first, then nodes before POIs,
// then nodes by node index and POIs by id (and by slot, should two POIs
// share an id).
struct QueueEntry {
  double key;
  bool is_poi;
  uint32_t index;  // node index, or POI slot in tree->pois()
  uint32_t tie;    // node index, or POI id

  bool operator>(const QueueEntry& o) const {
    if (key != o.key) return key > o.key;
    if (is_poi != o.is_poi) return is_poi;  // nodes pop before POIs
    if (tie != o.tie) return tie > o.tie;
    return index > o.index;
  }
};

}  // namespace

// Best-first MBM with exact frontier pruning.
//
// Keys are monotone in floating point too: a child's box lies inside its
// parent's, so no MinDistance term gets smaller, and a POI's cost is
// never below its leaf's bound; rounded subtraction, multiplication,
// addition, sqrt, max and min are all monotone. So keys pop in
// non-decreasing order. Popping nodes before POIs on equal keys puts
// every POI of cost c into the frontier before the first of them pops,
// so the outputs are exactly the first k of the (cost, id) order that
// BruteForceGnnSolver and the shard merge use.
//
// `cap` is the k-th smallest POI cost pushed so far (+inf until k are
// pushed), and an entry whose key is strictly above it is never pushed.
// When `cap` is set, k POIs of cost <= cap are in the frontier or already
// popped; all of them pop before any entry keyed above `cap`, and once
// they have, the loop has output k POIs and stops. So such an entry
// would never pop, and since the order is total, dropping it leaves the
// minimum the same at every step: pops, answers and the visit count are
// those of the unpruned traversal. Equal keys are pushed, because ties
// are broken by id.
std::vector<RankedPoi> MbmGnnSolver::Query(const std::vector<Point>& queries,
                                           int k, AggregateKind kind) const {
  uint64_t nodes_visited = 0;
  std::vector<RankedPoi> out;
  if (tree_->Empty() || k <= 0 || queries.empty()) {
    last_nodes_visited_.store(0, std::memory_order_relaxed);
    return out;
  }

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  std::priority_queue<double> kth_best;  // k smallest POI costs pushed
  double cap = std::numeric_limits<double>::infinity();
  frontier.push({AggregateMinDistance(kind, tree_->nodes()[tree_->root()].box,
                                      queries),
                 false, tree_->root(), tree_->root()});
  while (!frontier.empty() && out.size() < static_cast<size_t>(k)) {
    QueueEntry top = frontier.top();
    frontier.pop();
    if (top.is_poi) {
      out.push_back({tree_->pois()[top.index], top.key});
      continue;
    }
    ++nodes_visited;
    const RTree::Node& node = tree_->nodes()[top.index];
    if (node.is_leaf) {
      for (uint32_t idx : node.entries) {
        const Poi& poi = tree_->pois()[idx];
        const double cost = AggregateCost(kind, poi.location, queries);
        if (cost > cap) continue;
        frontier.push({cost, true, idx, poi.id});
        kth_best.push(cost);
        if (kth_best.size() > static_cast<size_t>(k)) kth_best.pop();
        if (kth_best.size() == static_cast<size_t>(k)) cap = kth_best.top();
      }
    } else {
      for (uint32_t child : node.entries) {
        const double key =
            AggregateMinDistance(kind, tree_->nodes()[child].box, queries);
        if (key > cap) continue;
        frontier.push({key, false, child, child});
      }
    }
  }
  last_nodes_visited_.store(nodes_visited, std::memory_order_relaxed);
  return out;
}

std::vector<RankedPoi> BruteForceGnnSolver::Query(
    const std::vector<Point>& queries, int k, AggregateKind kind) const {
  std::vector<RankedPoi> all;
  all.reserve(pois_->size());
  for (const Poi& poi : *pois_) {
    all.push_back({poi, AggregateCost(kind, poi.location, queries)});
  }
  std::sort(all.begin(), all.end(), [](const RankedPoi& a, const RankedPoi& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.poi.id < b.poi.id;
  });
  if (all.size() > static_cast<size_t>(std::max(k, 0)))
    all.resize(static_cast<size_t>(std::max(k, 0)));
  return all;
}

}  // namespace ppgnn
