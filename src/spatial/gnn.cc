#include "spatial/gnn.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace ppgnn {
namespace {

// Frontier entry, 16 bytes. The order is total: key first, then `order`,
// which packs the tie-breaks into one integer: bit 63 is clear for nodes
// and set for POIs, so nodes pop before POIs; below it sits a node's
// index, or a POI's id above its 31-bit slot in tree->pois() (should two
// POIs share an id).
struct FrontierEntry {
  double key;
  uint64_t order;
};

constexpr uint64_t kPoiBit = uint64_t{1} << 63;
constexpr int kSlotBits = 31;
static_assert(RTree::kMaxPois <= uint64_t{1} << kSlotBits);

uint64_t PoiOrder(uint32_t id, uint32_t slot) {
  return kPoiBit | uint64_t{id} << kSlotBits | slot;
}

// The frontier's initial capacity, 8 KB: at the paper defaults a query's
// frontier peaks at a median of 460 entries on the 62,556-POI tree and
// 169 on a quarter slice.
constexpr size_t kFrontierReserve = 512;

// The heap's comparator: true when `a` pops after `b`.
bool PopsAfter(const FrontierEntry& a, const FrontierEntry& b) {
  if (a.key != b.key) return a.key > b.key;
  return a.order > b.order;
}

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

  const std::vector<RTree::Node>& nodes = tree_->nodes();
  const std::vector<Poi>& pois = tree_->pois();
  std::vector<FrontierEntry> frontier;
  frontier.reserve(kFrontierReserve);
  std::priority_queue<double> kth_best;  // k smallest POI costs pushed
  double cap = std::numeric_limits<double>::infinity();
  const auto push = [&](double key, uint64_t order) {
    frontier.push_back({key, order});
    std::push_heap(frontier.begin(), frontier.end(), PopsAfter);
  };
  push(AggregateMinDistance(kind, nodes[tree_->root()].box, queries),
       tree_->root());
  // A popped node's children, gathered for one kernel call: a leaf's POI
  // coordinates, or the child boxes' corners. A node holds at most
  // kFanout entries; a longer list would go through in chunks.
  double xs[RTree::kFanout] = {}, ys[RTree::kFanout] = {};
  double lo_x[RTree::kFanout] = {}, lo_y[RTree::kFanout] = {};
  double hi_x[RTree::kFanout] = {}, hi_y[RTree::kFanout] = {};
  double keys[RTree::kFanout] = {};
  while (!frontier.empty() && out.size() < static_cast<size_t>(k)) {
    std::pop_heap(frontier.begin(), frontier.end(), PopsAfter);
    const FrontierEntry top = frontier.back();
    frontier.pop_back();
    if (top.order & kPoiBit) {
      const uint32_t slot = top.order & ((uint64_t{1} << kSlotBits) - 1);
      out.push_back({pois[slot], top.key});
      continue;
    }
    ++nodes_visited;
    const RTree::Node& node = nodes[static_cast<uint32_t>(top.order)];
    for (size_t base = 0; base < node.entries.size();
         base += RTree::kFanout) {
      const uint32_t* chunk = node.entries.data() + base;
      const size_t count =
          std::min<size_t>(node.entries.size() - base, RTree::kFanout);
      if (node.is_leaf) {
        for (size_t c = 0; c < count; ++c) {
          xs[c] = pois[chunk[c]].location.x;
          ys[c] = pois[chunk[c]].location.y;
        }
        AggregateCosts(kind, xs, ys, count, queries, keys);
        for (size_t c = 0; c < count; ++c) {
          const double cost = keys[c];
          if (cost > cap) continue;
          push(cost, PoiOrder(pois[chunk[c]].id, chunk[c]));
          kth_best.push(cost);
          if (kth_best.size() > static_cast<size_t>(k)) kth_best.pop();
          if (kth_best.size() == static_cast<size_t>(k)) cap = kth_best.top();
        }
      } else {
        for (size_t c = 0; c < count; ++c) {
          const Rect& box = nodes[chunk[c]].box;
          lo_x[c] = box.min_x;
          lo_y[c] = box.min_y;
          hi_x[c] = box.max_x;
          hi_y[c] = box.max_y;
        }
        AggregateMinDistances(kind, lo_x, lo_y, hi_x, hi_y, count, queries,
                              keys);
        for (size_t c = 0; c < count; ++c) {
          if (keys[c] > cap) continue;
          push(keys[c], chunk[c]);
        }
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
