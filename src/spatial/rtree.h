// R-tree over POIs: STR bulk load plus dynamic Guttman insert/delete.
//
// The tree is built from the LSP's POI database via Sort-Tile-Recursive
// packing (Leutenegger et al.) and then serves best-first kNN / kGNN
// traversals and range queries. It also supports dynamic updates —
// Guttman's ChooseLeaf + quadratic split on insert, and condense-tree
// with reinsertion on delete — because the paper holds up dynamic
// databases as a PPGNN advantage: unlike APNN-style pre-computation,
// nothing else needs recomputing when a POI appears or disappears.
// Nodes are stored in a flat arena for locality; child links are indices.

#ifndef PPGNN_SPATIAL_RTREE_H_
#define PPGNN_SPATIAL_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ppgnn {

class RTree {
 public:
  /// Maximum entries per node.
  static constexpr int kFanout = 16;

  struct Node {
    Rect box = Rect::Empty();
    bool is_leaf = true;
    // Leaf: indices into pois(); internal: indices into nodes.
    std::vector<uint32_t> entries;
  };

  /// Minimum entries per node after a split (Guttman's m).
  static constexpr int kMinFill = kFanout * 2 / 5;

  /// Most slots the POI arena may hold, deleted ones included: the MBM
  /// frontier packs a slot into 31 bits (gnn.cc). Build and Insert abort
  /// rather than grow past it.
  static constexpr size_t kMaxPois = size_t{1} << 31;

  /// Builds a tree over a copy of `pois` with STR packing. An empty
  /// database yields an empty (but valid) tree.
  static RTree Build(std::vector<Poi> pois);

  bool Empty() const { return live_count_ == 0; }
  /// Number of live POIs (inserted minus deleted).
  size_t Size() const { return live_count_; }
  /// The POI arena. Slots of deleted POIs remain but are detached from
  /// the tree; iterate LivePois() for the current database.
  const std::vector<Poi>& pois() const { return pois_; }
  /// Copies of all live POIs (the current database contents).
  std::vector<Poi> LivePois() const;
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Index of the root node; only valid when !Empty().
  uint32_t root() const { return root_; }
  /// Height of the tree (leaf = 1); 0 when empty.
  int Height() const { return height_; }

  /// Dynamic insert (Guttman ChooseLeaf + quadratic split).
  void Insert(const Poi& poi);

  /// Deletes the first live POI with this id. Returns true if found.
  /// Underfull nodes along the path are dissolved and their entries
  /// reinserted (condense-tree).
  bool Delete(uint32_t poi_id);

  /// All POIs whose location falls inside `range` (inclusive bounds).
  std::vector<Poi> RangeQuery(const Rect& range) const;

  /// Validates structural invariants (MBR containment, fanout bounds,
  /// every live POI reachable exactly once, balance). Used by tests.
  Status CheckInvariants() const;

 private:
  uint32_t AllocNode();
  // Returns the leaf best suited for `box` (least area enlargement).
  uint32_t ChooseLeaf(const Rect& box, std::vector<uint32_t>* path) const;
  // Splits `node` (overfull) into itself + a new node; returns the new id.
  uint32_t SplitNode(uint32_t node_id);
  void RecomputeBox(uint32_t node_id);
  Rect EntryBox(const Node& node, size_t i) const;
  // Walks up `path` fixing boxes and propagating splits.
  void AdjustTree(std::vector<uint32_t> path, uint32_t split_id);
  // Finds the leaf containing POI index `poi_index`; fills `path`
  // (root..leaf). Returns false if not found.
  bool FindLeaf(uint32_t poi_index, uint32_t node_id,
                std::vector<uint32_t>* path) const;

  std::vector<Poi> pois_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_nodes_;
  uint32_t root_ = 0;
  int height_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_RTREE_H_
