#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ppgnn {
namespace {

void CheckPoiArena(size_t slots) {
  if (slots <= RTree::kMaxPois) return;
  std::fprintf(stderr, "RTree: %zu POI slots exceed the limit of %zu\n",
               slots, RTree::kMaxPois);
  std::abort();
}

}  // namespace

RTree RTree::Build(std::vector<Poi> pois) {
  CheckPoiArena(pois.size());
  RTree tree;
  tree.pois_ = std::move(pois);
  tree.live_.assign(tree.pois_.size(), true);
  tree.live_count_ = tree.pois_.size();
  if (tree.pois_.empty()) return tree;

  // --- leaf level: Sort-Tile-Recursive packing ---
  std::vector<uint32_t> order(tree.pois_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return tree.pois_[a].location.x < tree.pois_[b].location.x;
  });

  const size_t count = order.size();
  const size_t leaf_count = (count + kFanout - 1) / kFanout;
  const size_t slice_count =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const size_t slice_size =
      slice_count == 0 ? count : (count + slice_count - 1) / slice_count;

  std::vector<uint32_t> level;  // node ids of the current level
  for (size_t s = 0; s < count; s += slice_size) {
    size_t end = std::min(s + slice_size, count);
    std::sort(order.begin() + s, order.begin() + end,
              [&](uint32_t a, uint32_t b) {
                return tree.pois_[a].location.y < tree.pois_[b].location.y;
              });
    for (size_t i = s; i < end; i += kFanout) {
      Node leaf;
      leaf.is_leaf = true;
      size_t leaf_end = std::min(i + kFanout, end);
      for (size_t j = i; j < leaf_end; ++j) {
        leaf.entries.push_back(order[j]);
        leaf.box.ExpandToInclude(tree.pois_[order[j]].location);
      }
      level.push_back(static_cast<uint32_t>(tree.nodes_.size()));
      tree.nodes_.push_back(std::move(leaf));
    }
  }
  tree.height_ = 1;

  // --- pack upward until a single root remains ---
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [&](uint32_t a, uint32_t b) {
      return tree.nodes_[a].box.Center().x < tree.nodes_[b].box.Center().x;
    });
    const size_t n = level.size();
    const size_t parent_count = (n + kFanout - 1) / kFanout;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(parent_count))));
    const size_t per_slice = slices == 0 ? n : (n + slices - 1) / slices;

    std::vector<uint32_t> next_level;
    for (size_t s = 0; s < n; s += per_slice) {
      size_t end = std::min(s + per_slice, n);
      std::sort(level.begin() + s, level.begin() + end,
                [&](uint32_t a, uint32_t b) {
                  return tree.nodes_[a].box.Center().y <
                         tree.nodes_[b].box.Center().y;
                });
      for (size_t i = s; i < end; i += kFanout) {
        Node parent;
        parent.is_leaf = false;
        size_t parent_end = std::min(i + kFanout, end);
        for (size_t j = i; j < parent_end; ++j) {
          parent.entries.push_back(level[j]);
          parent.box = parent.box.Union(tree.nodes_[level[j]].box);
        }
        next_level.push_back(static_cast<uint32_t>(tree.nodes_.size()));
        tree.nodes_.push_back(std::move(parent));
      }
    }
    level = std::move(next_level);
    ++tree.height_;
  }
  tree.root_ = level[0];
  return tree;
}

std::vector<Poi> RTree::LivePois() const {
  std::vector<Poi> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < pois_.size(); ++i) {
    if (live_[i]) out.push_back(pois_[i]);
  }
  return out;
}

// ---------- dynamic operations ----------

uint32_t RTree::AllocNode() {
  if (!free_nodes_.empty()) {
    uint32_t id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id] = Node{};
    return id;
  }
  nodes_.push_back(Node{});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Rect RTree::EntryBox(const Node& node, size_t i) const {
  return node.is_leaf ? Rect::FromPoint(pois_[node.entries[i]].location)
                      : nodes_[node.entries[i]].box;
}

void RTree::RecomputeBox(uint32_t node_id) {
  Node& node = nodes_[node_id];
  Rect box = Rect::Empty();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    box = box.Union(EntryBox(node, i));
  }
  node.box = box;
}

uint32_t RTree::ChooseLeaf(const Rect& box,
                           std::vector<uint32_t>* path) const {
  uint32_t id = root_;
  while (true) {
    path->push_back(id);
    const Node& node = nodes_[id];
    if (node.is_leaf) return id;
    // Least area enlargement; ties by smaller area.
    uint32_t best_child = node.entries[0];
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t child : node.entries) {
      const Rect& child_box = nodes_[child].box;
      double area = child_box.Area();
      double enlargement = child_box.Union(box).Area() - area;
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = child;
      }
    }
    id = best_child;
  }
}

uint32_t RTree::SplitNode(uint32_t node_id) {
  // Guttman's quadratic split.
  const bool is_leaf = nodes_[node_id].is_leaf;
  std::vector<uint32_t> entries = std::move(nodes_[node_id].entries);
  const uint32_t sibling = AllocNode();  // may invalidate Node references
  nodes_[sibling].is_leaf = is_leaf;

  auto box_of = [&](uint32_t entry) {
    return is_leaf ? Rect::FromPoint(pois_[entry].location)
                   : nodes_[entry].box;
  };

  // Seeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      Rect combined = box_of(entries[i]).Union(box_of(entries[j]));
      double waste = combined.Area() - box_of(entries[i]).Area() -
                     box_of(entries[j]).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<uint32_t> group_a = {entries[seed_a]};
  std::vector<uint32_t> group_b = {entries[seed_b]};
  Rect box_a = box_of(entries[seed_a]);
  Rect box_b = box_of(entries[seed_b]);
  std::vector<uint32_t> remaining;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i != seed_a && i != seed_b) remaining.push_back(entries[i]);
  }

  while (!remaining.empty()) {
    const size_t total_left = remaining.size();
    // Min-fill guarantee: if one group must take everything left, do it.
    if (group_a.size() + total_left <= kMinFill) {
      for (uint32_t e : remaining) {
        group_a.push_back(e);
        box_a = box_a.Union(box_of(e));
      }
      break;
    }
    if (group_b.size() + total_left <= kMinFill) {
      for (uint32_t e : remaining) {
        group_b.push_back(e);
        box_b = box_b.Union(box_of(e));
      }
      break;
    }
    // PickNext: the entry with the strongest preference.
    size_t pick = 0;
    double best_diff = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      Rect b = box_of(remaining[i]);
      double d_a = box_a.Union(b).Area() - box_a.Area();
      double d_b = box_b.Union(b).Area() - box_b.Area();
      double diff = std::abs(d_a - d_b);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    uint32_t entry = remaining[pick];
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    Rect b = box_of(entry);
    double d_a = box_a.Union(b).Area() - box_a.Area();
    double d_b = box_b.Union(b).Area() - box_b.Area();
    bool to_a;
    if (d_a != d_b) {
      to_a = d_a < d_b;
    } else if (box_a.Area() != box_b.Area()) {
      to_a = box_a.Area() < box_b.Area();
    } else {
      to_a = group_a.size() <= group_b.size();
    }
    if (to_a) {
      group_a.push_back(entry);
      box_a = box_a.Union(b);
    } else {
      group_b.push_back(entry);
      box_b = box_b.Union(b);
    }
  }

  nodes_[node_id].entries = std::move(group_a);
  nodes_[node_id].is_leaf = is_leaf;
  nodes_[sibling].entries = std::move(group_b);
  RecomputeBox(node_id);
  RecomputeBox(sibling);
  return sibling;
}

void RTree::AdjustTree(std::vector<uint32_t> path, uint32_t /*split_id*/) {
  for (size_t i = path.size(); i-- > 0;) {
    uint32_t id = path[i];
    RecomputeBox(id);
    if (nodes_[id].entries.size() > kFanout) {
      uint32_t sibling = SplitNode(id);
      if (i == 0) {
        // Root split: grow a new root.
        uint32_t new_root = AllocNode();
        nodes_[new_root].is_leaf = false;
        nodes_[new_root].entries = {id, sibling};
        RecomputeBox(new_root);
        root_ = new_root;
        ++height_;
      } else {
        nodes_[path[i - 1]].entries.push_back(sibling);
      }
    }
  }
}

void RTree::Insert(const Poi& poi) {
  CheckPoiArena(pois_.size() + 1);
  uint32_t poi_index = static_cast<uint32_t>(pois_.size());
  pois_.push_back(poi);
  live_.push_back(true);
  ++live_count_;

  if (height_ == 0) {
    root_ = AllocNode();
    nodes_[root_].is_leaf = true;
    nodes_[root_].entries.push_back(poi_index);
    RecomputeBox(root_);
    height_ = 1;
    return;
  }
  std::vector<uint32_t> path;
  uint32_t leaf = ChooseLeaf(Rect::FromPoint(poi.location), &path);
  nodes_[leaf].entries.push_back(poi_index);
  AdjustTree(std::move(path), 0);
}

bool RTree::FindLeaf(uint32_t poi_index, uint32_t node_id,
                     std::vector<uint32_t>* path) const {
  path->push_back(node_id);
  const Node& node = nodes_[node_id];
  if (node.is_leaf) {
    for (uint32_t entry : node.entries) {
      if (entry == poi_index) return true;
    }
  } else {
    const Point& location = pois_[poi_index].location;
    for (uint32_t child : node.entries) {
      if (nodes_[child].box.Contains(location) &&
          FindLeaf(poi_index, child, path)) {
        return true;
      }
    }
  }
  path->pop_back();
  return false;
}

namespace {

// Depth-first collection of all POI indices in a subtree.
void CollectSubtree(const std::vector<RTree::Node>& nodes, uint32_t node_id,
                    std::vector<uint32_t>* pois_out,
                    std::vector<uint32_t>* nodes_out) {
  nodes_out->push_back(node_id);
  const RTree::Node& node = nodes[node_id];
  if (node.is_leaf) {
    for (uint32_t entry : node.entries) pois_out->push_back(entry);
  } else {
    for (uint32_t child : node.entries) {
      CollectSubtree(nodes, child, pois_out, nodes_out);
    }
  }
}

}  // namespace

bool RTree::Delete(uint32_t poi_id) {
  // Locate the live POI slot with this id.
  uint32_t poi_index = 0;
  bool found = false;
  for (size_t i = 0; i < pois_.size(); ++i) {
    if (live_[i] && pois_[i].id == poi_id) {
      poi_index = static_cast<uint32_t>(i);
      found = true;
      break;
    }
  }
  if (!found || height_ == 0) return false;

  std::vector<uint32_t> path;
  if (!FindLeaf(poi_index, root_, &path)) return false;

  // Remove the entry from its leaf.
  uint32_t leaf = path.back();
  auto& entries = nodes_[leaf].entries;
  entries.erase(std::find(entries.begin(), entries.end(), poi_index));
  live_[poi_index] = false;
  --live_count_;

  // Condense: dissolve underfull non-root nodes bottom-up and remember
  // their POIs for reinsertion.
  std::vector<uint32_t> orphans;
  for (size_t i = path.size(); i-- > 1;) {
    uint32_t id = path[i];
    if (nodes_[id].entries.size() < static_cast<size_t>(kMinFill)) {
      std::vector<uint32_t> freed;
      CollectSubtree(nodes_, id, &orphans, &freed);
      auto& parent_entries = nodes_[path[i - 1]].entries;
      parent_entries.erase(
          std::find(parent_entries.begin(), parent_entries.end(), id));
      for (uint32_t f : freed) free_nodes_.push_back(f);
    } else {
      RecomputeBox(id);
    }
  }
  RecomputeBox(root_);

  // Shrink the root while it is an internal node with a single child.
  while (!nodes_[root_].is_leaf && nodes_[root_].entries.size() == 1) {
    uint32_t old_root = root_;
    root_ = nodes_[root_].entries[0];
    free_nodes_.push_back(old_root);
    --height_;
  }
  // A now-empty root leaf means an empty tree.
  if (nodes_[root_].is_leaf && nodes_[root_].entries.empty()) {
    free_nodes_.push_back(root_);
    root_ = 0;
    height_ = 0;
  }

  // Reinsert orphaned POIs (their pois_ slots are reused as-is).
  for (uint32_t orphan : orphans) {
    if (height_ == 0) {
      root_ = AllocNode();
      nodes_[root_].is_leaf = true;
      nodes_[root_].entries.push_back(orphan);
      RecomputeBox(root_);
      height_ = 1;
      continue;
    }
    std::vector<uint32_t> insert_path;
    uint32_t target =
        ChooseLeaf(Rect::FromPoint(pois_[orphan].location), &insert_path);
    nodes_[target].entries.push_back(orphan);
    AdjustTree(std::move(insert_path), 0);
  }
  return true;
}

// ---------- queries & validation ----------

std::vector<Poi> RTree::RangeQuery(const Rect& range) const {
  std::vector<Poi> out;
  if (Empty()) return out;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (!node.box.Intersects(range)) continue;
    if (node.is_leaf) {
      for (uint32_t idx : node.entries) {
        if (range.Contains(pois_[idx].location)) out.push_back(pois_[idx]);
      }
    } else {
      for (uint32_t child : node.entries) {
        if (nodes_[child].box.Intersects(range)) stack.push_back(child);
      }
    }
  }
  return out;
}

Status RTree::CheckInvariants() const {
  if (Empty()) {
    if (height_ != 0) return Status::Internal("empty tree has height");
    return Status::OK();
  }
  std::vector<int> seen(pois_.size(), 0);
  std::vector<std::pair<uint32_t, int>> stack = {{root_, height_}};
  while (!stack.empty()) {
    auto [id, level] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.entries.empty()) return Status::Internal("node with no entries");
    if (node.entries.size() > kFanout)
      return Status::Internal("node exceeds fanout");
    if (node.is_leaf != (level == 1))
      return Status::Internal("leaf depth mismatch: tree not balanced");
    Rect computed = Rect::Empty();
    if (node.is_leaf) {
      for (uint32_t idx : node.entries) {
        if (idx >= pois_.size()) return Status::Internal("POI index OOB");
        ++seen[idx];
        computed.ExpandToInclude(pois_[idx].location);
      }
    } else {
      for (uint32_t child : node.entries) {
        if (child >= nodes_.size()) return Status::Internal("child index OOB");
        computed = computed.Union(nodes_[child].box);
        stack.push_back({child, level - 1});
      }
    }
    if (!(computed == node.box))
      return Status::Internal("node MBR is not tight");
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    int expected = live_[i] ? 1 : 0;
    if (seen[i] != expected) {
      return Status::Internal("POI " + std::to_string(i) + " reachable " +
                              std::to_string(seen[i]) + " times (expected " +
                              std::to_string(expected) + ")");
    }
  }
  return Status::OK();
}

}  // namespace ppgnn
