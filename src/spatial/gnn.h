// Group (aggregate) nearest neighbor search — the plaintext kGNN black box
// used by the LSP (Definition 2.1 of the paper).
//
// The paper's LSP runs the classic Minimum Bounding Method (MBM) of
// Papadias et al. (ICDE 2004). MbmGnnSolver implements it as a best-first
// R-tree traversal ordered by the aggregate min-distance bound
// amindist(node, C) = F(mindist(node, l_1), ..., mindist(node, l_n)),
// which is a valid lower bound for any monotone F. BruteForceGnnSolver is
// the O(D log D) reference.
//
// The PPGNN protocol treats this interface as a black box, so any group
// query (e.g. a meeting-location determination algorithm) can be swapped
// in without touching the privacy machinery.

#ifndef PPGNN_SPATIAL_GNN_H_
#define PPGNN_SPATIAL_GNN_H_

#include <atomic>
#include <vector>

#include "geo/aggregate.h"
#include "spatial/knn.h"
#include "spatial/rtree.h"

namespace ppgnn {

/// Abstract plaintext kGNN engine.
class GnnSolver {
 public:
  virtual ~GnnSolver() = default;

  /// Top-k POIs in ascending F(p, queries) order (fewer if |D| < k).
  virtual std::vector<RankedPoi> Query(const std::vector<Point>& queries,
                                       int k, AggregateKind kind) const = 0;

  virtual const char* name() const = 0;
};

/// MBM over an R-tree. The tree must outlive the solver. Answers come in
/// (cost, POI id) order, the order BruteForceGnnSolver sorts by. Entries
/// keyed above the k-th smallest POI cost queued so far are never queued,
/// which changes no pop (see gnn.cc).
class MbmGnnSolver : public GnnSolver {
 public:
  explicit MbmGnnSolver(const RTree* tree) : tree_(tree) {}

  std::vector<RankedPoi> Query(const std::vector<Point>& queries, int k,
                               AggregateKind kind) const override;
  const char* name() const override { return "MBM"; }

  /// Nodes popped by the last Query (instrumentation for benchmarks;
  /// atomic so concurrent queries from a parallel LSP don't race).
  // ppgnn: stat_counter(last_nodes_visited_)
  uint64_t last_nodes_visited() const {
    return last_nodes_visited_.load(std::memory_order_relaxed);
  }

 private:
  const RTree* tree_;
  mutable std::atomic<uint64_t> last_nodes_visited_{0};
};

/// Exhaustive scan reference. The POI vector must outlive the solver.
class BruteForceGnnSolver : public GnnSolver {
 public:
  explicit BruteForceGnnSolver(const std::vector<Poi>* pois) : pois_(pois) {}

  std::vector<RankedPoi> Query(const std::vector<Point>& queries, int k,
                               AggregateKind kind) const override;
  const char* name() const override { return "BruteForce"; }

 private:
  const std::vector<Poi>* pois_;
};

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_GNN_H_
