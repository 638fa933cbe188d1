// The inequality attack (Section 5.1).
//
// Colluding users u_2..u_n know their own locations and the ranked answer
// P = {p_1, ..., p_k} with F(p_i, C*) <= F(p_{i+1}, C*). Substituting a
// candidate location l for the unknown target user gives k-1 inequalities
// (Eqn 14); the set of l satisfying all of them is the solution region the
// target's real location must lie in. Privacy IV holds iff that region is
// larger than a theta0 fraction of the data space for every target.
//
// This class serves two roles: the *attacker* (examples / experiments
// measuring how small the region gets) and the *defender* (LSP's answer
// sanitation, which Monte-Carlo-tests the region size). Per-POI aggregate
// contributions of the colluders are precomputed, so each membership test
// costs only |answer| distance evaluations regardless of n; they depend
// only on the POI, so one attack over a whole answer serves every prefix.

#ifndef PPGNN_CORE_ATTACK_H_
#define PPGNN_CORE_ATTACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "geo/aggregate.h"
#include "geo/distance_oracle.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ppgnn {

class InequalityAttack {
 public:
  /// `colluders`: the n-1 known locations (may be empty: a single-user
  /// "attack" constrains the user itself). `ranked_answer`: the POI
  /// locations in reported rank order. `space`: the data space to sample
  /// (the unit square in all experiments). `oracle` selects the metric
  /// `dis` (Euclidean when null); the oracle must outlive the attack.
  InequalityAttack(std::vector<Point> colluders,
                   std::vector<Point> ranked_answer, AggregateKind kind,
                   Rect space = {0.0, 0.0, 1.0, 1.0},
                   const DistanceOracle* oracle = nullptr);

  /// True iff placing the target at `candidate` keeps all of Eqn 14's
  /// inequalities satisfied, i.e. `candidate` is in the solution region.
  /// The single-point reference for CountSatisfied.
  bool Satisfies(const Point& candidate) const;

  /// Draws `samples` points exactly as that many SamplePoint calls would
  /// and counts those in the solution region of the first `prefix_len`
  /// answer POIs (all of them when larger). Per sample the verdict equals
  /// Satisfies on that prefix's attack; the work is done a block of
  /// samples at a time, one POI at a time across the block.
  uint64_t CountSatisfied(Rng& rng, uint64_t samples, size_t prefix_len) const;

  /// Monte-Carlo estimate of the solution region's fraction of the space.
  double EstimateRegionFraction(Rng& rng, uint64_t samples) const;

  /// Uniform sample from the space: x first, then y.
  Point SamplePoint(Rng& rng) const;

  size_t NumInequalities() const {
    return ranked_answer_.empty() ? 0 : ranked_answer_.size() - 1;
  }

 private:
  double Dis(const Point& a, const Point& b) const;

  std::vector<Point> ranked_answer_;
  std::vector<double> partial_;  // colluder-only aggregate per answer POI
  AggregateKind kind_;
  Rect space_;
  bool has_colluders_;
  const DistanceOracle* oracle_;  // null = Euclidean fast path
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_ATTACK_H_
