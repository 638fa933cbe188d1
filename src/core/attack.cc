#include "core/attack.h"

#include <algorithm>
#include <limits>

namespace ppgnn {
namespace {

// Samples per CountSatisfied pass; a pass keeps its coordinates and
// running costs in fixed stack buffers.
constexpr size_t kBlock = 256;

// Calls `fn` with the functor that folds a POI's colluder partial and the
// target's distance into the POI's full cost, as Satisfies' full_cost does.
template <typename Fn>
void WithCombine(AggregateKind kind, bool has_colluders, Fn fn) {
  if (!has_colluders) return fn([](double, double dist) { return dist; });
  switch (kind) {
    case AggregateKind::kSum:
      return fn([](double partial, double dist) { return partial + dist; });
    case AggregateKind::kMax:
      return fn(
          [](double partial, double dist) { return std::max(partial, dist); });
    case AggregateKind::kMin:
      return fn(
          [](double partial, double dist) { return std::min(partial, dist); });
  }
}

}  // namespace

InequalityAttack::InequalityAttack(std::vector<Point> colluders,
                                   std::vector<Point> ranked_answer,
                                   AggregateKind kind, Rect space,
                                   const DistanceOracle* oracle)
    : ranked_answer_(std::move(ranked_answer)),
      kind_(kind),
      space_(space),
      has_colluders_(!colluders.empty()),
      oracle_(oracle) {
  partial_.reserve(ranked_answer_.size());
  for (const Point& poi : ranked_answer_) {
    double acc = 0.0;
    if (has_colluders_) {
      switch (kind_) {
        case AggregateKind::kSum: {
          acc = 0.0;
          for (const Point& c : colluders) acc += Dis(poi, c);
          break;
        }
        case AggregateKind::kMax: {
          acc = 0.0;
          for (const Point& c : colluders) acc = std::max(acc, Dis(poi, c));
          break;
        }
        case AggregateKind::kMin: {
          acc = std::numeric_limits<double>::infinity();
          for (const Point& c : colluders) acc = std::min(acc, Dis(poi, c));
          break;
        }
      }
    }
    partial_.push_back(acc);
  }
}

double InequalityAttack::Dis(const Point& a, const Point& b) const {
  return oracle_ != nullptr ? oracle_->Distance(a, b) : Distance(a, b);
}

bool InequalityAttack::Satisfies(const Point& candidate) const {
  if (ranked_answer_.size() < 2) return true;
  auto full_cost = [&](size_t i) {
    double target_dist = Dis(ranked_answer_[i], candidate);
    if (!has_colluders_) return target_dist;
    switch (kind_) {
      case AggregateKind::kSum:
        return partial_[i] + target_dist;
      case AggregateKind::kMax:
        return std::max(partial_[i], target_dist);
      case AggregateKind::kMin:
        return std::min(partial_[i], target_dist);
    }
    return target_dist;
  };
  double prev = full_cost(0);
  for (size_t i = 1; i < ranked_answer_.size(); ++i) {
    double cur = full_cost(i);
    if (prev > cur) return false;
    prev = cur;
  }
  return true;
}

Point InequalityAttack::SamplePoint(Rng& rng) const {
  return {space_.min_x + rng.NextDouble() * space_.Width(),
          space_.min_y + rng.NextDouble() * space_.Height()};
}

uint64_t InequalityAttack::CountSatisfied(Rng& rng, uint64_t samples,
                                          size_t prefix_len) const {
  const size_t len = std::min(prefix_len, ranked_answer_.size());
  const double width = space_.Width();
  const double height = space_.Height();
  // The block's samples still inside the region, packed at the front.
  double xs[kBlock];
  double ys[kBlock];
  double prev[kBlock];  // the previous POI's cost at each sample
  uint64_t hits = 0;
  while (samples > 0) {
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(samples, kBlock));
    samples -= count;
    for (size_t s = 0; s < count; ++s) {
      xs[s] = space_.min_x + rng.NextDouble() * width;
      ys[s] = space_.min_y + rng.NextDouble() * height;
    }
    if (len < 2) {
      hits += count;
      continue;
    }
    size_t alive = count;
    WithCombine(kind_, has_colluders_, [&](auto combine) {
      for (size_t s = 0; s < count; ++s) {
        prev[s] = combine(partial_[0], Dis(ranked_answer_[0], {xs[s], ys[s]}));
      }
      // One inequality at a time across the block, packing the samples
      // that satisfy it to the front without a branch. A sample leaves at
      // its first violated inequality, where Satisfies returns, so an
      // oracle sees the same (POI, sample) pairs.
      for (size_t i = 1; i < len && alive > 0; ++i) {
        const Point& poi = ranked_answer_[i];
        const double partial = partial_[i];
        size_t kept = 0;
        for (size_t s = 0; s < alive; ++s) {
          const double cost = combine(partial, Dis(poi, {xs[s], ys[s]}));
          const bool satisfied = !(prev[s] > cost);
          xs[kept] = xs[s];
          ys[kept] = ys[s];
          prev[kept] = cost;
          kept += satisfied ? 1 : 0;
        }
        alive = kept;
      }
    });
    hits += alive;
  }
  return hits;
}

double InequalityAttack::EstimateRegionFraction(Rng& rng,
                                                uint64_t samples) const {
  if (samples == 0) return 0.0;
  return static_cast<double>(
             CountSatisfied(rng, samples, ranked_answer_.size())) /
         static_cast<double>(samples);
}

}  // namespace ppgnn
