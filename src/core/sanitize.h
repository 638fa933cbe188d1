// Answer sanitation (Sections 5.2-5.3).
//
// For each candidate query, LSP returns the longest prefix P' of the
// ranked kGNN answer P that is safe against the inequality attack: for
// every target user, a test of H0: theta <= theta0 must reject it (i.e.
// show, with Type I error <= gamma, that the attack's solution region
// exceeds a theta0 fraction of the space).
//
// The length-1 prefix is always safe (no inequalities). LSP tests prefix
// lengths 2, 3, ... and stops at the first unsafe one. Each test is Wald's
// sequential probability ratio test (SequentialProportionTest), truncated
// at 2 N_H samples with N_H from Eqn 17; the paper's Eqn 16 on N_H samples
// is kept only as a reference (RejectsH0). Samples are drawn and judged in
// blocks no longer than the test's lookahead, so verdicts, sample counts
// and the Rng position equal a sample-at-a-time loop's.

#ifndef PPGNN_CORE_SANITIZE_H_
#define PPGNN_CORE_SANITIZE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geo/aggregate.h"
#include "geo/distance_oracle.h"
#include "spatial/knn.h"
#include "stats/hypothesis.h"

namespace ppgnn {

struct SanitizeStats {
  uint64_t samples_drawn = 0;  ///< Monte-Carlo points tested
  uint64_t tests_run = 0;      ///< (prefix, target-user) tests executed
};

class AnswerSanitizer {
 public:
  /// Fails if Eqn 17 has no valid sample size for (theta0, config).
  static Result<AnswerSanitizer> Create(double theta0,
                                        const TestConfig& config);

  /// N_H from Eqn 17; one test draws at most 2 N_H samples.
  uint64_t sample_size() const { return sample_size_; }
  double theta0() const { return theta0_; }

  /// Longest safe prefix of `answer` for the query at `locations`.
  /// Single-location queries are returned unchanged (no colluders exist).
  /// `oracle` selects the metric (Euclidean when null).
  std::vector<RankedPoi> Sanitize(const std::vector<RankedPoi>& answer,
                                  const std::vector<Point>& locations,
                                  AggregateKind kind, Rng& rng,
                                  SanitizeStats* stats = nullptr,
                                  const DistanceOracle* oracle = nullptr) const;

  /// The per-target safety test: does the sequential test reject H0
  /// (region larger than theta0) for the attack defined by `colluders` and
  /// the prefix?
  bool PrefixSafeForTarget(const std::vector<Point>& colluders,
                           const std::vector<Point>& prefix_points,
                           AggregateKind kind, Rng& rng,
                           SanitizeStats* stats = nullptr,
                           const DistanceOracle* oracle = nullptr) const;

 private:
  AnswerSanitizer(double theta0, TestConfig config, uint64_t sample_size)
      : theta0_(theta0), config_(config), sample_size_(sample_size) {}

  double theta0_;
  TestConfig config_;
  uint64_t sample_size_;
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_SANITIZE_H_
