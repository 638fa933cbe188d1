// One-tailed proportion hypothesis test used by the answer sanitation
// (Section 5.3 of the paper).
//
// H0: theta <= theta0   vs   H1: theta > theta0
//
// where theta is the (unknown) relative area of the inequality-attack
// solution region. LSP draws N_H uniform samples from the data space,
// counts successes X (samples inside the region), and rejects H0 when
//
//   X > N_H * theta0 + z_gamma * sqrt(N_H * theta0 * (1 - theta0))   (Eqn 16)
//
// Rejecting H0 means the region is large, i.e. the prefix is SAFE for
// Privacy IV with confidence 1 - gamma. The sample size bounding both
// error probabilities is Fleiss's rule (Theorem 5.1 / Eqn 17):
//
//   N_H >= ((z_gamma*sqrt(theta0(1-theta0)) + z_eta*sqrt(theta1(1-theta1)))
//           / (theta1 - theta0))^2,    theta1 = theta0 * (1 + phi).

#ifndef PPGNN_STATS_HYPOTHESIS_H_
#define PPGNN_STATS_HYPOTHESIS_H_

#include <cstdint>

#include "common/status.h"

namespace ppgnn {

/// Error-probability configuration. Defaults are the paper's "commonly
/// used" gamma = 0.05, eta = 0.2, phi = 0.1.
struct TestConfig {
  double gamma = 0.05;  // Type I error bound
  double eta = 0.2;     // Type II error bound
  double phi = 0.1;     // ratio gap: theta1 = theta0 * (1 + phi)
};

/// Ceiling on N_H. The paper's smallest theta0 (0.01) needs 63,225
/// samples; theta0 is client-chosen, and a tiny one (1e-9 needs ~6.4e11)
/// would pin an LSP worker inside a single Z-test for hours.
inline constexpr uint64_t kMaxSampleSize = 10'000'000;

/// Sample size from Eqn 17. theta0 in (0, 1), theta0 * (1 + phi) < 1, and
/// the result at most kMaxSampleSize.
Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config);

/// The rejection threshold of Eqn 16: reject H0 iff X > threshold.
double RejectionThreshold(uint64_t n_samples, double theta0, double gamma);

/// Convenience: was H0 rejected (region provably larger than theta0)?
bool RejectsH0(uint64_t successes, uint64_t n_samples, double theta0,
               double gamma);

/// Incremental tester with early exit: feed Bernoulli outcomes one at a
/// time or in batches; Verdict() becomes definite as soon as the final
/// decision cannot change (threshold already crossed, or unreachable with
/// the remaining samples). The decision is identical to running all N_H
/// samples.
class SequentialProportionTest {
 public:
  SequentialProportionTest(uint64_t n_samples, double theta0, double gamma);

  enum class Verdict { kUndecided, kReject, kNotReject };

  /// Records one sample outcome; returns the (possibly now decided)
  /// verdict. Extra calls are ignored once decided.
  Verdict AddSample(bool success);

  /// The longest batch no outcome sequence can decide before its last
  /// sample: the fewest of the successes still needed to reject, the
  /// failures still needed to make rejection unreachable, and the samples
  /// left. 0 once decided.
  uint64_t Lookahead() const;

  /// Records `count` outcomes, `successes` of them successes. When
  /// `count <= Lookahead()` the verdict can only change at the batch's
  /// last sample, so this equals feeding the same outcomes to AddSample
  /// one at a time (and stopping when decided). A longer batch could
  /// straddle the decision, so it is ignored, as is one with more
  /// successes than samples and anything fed once decided.
  Verdict AddBatch(uint64_t count, uint64_t successes);

  Verdict CurrentVerdict() const;

  uint64_t samples_used() const { return used_; }
  uint64_t successes() const { return successes_; }
  uint64_t total_samples() const { return n_samples_; }

 private:
  uint64_t n_samples_;
  uint64_t reject_at_;  // fewest successes X with X > Eqn 16's threshold
  uint64_t used_ = 0;
  uint64_t successes_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_STATS_HYPOTHESIS_H_
