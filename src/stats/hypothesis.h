// One-tailed proportion tests used by the answer sanitation (Section 5.3
// of the paper).
//
// H0: theta <= theta0   vs   H1: theta > theta0
//
// where theta is the (unknown) relative area of the inequality-attack
// solution region. Rejecting H0 means the region is large, i.e. the prefix
// is SAFE for Privacy IV.
//
// The paper's test (Eqn 16) draws N_H uniform samples from the data space,
// counts successes X (samples inside the region), and rejects H0 when
//
//   X > N_H * theta0 + z_gamma * sqrt(N_H * theta0 * (1 - theta0))
//
// with N_H from Fleiss's rule (Theorem 5.1 / Eqn 17):
//
//   N_H >= ((z_gamma*sqrt(theta0(1-theta0)) + z_eta*sqrt(theta1(1-theta1)))
//           / (theta1 - theta0))^2,    theta1 = theta0 * (1 + phi).
//
// The LSP decides with Wald's sequential probability ratio test of theta0
// against theta1 instead (SequentialProportionTest), truncated at 2 N_H.
// Eqn 16 stays as the reference it is measured against (RejectsH0).

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
/// would pin an LSP worker inside a single test for hours. One sequential
/// test draws at most 2 N_H samples.
inline constexpr uint64_t kMaxSampleSize = 10'000'000;

/// Sample size from Eqn 17. theta0 in (0, 1), phi finite and > 0,
/// theta0 * (1 + phi) < 1, gamma and eta in (0, 1) with gamma + eta < 1,
/// and the result at most kMaxSampleSize.
Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config);

/// The rejection threshold of Eqn 16: reject H0 iff X > threshold.
double RejectionThreshold(uint64_t n_samples, double theta0, double gamma);

/// Eqn 16 on all n_samples: was H0 rejected (region larger than theta0)?
bool RejectsH0(uint64_t successes, uint64_t n_samples, double theta0,
               double gamma);

/// Wald's sequential probability ratio test (A. Wald, Ann. Math. Statist.
/// 16(2), 1945) of theta0 against theta1 = theta0 * (1 + phi), fed
/// Bernoulli outcomes one at a time or in batches. Its statistic is the
/// log-likelihood ratio: ln(theta1 / theta0) per success and
/// ln((1 - theta1) / (1 - theta0)) per failure.
///
/// - kReject (safe) once the statistic reaches A = ln(1 / gamma). The
///   likelihood ratio is a nonnegative supermartingale for every
///   theta <= theta0, so by Ville's inequality a test that rejects only
///   there has Type I error <= gamma, exactly.
/// - kNotReject (unsafe) once it falls to B = ln(eta' / (1 - gamma)), or
///   after 2 N_H samples. Neither can raise the Type I error. The rule is
///   eta' = 3 eta / 4: under this truncation Wald's eta' = eta left the
///   power at theta1 below 1 - eta (0.782-0.784 at eta = 0.2), and three
///   quarters of it gave 0.811-0.821, with 0.038-0.042 safe at theta0
///   (10,000 Bernoulli runs per point, theta0 in {0.01, 0.05, 0.2}).
///
/// The statistic is kept in fixed point, 2^-kFractionBits nats: the
/// success weight rounds down, the failure weight and A round up, so it
/// never exceeds the exact ratio and the bound survives the rounding. The
/// decision is integer arithmetic, so no floating-point contraction or
/// -march can move a verdict or the lookahead.
class SequentialProportionTest {
 public:
  /// Every weight and boundary is below 745 nats and a test draws at most
  /// 2 kMaxSampleSize samples, so every count times weight is below 2^62.
  static constexpr int kFractionBits = 28;

  /// Truncated at 2 n_h samples (n_h above kMaxSampleSize counts as
  /// kMaxSampleSize). A configuration RequiredSampleSize refuses gives a
  /// test decided kNotReject before its first sample.
  SequentialProportionTest(uint64_t n_h, double theta0,
                           const TestConfig& config);

  enum class Verdict { kUndecided, kReject, kNotReject };

  /// Records one sample outcome; returns the (possibly now decided)
  /// verdict. Extra calls are ignored once decided.
  Verdict AddSample(bool success);

  /// The longest batch no outcome sequence can decide before its last
  /// sample: the fewest of the successes that could lift the statistic to
  /// A, the failures that could drop it to B, and the samples left. 0 once
  /// decided.
  uint64_t Lookahead() const;

  /// Records `count` outcomes, `successes` of them successes. When
  /// `count <= Lookahead()` the verdict can only change at the batch's
  /// last sample, so this equals feeding the same outcomes to AddSample
  /// one at a time (and stopping when decided). A longer batch could
  /// straddle the decision, so it is ignored, as is one with more
  /// successes than samples and anything fed once decided.
  Verdict AddBatch(uint64_t count, uint64_t successes);

  Verdict CurrentVerdict() const;

  /// The statistic after `hits` successes and `misses` failures, in
  /// 2^-kFractionBits nats: never above the exact log-likelihood ratio.
  int64_t Statistic(uint64_t hits, uint64_t misses) const;
  /// The boundaries in the same unit: kReject at a statistic >= upper(),
  /// kNotReject at one <= lower().
  int64_t upper() const { return upper_; }
  int64_t lower() const { return lower_; }

  uint64_t samples_used() const { return used_; }
  uint64_t successes() const { return successes_; }
  /// 2 N_H: the most samples the test draws.
  uint64_t total_samples() const { return truncation_; }

 private:
  uint64_t truncation_;
  // A decided-unsafe test until the constructor accepts the configuration.
  int64_t hit_weight_ = 0;
  int64_t miss_weight_ = 1;
  int64_t upper_ = 1;
  int64_t lower_ = 0;
  uint64_t used_ = 0;
  uint64_t successes_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_STATS_HYPOTHESIS_H_
