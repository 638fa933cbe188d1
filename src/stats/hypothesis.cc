#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/normal.h"

namespace ppgnn {

Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config) {
  // Negated so that a NaN fails the check too.
  if (!(theta0 > 0.0 && theta0 < 1.0))
    return Status::InvalidArgument("theta0 must lie in (0, 1)");
  double theta1 = theta0 * (1.0 + config.phi);
  if (theta1 >= 1.0)
    return Status::InvalidArgument("theta0 * (1 + phi) must be < 1");
  if (config.gamma <= 0.0 || config.gamma >= 1.0 || config.eta <= 0.0 ||
      config.eta >= 1.0)
    return Status::InvalidArgument("gamma and eta must lie in (0, 1)");
  double z_gamma = UpperCritical(config.gamma);
  double z_eta = UpperCritical(config.eta);
  double numerator = z_gamma * std::sqrt(theta0 * (1 - theta0)) +
                     z_eta * std::sqrt(theta1 * (1 - theta1));
  double root = numerator / (theta1 - theta0);
  double n_h = std::ceil(root * root);
  // Checked before the cast, which is undefined for a NaN (from a NaN phi,
  // gamma or eta) or an out-of-range value.
  if (!(n_h <= static_cast<double>(kMaxSampleSize)))
    return Status::InvalidArgument("N_H exceeds the sample-size ceiling");
  return static_cast<uint64_t>(n_h);
}

double RejectionThreshold(uint64_t n_samples, double theta0, double gamma) {
  double n = static_cast<double>(n_samples);
  return n * theta0 +
         UpperCritical(gamma) * std::sqrt(n * theta0 * (1 - theta0));
}

bool RejectsH0(uint64_t successes, uint64_t n_samples, double theta0,
               double gamma) {
  return static_cast<double>(successes) >
         RejectionThreshold(n_samples, theta0, gamma);
}

SequentialProportionTest::SequentialProportionTest(uint64_t n_samples,
                                                   double theta0, double gamma)
    : n_samples_(n_samples) {
  // X > threshold  <=>  X >= floor(threshold) + 1 for an integer X; a NaN
  // threshold never rejects.
  const double threshold = RejectionThreshold(n_samples, theta0, gamma);
  if (threshold < 0.0) {
    reject_at_ = 0;
  } else if (threshold < 0x1p63) {
    reject_at_ = static_cast<uint64_t>(std::floor(threshold)) + 1;
  } else {
    reject_at_ = std::numeric_limits<uint64_t>::max();
  }
}

SequentialProportionTest::Verdict SequentialProportionTest::AddSample(
    bool success) {
  if (CurrentVerdict() == Verdict::kUndecided) {
    ++used_;
    if (success) ++successes_;
  }
  return CurrentVerdict();
}

uint64_t SequentialProportionTest::Lookahead() const {
  if (CurrentVerdict() != Verdict::kUndecided) return 0;
  const uint64_t to_reject = reject_at_ - successes_;
  // Failures after which even all-successes cannot reach reject_at_. It
  // never exceeds the samples left, so running out cannot come sooner.
  const uint64_t to_settle = (n_samples_ - used_) - to_reject + 1;
  return std::min(to_reject, to_settle);
}

SequentialProportionTest::Verdict SequentialProportionTest::AddBatch(
    uint64_t count, uint64_t successes) {
  if (count <= Lookahead() && successes <= count) {
    used_ += count;
    successes_ += successes;
  }
  return CurrentVerdict();
}

SequentialProportionTest::Verdict SequentialProportionTest::CurrentVerdict()
    const {
  if (successes_ >= reject_at_) return Verdict::kReject;
  // Even if every remaining sample succeeded, could we still reject?
  if (reject_at_ - successes_ > n_samples_ - used_) return Verdict::kNotReject;
  return Verdict::kUndecided;
}

}  // namespace ppgnn
