#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>

#include "stats/normal.h"

namespace ppgnn {
namespace {

constexpr int kFractionBits = SequentialProportionTest::kFractionBits;

// Nats (in (0, 745]) in units of 2^-kFractionBits, rounded down or up. The
// relative margin of 2^-32 lies far above the few ulp by which the
// logarithms below can miss, so the rounding direction holds against the
// exact value too.
int64_t FixedDown(double nats) {
  return static_cast<int64_t>(std::ldexp(nats, kFractionBits) *
                              (1.0 - 0x1p-32));
}

int64_t FixedUp(double nats) {
  return static_cast<int64_t>(
      std::ceil(std::ldexp(nats, kFractionBits) * (1.0 + 0x1p-32)));
}

// The fewest steps of `step` that cover `distance`; both are positive.
uint64_t StepsToCover(int64_t distance, int64_t step) {
  return static_cast<uint64_t>((distance + step - 1) / step);
}

}  // namespace

Result<uint64_t> RequiredSampleSize(double theta0, const TestConfig& config) {
  // Negated so that a NaN fails the checks too.
  if (!(theta0 > 0.0 && theta0 < 1.0))
    return Status::InvalidArgument("theta0 must lie in (0, 1)");
  // A phi <= 0 would make theta1 <= theta0: a success would no longer
  // count as evidence of a large region.
  if (!(config.phi > 0.0 && std::isfinite(config.phi)))
    return Status::InvalidArgument("phi must be finite and > 0");
  if (!(config.gamma > 0.0 && config.eta > 0.0 &&
        config.gamma + config.eta < 1.0))
    return Status::InvalidArgument(
        "gamma and eta must be > 0 with gamma + eta < 1");
  double theta1 = theta0 * (1.0 + config.phi);
  if (theta1 >= 1.0)
    return Status::InvalidArgument("theta0 * (1 + phi) must be < 1");
  double z_gamma = UpperCritical(config.gamma);
  double z_eta = UpperCritical(config.eta);
  double numerator = z_gamma * std::sqrt(theta0 * (1 - theta0)) +
                     z_eta * std::sqrt(theta1 * (1 - theta1));
  double root = numerator / (theta1 - theta0);
  double n_h = std::ceil(root * root);
  // Checked before the cast, which is undefined for an out-of-range value.
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

SequentialProportionTest::SequentialProportionTest(uint64_t n_h, double theta0,
                                                   const TestConfig& config)
    : truncation_(2 * std::min(n_h, kMaxSampleSize)) {
  if (!RequiredSampleSize(theta0, config).ok()) return;
  const double theta1 = theta0 * (1.0 + config.phi);
  // Each weight from the form that is well conditioned where it is used:
  // log1p of a small argument, log of a ratio far from 1.
  const double gain = (theta1 - theta0) / theta0;
  const double loss = (theta1 - theta0) / (1.0 - theta0);
  const int64_t hit = FixedDown(std::log1p(gain));
  if (hit == 0) return;  // phi too small to weigh
  hit_weight_ = hit;
  miss_weight_ = FixedUp(loss <= 0.5 ? -std::log1p(-loss)
                                     : -std::log((1.0 - theta1) /
                                                 (1.0 - theta0)));
  upper_ = FixedUp(-std::log(config.gamma));
  // Any rounding of B keeps the Type I bound; rounding its magnitude up
  // keeps it below 0.
  const double eta_prime = 0.75 * config.eta;
  lower_ = -FixedUp(-std::log(eta_prime / (1.0 - config.gamma)));
}

int64_t SequentialProportionTest::Statistic(uint64_t hits,
                                            uint64_t misses) const {
  return static_cast<int64_t>(hits) * hit_weight_ -
         static_cast<int64_t>(misses) * miss_weight_;
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
  // Undecided means lower_ < s < upper_ with samples left. Any b - 1
  // outcomes move s by at most b - 1 hit weights up or b - 1 miss weights
  // down, so a batch of b no longer than each count below cannot cross
  // either boundary, or run out, before its last sample.
  const int64_t s = Statistic(successes_, used_ - successes_);
  return std::min({StepsToCover(upper_ - s, hit_weight_),
                   StepsToCover(s - lower_, miss_weight_),
                   truncation_ - used_});
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
  const int64_t s = Statistic(successes_, used_ - successes_);
  if (s >= upper_) return Verdict::kReject;
  if (s <= lower_ || used_ >= truncation_) return Verdict::kNotReject;
  return Verdict::kUndecided;
}

}  // namespace ppgnn
