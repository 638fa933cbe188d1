#include "service/cost_model.h"

#include <algorithm>
#include <cmath>

#include "crypto/poi_codec.h"

namespace ppgnn {
namespace {

// Analytic coefficients, fitted to the EXPERIMENTS.md calibration runs
// on the reference machine (1024-bit keys unless noted). Re-calibrated
// after the fixed-base blinding engine landed: rerandomization inside
// selection/sanitize now rides the shared comb, which shifted the
// crypto constants down (see EXPERIMENTS.md section on the encrypt-side
// engine).
//
//   BM_DotProduct multi-exp: 12.2 ms @ delta'=16, 38.5 ms @ 64,
//   75.0 ms @ 128  ->  dot(delta') ~ 3.2 ms + 0.56 ms * delta',
//   split evenly between per-base window-table build (paid once per
//   engine) and the per-row accumulation (paid m times).
//
//   LSP candidate + kNN + sanitize: BM_PrivateSelection at 11.2 ms for
//   delta'=100 with sanitation on top  ->  ~0.35 ms per candidate
//   blended.
//
// Modular multiplication scales ~quadratically in the modulus size, so
// everything crypto is multiplied by (key_bits/1024)^2. The EWMA in
// CostModel::Observe absorbs machine-to-machine constant factors; only
// the *shape* below has to be right.
constexpr double kBaseSeconds = 1.0e-3;       // decode, framing, bookkeeping
constexpr double kCandidateSeconds = 0.35e-3; // kNN + sanitize per candidate
constexpr double kTableSeconds = 0.28e-3;     // window tables per column
constexpr double kColumnSeconds = 0.28e-3;    // per column per row
// Phase-2 scalars are 2*key_bits wide over N^3 arithmetic; ~4x a phase-1
// column operation at the same key size.
constexpr double kOptPhase2Factor = 4.0;
constexpr double kMinPredictionSeconds = 1.0e-4;

size_t PackedIntsFor(int k, int key_bits) {
  // PoiCodec requires key_bits >= 128; admission validated the header but
  // the model must stay total, so clamp instead of trusting the caller.
  PoiCodec codec(std::max(key_bits, 128));
  return codec.IntsNeeded(static_cast<size_t>(std::max(k, 1)));
}

}  // namespace

CostFeatures CostFeatures::FromHeader(const QueryWireHeader& h) {
  CostFeatures f;
  f.delta_prime = h.delta_prime;
  f.k = h.k;
  f.key_bits = h.key_bits;
  f.is_opt = h.is_opt;
  f.omega = h.omega;
  return f;
}

double CostModel::AnalyticSeconds(const CostFeatures& f) {
  const double delta = static_cast<double>(f.delta_prime);
  const double m = static_cast<double>(PackedIntsFor(f.k, f.key_bits));
  const double key_scale =
      std::pow(static_cast<double>(std::max(f.key_bits, 128)) / 1024.0, 2.0);
  double seconds = kBaseSeconds + delta * kCandidateSeconds +
                   delta * (kTableSeconds + m * kColumnSeconds) * key_scale;
  if (f.is_opt) {
    const double omega = static_cast<double>(std::max<uint64_t>(f.omega, 1));
    seconds += omega * (kTableSeconds + m * kColumnSeconds) *
               kOptPhase2Factor * key_scale;
  }
  return std::max(seconds, kMinPredictionSeconds);
}

void CostModel::SeedPrior(const CostFeatures& f, double expected_seconds) {
  if (!(expected_seconds > 0.0)) return;  // also rejects NaN
  const double analytic = AnalyticSeconds(f);
  const int b = BucketIndex(f);
  std::lock_guard<std::mutex> lock(mu_);
  if (bucket_count_[b] > 0) return;  // real data always wins
  bucket_ratio_[b] = expected_seconds / analytic;
  bucket_count_[b] = 1;
}

int CostModel::BucketIndex(const CostFeatures& f) {
  int log_delta = 0;
  for (uint64_t v = f.delta_prime; v > 1 && log_delta < kDeltaBuckets - 1;
       v >>= 1) {
    ++log_delta;
  }
  int key_class;
  if (f.key_bits <= 512) {
    key_class = 0;
  } else if (f.key_bits <= 1024) {
    key_class = 1;
  } else if (f.key_bits <= 2048) {
    key_class = 2;
  } else {
    key_class = 3;
  }
  const int kind = f.is_opt ? 1 : 0;
  return (log_delta * kKeyClasses + key_class) * kKinds + kind;
}

double CostModel::PredictSeconds(const CostFeatures& f) const {
  const double analytic = AnalyticSeconds(f);
  const int b = BucketIndex(f);
  std::lock_guard<std::mutex> lock(mu_);
  const double ratio = bucket_count_[b] > 0 ? bucket_ratio_[b] : global_ratio_;
  return std::max(analytic * ratio, kMinPredictionSeconds);
}

void CostModel::Observe(const CostFeatures& f, double execute_seconds) {
  if (!(execute_seconds > 0.0)) return;  // also rejects NaN
  const double analytic = AnalyticSeconds(f);
  const double ratio = execute_seconds / analytic;
  const int b = BucketIndex(f);
  std::lock_guard<std::mutex> lock(mu_);
  if (bucket_count_[b] == 0) {
    bucket_ratio_[b] = ratio;
  } else {
    bucket_ratio_[b] += kAlpha * (ratio - bucket_ratio_[b]);
  }
  ++bucket_count_[b];
  if (observations_ == 0) {
    global_ratio_ = ratio;
  } else {
    global_ratio_ += kAlpha * (ratio - global_ratio_);
  }
  ++observations_;
}

uint64_t CostModel::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

}  // namespace ppgnn
