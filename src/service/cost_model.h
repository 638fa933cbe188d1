// Per-query execution-cost prediction for admission control.
//
// Admission has to decide "can this query finish inside its remaining
// deadline?" *before* any crypto runs, so the prediction is computed from
// public wire metadata only (the QueryWireHeader fields: delta', k,
// key_bits, the indicator shape) — never from `// ppgnn: secret` data.
//
// The model is an analytic seed calibrated against the numbers recorded
// in EXPERIMENTS.md (BM_DotProduct multi-exponentiation timings and the
// bench_service_throughput capacity runs), multiplied by an online
// correction: an EWMA of observed/predicted ratios, kept per cost bucket
// (log2 delta', key-size class, indicator kind) so a server that is
// faster or slower than the calibration machine converges onto its own
// truth within a few dozen queries — without the analytic shape (the
// delta' x m x key-cost scaling) ever being re-learned from scratch.
//
// Thread-safe; never reads a clock (observed durations are measured by
// the caller and passed in), so the determinism lint stays happy.

#ifndef PPGNN_SERVICE_COST_MODEL_H_
#define PPGNN_SERVICE_COST_MODEL_H_

#include <cstdint>
#include <mutex>

#include "core/wire.h"

namespace ppgnn {

/// The public wire facts a prediction is derived from. Constructible from
/// a QueryWireHeader (the admission path) or filled by hand (tests).
struct CostFeatures {
  uint64_t delta_prime = 0;  ///< candidate count
  int k = 0;                 ///< answer size (drives m via PoiCodec)
  int key_bits = 0;          ///< Paillier modulus bits
  bool is_opt = false;       ///< two-phase (PPGNN-OPT) indicator
  uint64_t omega = 0;        ///< OPT block count (0 for plain)

  static CostFeatures FromHeader(const QueryWireHeader& h);
};

/// Analytic + EWMA-corrected execute-time predictor.
class CostModel {
 public:
  CostModel() = default;

  /// Predicted execute-stage wall seconds for one query at the service's
  /// configured thread count. Pure function of the features and the
  /// current EWMA state; clamped to a small positive floor.
  double PredictSeconds(const CostFeatures& f) const;

  /// Analytic prior alone (no EWMA correction). Exposed for tests and for
  /// the benchmark's model-error report.
  static double AnalyticSeconds(const CostFeatures& f);

  /// Pre-seeds the EWMA bucket matching `f` as if `expected_seconds` had
  /// been observed once, without counting it in observations(). Later
  /// real observations take over at the normal EWMA rate. No-op for
  /// non-positive values or if the bucket already has data.
  void SeedPrior(const CostFeatures& f, double expected_seconds);

  /// Feeds back one completed query's measured execute seconds. Updates
  /// the matching bucket's EWMA of observed/analytic and a global
  /// fallback used by buckets that have no observations yet.
  void Observe(const CostFeatures& f, double execute_seconds);

  /// Number of Observe() calls so far (stats surface).
  uint64_t observations() const;

 private:
  // EWMA smoothing factor: ~12 observations to move 90% of the way to a
  // changed steady state — fast enough to track a thermal throttle, slow
  // enough that one outlier query cannot halve the admission rate.
  static constexpr double kAlpha = 0.2;
  static constexpr int kDeltaBuckets = 24;  // log2(delta') 0..23
  static constexpr int kKeyClasses = 4;     // <=512, 1024, 2048, >2048
  static constexpr int kKinds = 2;          // plain / OPT

  static int BucketIndex(const CostFeatures& f);

  mutable std::mutex mu_;
  // ppgnn: guarded_by(bucket_ratio_, mu_)
  double bucket_ratio_[kDeltaBuckets * kKeyClasses * kKinds] = {};
  // ppgnn: guarded_by(bucket_count_, mu_)
  uint64_t bucket_count_[kDeltaBuckets * kKeyClasses * kKinds] = {};
  // ppgnn: guarded_by(global_ratio_, mu_)
  double global_ratio_ = 1.0;
  // ppgnn: guarded_by(observations_, mu_)
  uint64_t observations_ = 0;
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_COST_MODEL_H_
