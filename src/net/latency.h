// Lock-free latency histogram for the serving path.
//
// LspService records one sample per request (admission to reply) from
// many worker threads at once, so the histogram is an array of relaxed
// atomic counters: recording is wait-free and the summary is a racy-but-
// consistent-enough snapshot, which is all an operational p99 needs.
//
// Buckets are log-linear over nanoseconds (HdrHistogram-style): values
// below 16 ns get exact buckets, above that each power-of-two octave is
// split into 8 linear sub-buckets, giving a worst-case quantile error of
// ~6% across the full uint64 range with a fixed 500-ish bucket table.

#ifndef PPGNN_NET_LATENCY_H_
#define PPGNN_NET_LATENCY_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace ppgnn {

/// Plain-value summary of a LatencyHistogram at one point in time.
struct LatencySummary {
  uint64_t count = 0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p90_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;

  std::string ToString() const;
};

class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Thread-safe; negative samples clamp to zero.
  void Record(double seconds);

  /// Approximate quantile (upper bucket bound) in seconds; 0 when empty.
  double Quantile(double q) const;

  LatencySummary Summarize() const;

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  // 16 exact buckets + 8 sub-buckets for each octave 2^4 .. 2^63.
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 8
  static constexpr int kFirstOctave = 4;             // values >= 16 ns
  static constexpr int kBuckets =
      (1 << kFirstOctave) + (64 - kFirstOctave) * kSubBuckets;

  static int BucketOf(uint64_t ns);
  /// Inclusive upper bound (in ns) of the values mapped to `bucket`.
  static uint64_t BucketUpperNs(int bucket);

  // Monotonic stats cells; Summarize() tolerates torn cross-counter
  // snapshots by construction, so relaxed ordering is sanctioned.
  // ppgnn: stat_counter(buckets_, count_, total_ns_, max_ns_)
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

/// The hedge delay of ResilientClient: `fixed_seconds`
/// when positive; else the p99 of `observed`, at least the minimum (too
/// small stampedes the queue), once 8 samples exist; else the fallback.
inline constexpr double kMinHedgeDelaySeconds = 0.001;
inline constexpr double kFallbackHedgeDelaySeconds = 0.05;
double HedgeDelaySeconds(const LatencyHistogram& observed,
                         double fixed_seconds);

}  // namespace ppgnn

#endif  // PPGNN_NET_LATENCY_H_
