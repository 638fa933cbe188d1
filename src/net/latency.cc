#include "net/latency.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace ppgnn {

int LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < (1u << kFirstOctave)) return static_cast<int>(ns);
  const int msb = 63 - std::countl_zero(ns);  // floor(log2(ns)) >= 4
  const int sub =
      static_cast<int>((ns >> (msb - kSubBits)) & (kSubBuckets - 1));
  return (1 << kFirstOctave) + (msb - kFirstOctave) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperNs(int bucket) {
  if (bucket < (1 << kFirstOctave)) return static_cast<uint64_t>(bucket);
  const int rel = bucket - (1 << kFirstOctave);
  const int msb = kFirstOctave + rel / kSubBuckets;
  const int sub = rel % kSubBuckets;
  const uint64_t base = uint64_t{1} << msb;
  const uint64_t step = base >> kSubBits;
  return base + static_cast<uint64_t>(sub + 1) * step - 1;
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0) seconds = 0;
  const uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
  buckets_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::Quantile(double q) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(n));
  if (target < 1) target = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= target) return static_cast<double>(BucketUpperNs(b)) * 1e-9;
  }
  return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

LatencySummary LatencyHistogram::Summarize() const {
  LatencySummary out;
  out.count = count_.load(std::memory_order_relaxed);
  if (out.count == 0) return out;
  out.mean_seconds = static_cast<double>(
                         total_ns_.load(std::memory_order_relaxed)) *
                     1e-9 / static_cast<double>(out.count);
  out.p50_seconds = Quantile(0.50);
  out.p90_seconds = Quantile(0.90);
  out.p99_seconds = Quantile(0.99);
  out.max_seconds =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

double HedgeDelaySeconds(const LatencyHistogram& observed,
                         double fixed_seconds) {
  if (fixed_seconds > 0) return fixed_seconds;
  if (observed.count() >= 8) {
    return std::max(kMinHedgeDelaySeconds, observed.Quantile(0.99));
  }
  return kFallbackHedgeDelaySeconds;
}

std::string LatencySummary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms "
                "max=%.3fms",
                static_cast<unsigned long long>(count), mean_seconds * 1e3,
                p50_seconds * 1e3, p90_seconds * 1e3, p99_seconds * 1e3,
                max_seconds * 1e3);
  return buf;
}

}  // namespace ppgnn
