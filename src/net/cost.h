// Cost accounting for the simulated protocol runs.
//
// The paper reports three metrics per query (Section 8.1):
//   * total communication cost — bytes moved between the user group and
//     LSP plus bytes moved within the user group;
//   * user cost — the summed computation time of all users (the
//     coordinator included);
//   * LSP cost — computation time spent by LSP.
//
// CostTracker accumulates these. Parties record communication via
// RecordSend and wrap computation in ScopedTimer blocks. Timing uses the
// thread CPU clock so co-scheduled benchmarks don't pollute each other.

#ifndef PPGNN_NET_COST_H_
#define PPGNN_NET_COST_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace ppgnn {

/// Logical direction of a message, for the communication breakdown.
enum class Link {
  kUserToLsp,
  kLspToUser,
  kUserToUser,
};

/// Which party is burning CPU.
enum class Party {
  kUser,
  kLsp,
};

struct CostReport {
  uint64_t bytes_user_to_lsp = 0;
  uint64_t bytes_lsp_to_user = 0;
  uint64_t bytes_user_to_user = 0;
  /// Actual on-the-socket byte counts (transport header included) for
  /// traffic that crossed a real link. Zero for purely in-process runs —
  /// the logical fields above are then the whole story. Framed >= the
  /// logical bytes of the same sends, by construction.
  uint64_t framed_bytes_user_to_lsp = 0;
  uint64_t framed_bytes_lsp_to_user = 0;
  double user_seconds = 0.0;
  double lsp_seconds = 0.0;

  uint64_t TotalCommBytes() const {
    return bytes_user_to_lsp + bytes_lsp_to_user + bytes_user_to_user;
  }
  uint64_t TotalFramedBytes() const {
    return framed_bytes_user_to_lsp + framed_bytes_lsp_to_user;
  }

  CostReport& operator+=(const CostReport& o);
  /// Pointwise division by a query count, for averaging.
  CostReport DividedBy(double runs) const;

  std::string ToString() const;
};

class CostTracker {
 public:
  void RecordSend(Link link, uint64_t bytes);
  /// A send that crossed a real socket: `bytes` is the logical payload
  /// (recorded exactly like RecordSend), `framed_bytes` what the wire
  /// actually carried — payload plus transport framing. Keeps the
  /// paper's Section 8.1 communication metric honest about overhead.
  void RecordFramedSend(Link link, uint64_t bytes, uint64_t framed_bytes);
  void RecordCompute(Party party, double seconds);

  const CostReport& report() const { return report_; }
  void Reset() { report_ = CostReport(); }

 private:
  CostReport report_;
};

/// RAII timer charging elapsed thread-CPU time to a party on destruction.
class ScopedTimer {
 public:
  ScopedTimer(CostTracker* tracker, Party party);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  CostTracker* tracker_;
  Party party_;
  double start_;
};

/// Current thread CPU time in seconds (monotonic within a thread).
double ThreadCpuSeconds();

/// Runs `task(worker_index)` on `workers` threads (worker 0 on the
/// calling thread) and adds the spawned workers' CPU seconds to
/// `*worker_seconds` when it is non-null. The caller's own timer already
/// sees worker 0, so charging the rest this way keeps a party's cost
/// equal to its total compute whatever the thread count.
template <typename Task>
void FanOut(int workers, double* worker_seconds, Task&& task) {
  if (workers <= 1) {
    task(0);
    return;
  }
  std::vector<double> cpu(static_cast<size_t>(workers), 0.0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&task, &cpu, w] {
      double t0 = ThreadCpuSeconds();
      task(w);
      cpu[static_cast<size_t>(w)] = ThreadCpuSeconds() - t0;
    });
  }
  task(0);
  for (std::thread& t : pool) t.join();
  if (worker_seconds != nullptr) {
    for (int w = 1; w < workers; ++w) {
      *worker_seconds += cpu[static_cast<size_t>(w)];
    }
  }
}

}  // namespace ppgnn

#endif  // PPGNN_NET_COST_H_
