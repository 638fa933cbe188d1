// LspService: an in-process, multi-threaded serving front-end over
// LspHandleQuery — the layer that turns the wire-level LSP entry point
// into something shaped like a network daemon.
//
//   * Admission control, in order of cheapness:
//       1. a bounded FIFO request queue (full -> kOverloaded, never
//          unbounded buffering);
//       2. cost-aware shedding, always on: the service's own CostModel
//          predicts execute time from the public wire header (delta', k,
//          key bits — peeked without decoding any ciphertext), and a
//          request whose deadline cannot cover the prediction is
//          rejected at Submit, or answered kDeadlineExceeded at dequeue
//          against its remaining budget, *before any crypto runs*.
//     Every admission decision reads only public wire metadata — never
//     `// ppgnn: secret` data (the ppgnn-lint secret-flow rule enforces
//     this transitively).
//   * A pool of `workers` threads, each executing one query at a time.
//   * Per-request deadlines: propagated from the wire (QueryMessage
//     deadline_ms) or set locally. The worker hands the request's own
//     deadline to the query pipeline, which checks it at the checkpoints
//     it already has (candidate expansion, sanitize, both selection
//     phases) and abandons work at the first one past it; no thread
//     watches the clock for it. Requests that expire while queued — or
//     whose predicted cost no longer fits the remaining budget at
//     dequeue — are answered without executing at all.
//   * Idempotent dedup: a request carrying an idempotency key joins the
//     in-flight original with the same key (one execution, every leg
//     replied) or replays the cached answer frame of a completed one.
//     Key 0 is never coalesced. The request's deadline, plus
//     `reply_cache_grace_seconds`, is how long its entry is kept
//     (service/reply_cache.h).
//   * Observability: counters, queue-wait / execute / end-to-end latency
//     histograms, and summed QueryInstrumentation via Stats().
//
// Every reply — answer or error — is a wire ResponseFrame, so a client
// can always distinguish "malformed query" / "overloaded" / "deadline
// exceeded" / "internal" from transport garbage.

#ifndef PPGNN_SERVICE_LSP_SERVICE_H_
#define PPGNN_SERVICE_LSP_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "net/latency.h"
#include "service/cost_model.h"
#include "service/link.h"
#include "service/reply_cache.h"

namespace ppgnn {

struct ServiceConfig {
  /// Concurrent whole-query executors (>= 1): the thread-pool size.
  int workers = 2;
  /// Maximum queued (not yet executing) requests before reject-on-full.
  size_t queue_capacity = 64;
  /// Time budget applied to requests that don't carry their own;
  /// 0 = unlimited.
  double default_deadline_seconds = 0.0;
  /// Intra-query fan-out of the answer step (LspAnswerCandidates), on a
  /// single node and on a cluster front alike.
  int lsp_threads = 1;
  bool sanitize = true;
  TestConfig test_config;
  /// How long a dedup entry outlives its request's deadline. Past it an
  /// in-flight entry is presumed abandoned (the key is released to the
  /// next retry and joined waiters get kDeadlineExceeded) and a completed
  /// reply stops replaying. A deadline-less reply is kept this long after
  /// it completes.
  double reply_cache_grace_seconds = 1.0;
  /// Test override for the kOverloaded retry_after_ms hint; 0 = computed
  /// from the backlog and the observed mean execute time.
  uint64_t retry_after_hint_ms = 0;

  /// Test-only: runs on the worker thread right before query execution.
  /// Lets tests hold workers on a latch to force queue-full and
  /// deadline-expiry deterministically. Never set in production paths.
  std::function<void()> test_execute_hook;
};

struct ServiceRequest {
  std::vector<uint8_t> query;                   ///< QueryMessage bytes
  std::vector<std::vector<uint8_t>> uploads;    ///< LocationSetMessage bytes
  /// Per-request budget from admission to reply; 0 = use the config
  /// default. The effective budget is the tighter of this and the wire
  /// deadline_ms carried inside `query`, when either is set.
  double deadline_seconds = 0.0;
  /// Dedup key; 0 = fall back to the wire idempotency_key inside
  /// `query`, which may itself be 0 (dedup disabled for this request).
  uint64_t idempotency_key = 0;
  /// Users whose uploads are coordinator-substituted dummy sets (dropout
  /// degradation). Carried for observability; the wire shape is unchanged.
  uint32_t degraded_users = 0;
};

/// Counter snapshot. accepted == served + failed + deadline_expired +
/// (still queued or executing); rejected requests are never accepted,
/// and dedup joins/replays are answered without being accepted.
struct ServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t deadline_expired = 0;
  size_t queue_depth = 0;
  /// Cost-based Submit-time rejections (a subset of `rejected`).
  uint64_t shed = 0;
  /// deadline_expired split: answered without any crypto vs. cancelled
  /// mid-execution. expired_in_queue + abandoned_executing ==
  /// deadline_expired.
  uint64_t expired_in_queue = 0;
  uint64_t abandoned_executing = 0;
  /// Idempotency-key coalescing.
  uint64_t dedup_joins = 0;
  uint64_t dedup_replays = 0;
  /// Joined waiters errored out because their primary was presumed dead
  /// (in-flight entry purged past deadline + grace).
  uint64_t dedup_purged = 0;
  /// Scatter-gather fan-outs that completed with at least one shard
  /// missing (merged degraded instead of failing the query). Zero on a
  /// plain single-node service; ShardedLspService fills it in.
  uint64_t degraded_shards = 0;
  /// Executions the cost model has learned from.
  uint64_t cost_observations = 0;
  /// Client-side resilience events, reported back by ResilientClient (or
  /// anything else wrapping this service) via the Record* methods.
  uint64_t retries = 0;
  uint64_t hedges = 0;
  /// Served queries whose request carried degraded (substituted) users.
  uint64_t degraded_queries = 0;
  /// Resilience ladder of the replicated cluster (zero on plain
  /// services; ShardedLspService fills these in).
  /// Fan-outs where at least one replica leg failed over, hedged, or
  /// retried and the merged answer still covered every routed shard —
  /// the exact-despite-failures counterpart of `degraded_shards`.
  uint64_t exact_despite_failures = 0;
  uint64_t replica_failovers = 0;   ///< answers served by a failover leg
  uint64_t replica_hedge_wins = 0;  ///< answers served by a hedge leg
  uint64_t health_transitions = 0;  ///< replica health-state transitions
  /// Queued requests flushed with kShuttingDown when a bounded drain
  /// (Shutdown with a deadline) ran out of time.
  uint64_t drain_flushed = 0;
  /// Error replies sent, indexed by WireError (kMalformed..kShuttingDown).
  std::array<uint64_t, kWireErrorCount> error_replies{};
  LatencySummary latency;      ///< admission -> reply, all outcomes
  LatencySummary queue_wait;   ///< admission -> dequeue, executed or expired
  LatencySummary execute;      ///< dequeue -> finish, executed requests only
  QueryInstrumentation totals; ///< summed over served queries

  std::string ToString() const;
};

class LspService : public ServiceLink {
 public:
  using Clock = std::chrono::steady_clock;

  /// Invoked exactly once per submitted request with the encoded
  /// ResponseFrame. May run on a worker thread, or inline in Submit for
  /// rejected/replayed requests. Must not re-enter the service.
  using Callback = ServiceLink::Callback;

  /// Execution context handed to a Handler on the worker thread.
  struct HandlerContext {
    /// The request's absolute deadline, which the pipeline checks at its
    /// checkpoints; a handler that fans out further (the shard
    /// coordinator) derives downstream budgets from it.
    Deadline deadline = kNoDeadline;
    /// Per-query instrumentation sink; never null.
    QueryInstrumentation* info = nullptr;
  };

  /// The execution strategy behind the admission/queue/deadline front-end:
  /// maps a request to raw AnswerMessage (or ShardAnswerMessage) bytes.
  /// The default handler dispatches on the wire shape — ShardQueryMessage
  /// bytes run the plaintext shard path, everything else the full
  /// LspHandleQuery pipeline. The shard coordinator installs its own
  /// handler that scatter-gathers over a cluster instead.
  using Handler = std::function<Result<std::vector<uint8_t>>(
      const ServiceRequest&, const HandlerContext&)>;

  /// Starts the worker pool over the default database handler. The
  /// database must outlive the service.
  LspService(const LspDatabase& db, ServiceConfig config);
  /// Same front-end over a custom execution handler (must be non-null;
  /// anything it references must outlive the service).
  LspService(Handler handler, ServiceConfig config);
  ~LspService() override;

  LspService(const LspService&) = delete;
  LspService& operator=(const LspService&) = delete;

  /// Non-blocking admission. Returns true if the request was queued,
  /// joined an in-flight duplicate, or was answered from the reply
  /// cache; on false (queue full, shed, or shutting down) the callback
  /// has already been invoked inline with a kOverloaded error frame.
  [[nodiscard]] bool Submit(ServiceRequest request, Callback done) override;

  /// Blocking convenience wrapper: submits and waits for the reply frame.
  std::vector<uint8_t> Call(ServiceRequest request);

  ServiceStats Stats() const;

  /// Resilience-event hooks: a retrying/hedging client calls these so its
  /// recovery activity shows up in the same Stats() snapshot as the
  /// server-side counters it caused.
  void RecordClientRetry() override {
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordClientHedge() override {
    hedges_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stops admission (new submissions get a structured kShuttingDown
  /// frame with a retry_after_ms hint), drains queued and executing
  /// requests, then joins all threads. With a positive
  /// `drain_deadline_seconds` the drain is bounded: requests still
  /// queued when it elapses are flushed with kShuttingDown frames
  /// instead of executing, so every accepted request is still answered
  /// exactly once (accepted + rejected == submitted, across the drain).
  /// 0 = unbounded drain (execute everything queued). Idempotent; the
  /// destructor calls it.
  void Shutdown(double drain_deadline_seconds = 0.0);
  /// The link view of Shutdown(): an unbounded drain.
  void Close() override { Shutdown(); }

 private:
  struct PendingRequest {
    ServiceRequest request;
    Callback done;
    Clock::time_point admitted;
    Deadline deadline = kNoDeadline;
    CostFeatures features;
    bool has_features = false;
    uint64_t cache_key = 0;  // nonzero = this request is a dedup primary
    // In-flight generation returned at admission; Complete/Abort must
    // echo it so a purged-and-readmitted key ignores this stale primary.
    uint64_t cache_generation = 0;
  };

  void WorkerLoop();
  /// Executes (or expires) one dequeued request and replies on all legs.
  void ProcessRequest(PendingRequest& req);
  void Reply(PendingRequest& req, std::vector<uint8_t> frame);
  /// Distributes `frame` to the request's own leg and, when it is a
  /// dedup primary, to every joined duplicate; answers (cache_for_replay)
  /// stay cached for later replays.
  void Finish(PendingRequest& req, std::vector<uint8_t> frame,
              bool cache_for_replay);
  /// One delivery leg: applies the transport failpoint, records
  /// end-to-end latency, invokes the callback. Joined duplicates are
  /// stored in the reply cache as legs so every duplicate gets the same
  /// (pre-corruption) frame through the same path as the primary.
  Callback MakeLeg(Clock::time_point admitted, Callback done);
  /// Builds an error frame and bumps the per-code reply counter.
  std::vector<uint8_t> MakeErrorFrame(WireError code, std::string detail,
                                      uint64_t retry_after_ms = 0);
  /// Backpressure hint for kOverloaded replies: config override, or an
  /// estimate of how long the current backlog needs to drain (plus
  /// `extra_seconds`, e.g. how far a shed request's cost overshot its
  /// budget).
  uint64_t RetryAfterHintMs(double extra_seconds);
  /// Rejects a registered dedup primary: aborts the cache entry and
  /// errors out any waiters that joined in the meantime.
  void AbortPrimary(uint64_t cache_key, uint64_t cache_generation,
                    const std::vector<uint8_t>& frame);

  Handler handler_;
  const ServiceConfig config_;
  CostModel cost_model_;
  ReplyCache reply_cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  // ppgnn: guarded_by(queue_, mu_)
  std::deque<PendingRequest> queue_;
  // ppgnn: guarded_by(executing_, mu_)
  int executing_ = 0;
  // ppgnn: guarded_by(stopping_, mu_)
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  // Monotonic stats counters, read only by Stats(); relaxed ordering is
  // deliberate and sanctioned here (and only here).
  // ppgnn: stat_counter(accepted_, rejected_, served_, failed_)
  // ppgnn: stat_counter(deadline_expired_, shed_, expired_in_queue_)
  // ppgnn: stat_counter(abandoned_executing_, dedup_joins_, dedup_replays_)
  // ppgnn: stat_counter(dedup_purged_, retries_, hedges_)
  // ppgnn: stat_counter(degraded_queries_, drain_flushed_, error_replies_)
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> abandoned_executing_{0};
  std::atomic<uint64_t> dedup_joins_{0};
  std::atomic<uint64_t> dedup_replays_{0};
  std::atomic<uint64_t> dedup_purged_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> degraded_queries_{0};
  std::atomic<uint64_t> drain_flushed_{0};
  std::array<std::atomic<uint64_t>, kWireErrorCount> error_replies_{};
  LatencyHistogram latency_;
  LatencyHistogram queue_wait_;
  LatencyHistogram execute_;
  mutable std::mutex totals_mu_;
  // ppgnn: guarded_by(totals_, totals_mu_)
  QueryInstrumentation totals_;
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_LSP_SERVICE_H_
