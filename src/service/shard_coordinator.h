// ShardedLspService: a scatter-gather cluster of replicated LSP shards
// behind the standard LspService front-end.
//
// The POI space is split into S contiguous slices (sorted by (x, y, id)
// and cut into equal runs, so shard MBRs overlap only at slice
// boundaries); each slice backs a *replica set* of R links to
// independent replicas over identical copies of the slice data
// (service/replica_set.h), fronted by a health monitor
// (service/health.h). The cluster builds each link: the configured
// link_factory's, or an in-process LspService over a copy of the slice
// that the cluster owns. The front-end is a plain LspService whose
// execution handler serves the single-node pipeline of core/protocol.h:
// LspDecodeCandidates, then LspAnswerCandidates. Only the kGNN source
// differs. Instead of running the kGNN locally, for every candidate
// query the handler:
//
//   * routes it to the shards whose MBR could contribute to the global
//     top-k (MBM-style bound: any shard holding >= k POIs caps the k-th
//     cost at its aggregate max-distance; shards whose aggregate
//     min-distance exceeds the tightest such cap are pruned — exactly,
//     since every POI they hold is then strictly worse than the cap);
//   * scatters per-shard ShardQueryMessages through FanOut (net/cost.h),
//     the front worker running the first leg itself, each leg one
//     ResilientClient call over its replica set's health-ordered route:
//     retries, immediate failover, p99-derived cross-replica hedging,
//     and a half-open probe when the whole set looks down — the request's
//     remaining deadline bounding the call and riding, with a
//     per-shard-derived idempotency key, in the wire-v2 trailer;
//   * gathers the per-shard top-k lists and merges them per candidate by
//     (cost, poi id) — the same total order the single-node MBM solver
//     emits, so an S=1 cluster is bit-identical to a plain LspService.
//     Because replicas hold identical data and the shard wire is
//     deterministic, a failover or hedge-win changes *zero* answer
//     bits: the merged frame is byte-identical to the no-failure run.
//
// The merged lists are LspAnswerCandidates' kGNN source, so crypto never
// leaves the coordinator: sanitation, answer packing and private
// selection are the single-node code over the *merged* matrix, and the
// encrypted answer shape (Privacy II) cannot reveal the shard layout —
// or which replica served (the Hashem et al. invariant).
//
// Degraded merges are the resilience ladder's *last* tier: only when
// every replica in a routed set is unavailable (the set-wide
// shard.link.<j> failpoint, or every shard.replica.<j>.<r> leg dead) is
// the slice missing from the merge; the fan-out is then counted in
// ServiceStats::degraded_shards. A slice whose winning answer passes the
// frame CRC but fails ShardAnswerMessage::Decode is dropped the same way,
// with no failover and no health report. Fan-outs that needed the ladder but
// still merged every routed shard count as exact_despite_failures.
// Only when *every* routed shard fails does the query error (kInternal).

#ifndef PPGNN_SERVICE_SHARD_COORDINATOR_H_
#define PPGNN_SERVICE_SHARD_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "geo/rect.h"
#include "service/health.h"
#include "service/lsp_service.h"
#include "service/replica_set.h"
#include "service/resilient_client.h"

namespace ppgnn {

struct ShardClusterConfig {
  /// Number of POI shards (>= 1). 1 is a degenerate cluster whose answers
  /// are bit-identical to a plain LspService over the same POIs.
  int shards = 1;
  /// Replication factor per shard (>= 1). 1 reproduces the PR 7 layout:
  /// one link per slice, a dead link degrades the merge.
  int replicas = 1;
  /// The coordinator front-end (admission, queue, deadlines, dedup). Its
  /// sanitize, test_config and lsp_threads are handed to
  /// LspAnswerCandidates over the merged answers, as a plain LspService
  /// hands them to it over its local kGNN.
  ServiceConfig front;
  /// Per-replica service config of in-process replicas (plaintext kGNN
  /// only — keep workers modest).
  ServiceConfig shard;
  /// Retry/budget policy of each replica set's client; the seed is
  /// perturbed per shard, and `hedge` / `hedge_delay_seconds` below
  /// replace its hedge fields.
  RetryPolicy link_policy;
  /// Replica health state machine (thresholds, cooldown, probe cadence,
  /// injectable clock).
  HealthConfig health;
  /// Cross-replica hedging inside each set (needs replicas >= 2).
  bool hedge = true;
  /// Fixed cross-replica hedge delay; 0 = derive from observed leg p99.
  double hedge_delay_seconds = 0.0;
  /// Run the background prober thread (health.probe_interval_seconds
  /// cadence). Off by default so deterministic tests drive probes
  /// manually; the CLI and benches turn it on.
  bool background_prober = false;
  /// Remote transport mode: when set, every (shard, replica) link comes
  /// from this factory (e.g. net/transport TcpLinks dialing a
  /// LoopbackShardFleet or --listen processes) instead of an in-process
  /// LspService; `shard` is ignored. POIs are still partitioned locally
  /// — the coordinator needs the slice MBRs and sizes for exact routing,
  /// and remote servers MUST hold the same (x, y, id)-sorted slices for
  /// answers to stay byte-identical.
  std::function<std::unique_ptr<ServiceLink>(int shard, int replica)>
      link_factory;
  /// ProbeOnce budget per replica link (dial-or-reuse over TCP).
  double probe_timeout_seconds = 0.25;
};

/// Splits `pois` into `shards` contiguous slices of near-equal size,
/// sorted by (x, y, id). Every POI lands in exactly one slice; slices are
/// returned in x order and may be empty only when shards > |pois|.
std::vector<std::vector<Poi>> PartitionPoisForShards(std::vector<Poi> pois,
                                                     int shards);

class ShardedLspService {
 public:
  /// Builds the replica sets and starts the front-end (and the prober,
  /// when configured).
  ShardedLspService(std::vector<Poi> pois, ShardClusterConfig config);
  ~ShardedLspService();

  ShardedLspService(const ShardedLspService&) = delete;
  ShardedLspService& operator=(const ShardedLspService&) = delete;

  /// Same contract as LspService::Submit / Call, on the front-end.
  [[nodiscard]] bool Submit(ServiceRequest request, LspService::Callback done);
  std::vector<uint8_t> Call(ServiceRequest request);

  /// Front-end stats with the resilience ladder filled in from the
  /// gather path: degraded_shards, exact_despite_failures, and the
  /// failover / hedge-win / health-transition counts summed over every
  /// replica. Per replica, read replica_set(j).Stats().
  ServiceStats Stats() const;

  /// Stops the prober and the front-end first (drains coordinator
  /// queries, which still need the shards), then the replica sets.
  /// Idempotent.
  void Shutdown();

  int shards() const { return static_cast<int>(sets_.size()); }
  int replicas() const { return config_.replicas; }
  const Rect& shard_mbr(int shard) const {
    return shard_mbrs_[static_cast<size_t>(shard)];
  }
  size_t shard_size(int shard) const {
    return shard_sizes_[static_cast<size_t>(shard)];
  }
  /// Test/bench access to the layers.
  LspService& front() { return *front_; }
  ReplicaSet& replica_set(int shard) {
    return *sets_[static_cast<size_t>(shard)];
  }
  /// Replica 0 of the shard, when replicas are in-process (throws
  /// std::bad_cast over link_factory links).
  LspService& shard_service(int shard) {
    return dynamic_cast<LspService&>(
        sets_[static_cast<size_t>(shard)]->link(0));
  }

 private:
  /// The front-end execution handler: LspDecodeCandidates, then route,
  /// scatter, gather and merge, then LspAnswerCandidates over the merged
  /// lists.
  Result<std::vector<uint8_t>> HandleQuery(const ServiceRequest& request,
                                           const LspService::HandlerContext& ctx);
  void ProberLoop();

  ShardClusterConfig config_;
  /// In-process replicas' slice copies; outlive the sets' services.
  std::vector<std::unique_ptr<LspDatabase>> dbs_;
  std::vector<std::unique_ptr<ReplicaSet>> sets_;
  std::vector<Rect> shard_mbrs_;
  std::vector<size_t> shard_sizes_;
  // ppgnn: stat_counter(degraded_shards_, exact_despite_failures_)
  std::atomic<uint64_t> degraded_shards_{0};
  std::atomic<uint64_t> exact_despite_failures_{0};

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  // ppgnn: guarded_by(prober_stop_, prober_mu_)
  bool prober_stop_ = false;
  std::thread prober_;

  /// Declared last: destroyed (and shut down) first, while the replica
  /// sets its in-flight handlers scatter to are still alive.
  std::unique_ptr<LspService> front_;
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_SHARD_COORDINATOR_H_
