// ReplicaSet: R independent LspService instances over identical slice
// data, fronted by a HealthMonitor — one shard of the replicated
// cluster.
//
// Each replica holds its *own* LspDatabase copy of the same POI slice
// and is reached through its own ResilientClient link (per-leg retries,
// backoff, budget classification — seeds perturbed per replica so
// jitter streams stay independent). Because the slice data is identical
// and the shard wire is deterministic, every replica computes the same
// ShardAnswer bytes for the same query; Call() may therefore fail over
// or hedge freely without changing a single answer bit.
//
// Call() walks the resilience ladder:
//   1. the health monitor's preference order picks the primary (lowest
//      routable replica index — stable under flapping, see health.h);
//   2. a hedge leg to the next-preferred replica launches if the
//      primary is silent past a p99-derived delay; the first decisive
//      answer wins;
//   3. failed legs fail over to the remaining routable replicas while
//      the budget lasts;
//   4. when *no* replica is routable, one half-open probe may carry the
//      real query (a down set's fastest path back to serving);
//   5. only when all of that fails does the caller see an unanswered
//      outcome — the coordinator's degraded merge, the ladder's last
//      tier.
//
// Every probe and query leg evaluates the
// `shard.replica.<shard>.<replica>` failpoint, so chaos schedules can
// kill or slow any single replica; leg outcomes feed the health state
// machine.

#ifndef PPGNN_SERVICE_REPLICA_SET_H_
#define PPGNN_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/latency.h"
#include "service/health.h"
#include "service/lsp_service.h"
#include "service/resilient_client.h"

namespace ppgnn {

struct ReplicaSetConfig {
  /// Independent replicas of the slice (>= 1).
  int replicas = 1;
  /// Per-replica LspService config (plaintext shard kGNN — keep modest).
  ServiceConfig service;
  /// Per-leg retry/budget policy; seed perturbed per (shard, replica).
  RetryPolicy link_policy;
  HealthConfig health;
  /// Cross-replica hedging: launch a second leg when the primary is
  /// silent past the delay. Requires replicas >= 2 to do anything.
  bool hedge = true;
  /// Fixed hedge delay; 0 = derive from leg p99 (HedgeDelaySeconds).
  double hedge_delay_seconds = 0.0;
  /// Remote mode: when set, the factory builds the ServiceLink for
  /// (shard, replica) — e.g. a TcpLink dialing a TcpShardServer — and
  /// the set builds *no* local databases or services; `service` is
  /// ignored. The ladder is otherwise identical: each remote link is
  /// still wrapped in a ResilientClient, and the link's connectivity
  /// observer feeds down-edges into the health monitor so a severed
  /// socket demotes the replica even between queries.
  std::function<std::unique_ptr<ServiceLink>(int shard, int replica)>
      link_factory;
  /// ProbeOnce dial budget per remote replica (remote mode only).
  double probe_timeout_seconds = 0.25;
};

/// What one replicated call did, for the coordinator's ladder counters.
struct ReplicaCallOutcome {
  bool answered = false;
  std::vector<uint8_t> frame;  ///< winning ResponseFrame bytes
  ErrorMessage error;          ///< set when !answered
  int served_by = -1;          ///< replica index that produced `frame`
  bool failed_over = false;    ///< a non-primary leg answered after failures
  bool hedge_won = false;      ///< the hedge leg's answer was used
  int legs = 0;                ///< query legs launched (primary + hedge + failover)
};

/// Per-replica ladder counters, snapshotted into ServiceStats.
struct ReplicaSetStats {
  struct Replica {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    uint64_t served = 0;        ///< legs whose answer won a call
    uint64_t failed_over = 0;   ///< wins that were failover legs
    uint64_t hedge_won = 0;     ///< wins that were hedge legs
    uint64_t leg_failures = 0;  ///< legs that ended unanswered
    uint64_t probes = 0;        ///< health probes run against this replica
    uint64_t transitions = 0;   ///< health-state transitions
    double ewma_latency_seconds = 0.0;
  };
  std::vector<Replica> replicas;
  uint64_t hedges_launched = 0;
};

class ReplicaSet {
 public:
  /// Builds R databases/services/links over copies of `slice`.
  ReplicaSet(int shard_index, std::vector<Poi> slice, ReplicaSetConfig config);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Runs one shard query to a decisive outcome under the ladder.
  /// `budget_seconds` <= 0 means no wall-clock bound (legs still obey
  /// the link policy). Thread-safe.
  ReplicaCallOutcome Call(const ServiceRequest& request,
                          double budget_seconds);

  /// One probe pass: healthy/suspect replicas are probed directly; a
  /// down replica is probed only if its half-open gate admits. Called
  /// by the coordinator's background prober and by tests.
  void ProbeOnce();

  ReplicaSetStats Stats() const;
  HealthMonitor& health() { return *health_; }
  int replicas() const { return static_cast<int>(links_.size()); }
  /// True when the set reaches its replicas over caller-built links
  /// (link_factory) instead of in-process services.
  bool remote() const { return !remote_links_.empty(); }
  /// In-process mode only — remote replicas live behind their links.
  LspService& replica_service(int replica) {
    return *services_[static_cast<size_t>(replica)];
  }
  const ResilientClient& link(int replica) const {
    return *links_[static_cast<size_t>(replica)];
  }

  /// Stops the replica services (draining in-flight legs) and joins any
  /// straggler hedge/failover threads. Idempotent.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  // ppgnn: stat_counter(served, failed_over, hedge_won, leg_failures)
  // ppgnn: stat_counter(probes, hedges_launched_)
  struct LegCounters {
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> failed_over{0};
    std::atomic<uint64_t> hedge_won{0};
    std::atomic<uint64_t> leg_failures{0};
    std::atomic<uint64_t> probes{0};
  };

  /// One query leg: failpoint gate, link call, health report.
  ClientCallOutcome CallLeg(int replica, const ServiceRequest& request,
                            double remaining_seconds);
  /// Moves a still-running loser leg's thread to the straggler list (and
  /// reaps finished stragglers) so Call() can return without waiting on
  /// a slow leg.
  void ParkStraggler(std::thread thread);

  const int shard_index_;
  const ReplicaSetConfig config_;
  std::vector<std::string> failpoints_;  ///< shard.replica.<s>.<r>
  std::vector<std::unique_ptr<LspDatabase>> dbs_;
  std::vector<std::unique_ptr<LspService>> services_;
  /// Remote mode: the factory-built links the ResilientClients wrap.
  /// Closed in Shutdown *before* health_ could die under an observer.
  std::vector<std::unique_ptr<ServiceLink>> remote_links_;
  std::vector<std::unique_ptr<ResilientClient>> links_;
  std::unique_ptr<HealthMonitor> health_;
  std::vector<LegCounters> counters_;
  std::atomic<uint64_t> hedges_launched_{0};
  LatencyHistogram leg_latency_;

  mutable std::mutex stragglers_mu_;
  // ppgnn: guarded_by(stragglers_, stragglers_mu_)
  std::vector<std::thread> stragglers_;
  // ppgnn: guarded_by(shut_down_, stragglers_mu_)
  bool shut_down_ = false;
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_REPLICA_SET_H_
