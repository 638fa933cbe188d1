// ReplicaSet: R interchangeable replica links over identical slice data,
// fronted by a HealthMonitor — one shard of the replicated cluster.
//
// Each replica is a ServiceLink to its own copy of the same POI slice (an
// in-process LspService, or a TcpLink to a server holding the slice).
// Because the slice data is identical and the shard wire is deterministic,
// every replica computes the same ShardAnswer bytes for the same query;
// Call() may therefore fail over or hedge freely without changing a
// single answer bit.
//
// Call() hands the ladder to the set's one ResilientClient (its rules are
// in resilient_client.h) over a route built from the health monitor:
//   1. the routable replicas in preference order (lowest index first —
//      stable under flapping, see health.h), so the client's failover
//      and cross-replica hedges walk them in that order;
//   2. when *no* replica is routable, the one replica whose half-open
//      gate admits: the real query doubles as its probe (a down set's
//      fastest path back to serving);
//   3. only when all of that fails does the caller see an unanswered
//      outcome — the coordinator's degraded merge, the ladder's last
//      tier.
//
// Every query leg evaluates the `shard.replica.<shard>.<replica>`
// failpoint when its reply arrives, so chaos schedules can kill or slow
// any single replica while an injected delay holds only that leg; probes
// evaluate it too. Leg outcomes feed the health state machine.

#ifndef PPGNN_SERVICE_REPLICA_SET_H_
#define PPGNN_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <memory>
#include <vector>

#include "service/health.h"
#include "service/link.h"
#include "service/resilient_client.h"

namespace ppgnn {

struct ReplicaSetConfig {
  /// Retry/hedge/budget policy of the set's client; the seed is perturbed
  /// per shard.
  RetryPolicy link_policy;
  HealthConfig health;
  /// ProbeOnce budget per replica: a transport link dials or reuses a
  /// connection within it; an in-process link is always reachable.
  double probe_timeout_seconds = 0.25;
};

/// Per-replica ladder counters; ShardedLspService::Stats sums them.
struct ReplicaSetStats {
  struct Replica {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    uint64_t served = 0;        ///< legs whose answer won a call
    uint64_t failed_over = 0;   ///< wins by an attempt after failed ones
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
  /// Takes one link per replica (at least one), each reaching its own
  /// copy of shard `shard_index`'s slice.
  ReplicaSet(int shard_index,
             std::vector<std::unique_ptr<ServiceLink>> replicas,
             ReplicaSetConfig config);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Runs one shard query to a decisive outcome under the ladder; the
  /// request's deadline_seconds, when set, bounds the whole call.
  /// `link` in the outcome is a replica index. Thread-safe.
  ClientCallOutcome Call(ServiceRequest request);

  /// One probe pass: healthy/suspect replicas are probed directly; a
  /// down replica is probed only if its half-open gate admits. Called
  /// by the coordinator's background prober and by tests.
  void ProbeOnce();

  ReplicaSetStats Stats() const;
  HealthMonitor& health() { return health_; }
  int replicas() const { return static_cast<int>(replicas_.size()); }
  /// The replica's link as handed to the constructor.
  ServiceLink& link(int replica);

  /// Closes every replica link; once it returns, no leg's reply is still
  /// pending. Idempotent.
  void Shutdown();

 private:
  class Replica;

  HealthMonitor health_;
  const double probe_timeout_seconds_;
  /// Built after health_ (their replies and observers report to it).
  std::vector<std::unique_ptr<Replica>> replicas_;
  ResilientClient client_;
  // ppgnn: stat_counter(hedges_launched_)
  std::atomic<uint64_t> hedges_launched_{0};
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_REPLICA_SET_H_
