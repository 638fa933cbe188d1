#include "service/replica_set.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "core/wire.h"
#include "service/lsp_service.h"

namespace ppgnn {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

RetryPolicy ShardPolicy(RetryPolicy policy, int shard) {
  // Shard j keeps the single-link layout's seed + j, so jitter and key
  // streams stay independent across shards.
  policy.seed += static_cast<uint64_t>(shard);
  return policy;
}

}  // namespace

/// One replica as the set's client sees it: the replica's own link, with
/// its failpoint applied to every reply and every outcome reported to
/// health.
class ReplicaSet::Replica final : public ServiceLink {
 public:
  Replica(HealthMonitor& health, int shard, int index,
          std::unique_ptr<ServiceLink> link)
      : health_(health),
        index_(index),
        failpoint_("shard.replica." + std::to_string(shard) + "." +
                   std::to_string(index)),
        link_(std::move(link)) {}

  bool Submit(ServiceRequest request, Callback done) override {
    const Clock::time_point start = Clock::now();
    return link_->Submit(
        std::move(request),
        [this, start, done = std::move(done)](std::vector<uint8_t> frame) {
          // Checked on the reply, so an injected delay holds only this
          // leg, and slowness (not just death) reaches the health EWMA
          // and the client's hedge delay.
          const Status injected = FailpointCheck(failpoint_.c_str());
          if (!injected.ok()) {
            ErrorMessage error;
            error.code = WireErrorFromStatus(injected);
            error.detail = injected.ToString();
            frame = ResponseFrame::WrapError(error);
          }
          Report(frame, Seconds(Clock::now() - start));
          done(std::move(frame));
        });
  }
  void RecordClientRetry() override { link_->RecordClientRetry(); }
  void RecordClientHedge() override { link_->RecordClientHedge(); }
  Status Probe(double timeout_seconds) override {
    const Status injected = FailpointCheck(failpoint_.c_str());
    return injected.ok() ? link_->Probe(timeout_seconds) : injected;
  }
  void Close() override { link_->Close(); }

  ServiceLink& link() { return *link_; }

  // ppgnn: stat_counter(served, failed_over, hedge_won, leg_failures)
  // ppgnn: stat_counter(probes)
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed_over{0};
  std::atomic<uint64_t> hedge_won{0};
  std::atomic<uint64_t> leg_failures{0};
  std::atomic<uint64_t> probes{0};

 private:
  void Report(const std::vector<uint8_t>& frame, double latency) {
    Result<ResponseFrame> decoded = ResponseFrame::Decode(frame);
    if (decoded.ok() && !decoded.value().is_error) {
      health_.ReportSuccess(index_, latency);
      return;
    }
    leg_failures.fetch_add(1, std::memory_order_relaxed);
    // kMalformed is a verdict on *our* query, identical on every
    // replica — not a health signal.
    if (!decoded.ok() || decoded.value().error.code != WireError::kMalformed) {
      health_.ReportFailure(index_);
    }
  }

  HealthMonitor& health_;
  const int index_;
  const std::string failpoint_;
  const std::unique_ptr<ServiceLink> link_;
};

ReplicaSet::ReplicaSet(int shard_index,
                       std::vector<std::unique_ptr<ServiceLink>> replicas,
                       ReplicaSetConfig config)
    : health_(static_cast<int>(replicas.size()), config.health),
      probe_timeout_seconds_(config.probe_timeout_seconds),
      client_(ShardPolicy(config.link_policy, shard_index)) {
  replicas_.reserve(replicas.size());
  for (size_t r = 0; r < replicas.size(); ++r) {
    const int index = static_cast<int>(r);
    // A severed socket is a health signal even when no Call() is in
    // flight; links without transport state ignore the observer.
    replicas[r]->SetConnectivityObserver([this, index](bool up) {
      if (!up) health_.ReportFailure(index);
    });
    replicas_.push_back(std::make_unique<Replica>(
        health_, shard_index, index, std::move(replicas[r])));
  }
}

ReplicaSet::~ReplicaSet() { Shutdown(); }

void ReplicaSet::Shutdown() {
  for (auto& replica : replicas_) replica->Close();
}

ServiceLink& ReplicaSet::link(int replica) {
  return replicas_[static_cast<size_t>(replica)]->link();
}

ClientCallOutcome ReplicaSet::Call(ServiceRequest request) {
  std::vector<int> order = health_.PreferenceOrder();
  if (order.empty()) {
    for (int r = 0; r < replicas(); ++r) {
      if (health_.TryAdmitProbe(r)) {
        replicas_[static_cast<size_t>(r)]->probes.fetch_add(
            1, std::memory_order_relaxed);
        order.push_back(r);
        break;
      }
    }
  }
  std::vector<ServiceLink*> route;
  for (int r : order) route.push_back(replicas_[static_cast<size_t>(r)].get());
  ClientCallOutcome outcome = client_.Call(std::move(request), route);
  hedges_launched_.fetch_add(static_cast<uint64_t>(outcome.hedges),
                             std::memory_order_relaxed);
  if (outcome.answered) {
    outcome.link = order[static_cast<size_t>(outcome.link)];
    Replica& winner = *replicas_[static_cast<size_t>(outcome.link)];
    winner.served.fetch_add(1, std::memory_order_relaxed);
    if (outcome.hedge_won) {
      winner.hedge_won.fetch_add(1, std::memory_order_relaxed);
    } else if (outcome.attempts > 1) {
      winner.failed_over.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return outcome;
}

void ReplicaSet::ProbeOnce() {
  for (int r = 0; r < replicas(); ++r) {
    const ReplicaHealth state = health_.state(r);
    if (state == ReplicaHealth::kProbing) continue;  // probe in flight
    if (state == ReplicaHealth::kDown && !health_.TryAdmitProbe(r)) {
      continue;  // cooldown still running
    }
    Replica& replica = *replicas_[static_cast<size_t>(r)];
    replica.probes.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    if (replica.Probe(probe_timeout_seconds_).ok()) {
      health_.ReportSuccess(r, Seconds(Clock::now() - start));
    } else {
      health_.ReportFailure(r);
    }
  }
}

ReplicaSetStats ReplicaSet::Stats() const {
  ReplicaSetStats stats;
  stats.replicas.resize(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    ReplicaSetStats::Replica& out = stats.replicas[r];
    const Replica& in = *replicas_[r];
    const int index = static_cast<int>(r);
    out.health = health_.state(index);
    out.served = in.served.load(std::memory_order_relaxed);
    out.failed_over = in.failed_over.load(std::memory_order_relaxed);
    out.hedge_won = in.hedge_won.load(std::memory_order_relaxed);
    out.leg_failures = in.leg_failures.load(std::memory_order_relaxed);
    out.probes = in.probes.load(std::memory_order_relaxed);
    out.transitions = health_.transitions(index);
    out.ewma_latency_seconds = health_.ewma_latency_seconds(index);
  }
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ppgnn
