#include "service/replica_set.h"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "common/failpoint.h"

namespace ppgnn {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Shared between Call() and its leg threads so a loser leg can outlive
/// the call (parked as a straggler) without dangling references.
struct LegSlot {
  int replica = -1;
  bool done = false;
  ClientCallOutcome out;
};

struct CallState {
  std::mutex mu;
  std::condition_variable cv;
  LegSlot primary;
  LegSlot hedge;
};

}  // namespace

ReplicaSet::ReplicaSet(int shard_index, std::vector<Poi> slice,
                       ReplicaSetConfig config)
    : shard_index_(shard_index),
      config_(std::move(config)),
      counters_(static_cast<size_t>(std::max(config_.replicas, 1))) {
  const int replicas = std::max(config_.replicas, 1);
  health_ = std::make_unique<HealthMonitor>(replicas, config_.health);
  failpoints_.reserve(static_cast<size_t>(replicas));
  dbs_.reserve(static_cast<size_t>(replicas));
  services_.reserve(static_cast<size_t>(replicas));
  links_.reserve(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    failpoints_.push_back("shard.replica." + std::to_string(shard_index_) +
                          "." + std::to_string(r));
    RetryPolicy policy = config_.link_policy;
    // Replica 0's stream matches the PR 7 single-link layout (seed + j);
    // further replicas jump far enough that streams never collide.
    policy.seed += static_cast<uint64_t>(shard_index_) +
                   static_cast<uint64_t>(r) * 1000003ULL;
    if (config_.link_factory) {
      // Remote mode: the replica lives behind a caller-built link (a
      // TcpLink dialing its TcpShardServer). Down-edges from the link's
      // own exchanges demote the replica in the health monitor even when
      // no Call() is in flight — a severed socket is a health signal.
      remote_links_.push_back(config_.link_factory(shard_index_, r));
      remote_links_.back()->SetConnectivityObserver([this, r](bool up) {
        if (!up) health_->ReportFailure(r);
      });
      links_.push_back(
          std::make_unique<ResilientClient>(*remote_links_.back(), policy));
      continue;
    }
    // Each replica owns a full copy of the slice: replicas share no
    // state, so one replica's failure mode cannot leak into another.
    dbs_.push_back(std::make_unique<LspDatabase>(slice));
    services_.push_back(
        std::make_unique<LspService>(*dbs_.back(), config_.service));
    links_.push_back(
        std::make_unique<ResilientClient>(*services_.back(), policy));
  }
}

ReplicaSet::~ReplicaSet() { Shutdown(); }

void ReplicaSet::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(stragglers_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Stopping the services first unblocks any straggler leg still waiting
  // on a reply; only then is joining them bounded. Remote links are
  // Close()d for the same reason — and because Close joins the link's
  // worker threads, no connectivity observer can touch health_ after
  // this point.
  for (auto& service : services_) service->Shutdown();
  for (auto& link : remote_links_) link->Close();
  std::vector<std::thread> stragglers;
  {
    std::lock_guard<std::mutex> lock(stragglers_mu_);
    stragglers.swap(stragglers_);
  }
  for (std::thread& thread : stragglers) {
    if (thread.joinable()) thread.join();
  }
}

void ReplicaSet::ParkStraggler(std::thread thread) {
  if (!thread.joinable()) return;
  std::lock_guard<std::mutex> lock(stragglers_mu_);
  if (shut_down_) {
    // Shutdown already swept the list; the services are stopping, so the
    // leg resolves promptly and an inline join stays bounded.
    thread.join();
    return;
  }
  stragglers_.push_back(std::move(thread));
}

ClientCallOutcome ReplicaSet::CallLeg(int replica,
                                      const ServiceRequest& request,
                                      double remaining_seconds) {
  const Clock::time_point leg_start = Clock::now();
  ClientCallOutcome out;
  // The per-replica failpoint models this one replica being dead or slow;
  // an injected delay still falls through to the real call so slowness
  // (not just death) flows into the health EWMA and hedging.
  const Status injected =
      FailpointCheck(failpoints_[static_cast<size_t>(replica)].c_str());
  if (!injected.ok()) {
    out.error.code = WireErrorFromStatus(injected);
    out.error.detail = injected.ToString();
  } else {
    ServiceRequest leg = request;
    leg.deadline_seconds = remaining_seconds;
    out = links_[static_cast<size_t>(replica)]->Call(std::move(leg));
  }
  const double latency = Seconds(Clock::now() - leg_start);
  if (out.answered) {
    leg_latency_.Record(latency);
    health_->ReportSuccess(replica, latency);
  } else {
    counters_[static_cast<size_t>(replica)].leg_failures.fetch_add(
        1, std::memory_order_relaxed);
    // kMalformed is a verdict on *our* query, identical on every
    // replica — not a health signal.
    if (out.error.code != WireError::kMalformed) {
      health_->ReportFailure(replica);
    }
  }
  return out;
}

ReplicaCallOutcome ReplicaSet::Call(const ServiceRequest& request,
                                    double budget_seconds) {
  const Clock::time_point start = Clock::now();
  const auto remaining = [&]() -> double {
    return budget_seconds - Seconds(Clock::now() - start);
  };
  const auto out_of_budget = [&]() {
    return budget_seconds > 0.0 && remaining() <= 0.0;
  };

  std::vector<int> order = health_->PreferenceOrder();
  bool probe_carried = false;
  if (order.empty()) {
    // Ladder tier 4: the whole set looks down. If any replica's
    // half-open gate admits, the real query doubles as the probe — the
    // fastest path from "down" back to "serving".
    for (int r = 0; r < replicas(); ++r) {
      if (health_->TryAdmitProbe(r)) {
        counters_[static_cast<size_t>(r)].probes.fetch_add(
            1, std::memory_order_relaxed);
        order.push_back(r);
        probe_carried = true;
        break;
      }
    }
  }

  ReplicaCallOutcome outcome;
  outcome.error.code = WireError::kOverloaded;
  outcome.error.detail = "replica set: no routable replica";
  if (order.empty()) return outcome;

  size_t next = 0;
  const int primary = order[next++];
  auto state = std::make_shared<CallState>();
  state->primary.replica = primary;
  const double primary_budget =
      budget_seconds > 0.0 ? std::max(remaining(), 0.001) : 0.0;
  std::thread primary_thread(
      [this, state, request, primary, primary_budget]() {
        ClientCallOutcome out = CallLeg(primary, request, primary_budget);
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->primary.out = std::move(out);
          state->primary.done = true;
        }
        state->cv.notify_all();
      });
  outcome.legs++;

  // Hedge: when the primary is silent past the p99-derived delay, race
  // one identical leg against the next-preferred replica. A probe-
  // carried call never hedges — half-open admits exactly one leg.
  bool hedged = false;
  if (config_.hedge && !probe_carried && next < order.size()) {
    double delay =
        HedgeDelaySeconds(leg_latency_, config_.hedge_delay_seconds);
    if (budget_seconds > 0.0) delay = std::min(delay, std::max(remaining(), 0.0));
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_for(lock, std::chrono::duration<double>(delay),
                       [&] { return state->primary.done; });
    hedged = !state->primary.done;
  }
  std::thread hedge_thread;
  int hedge_replica = -1;
  if (hedged) {
    hedge_replica = order[next++];
    state->hedge.replica = hedge_replica;
    hedges_launched_.fetch_add(1, std::memory_order_relaxed);
    const double hedge_budget =
        budget_seconds > 0.0 ? std::max(remaining(), 0.001) : 0.0;
    hedge_thread = std::thread(
        [this, state, request, hedge_replica, hedge_budget]() {
          ClientCallOutcome out = CallLeg(hedge_replica, request, hedge_budget);
          {
            std::lock_guard<std::mutex> lock(state->mu);
            state->hedge.out = std::move(out);
            state->hedge.done = true;
          }
          state->cv.notify_all();
        });
    outcome.legs++;
  }

  // First decisive answer wins; identical slices + a deterministic wire
  // make the winning frame byte-identical no matter which leg it is.
  int winner = -1;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      if (state->primary.done && state->primary.out.answered) return true;
      if (hedged && state->hedge.done && state->hedge.out.answered)
        return true;
      return state->primary.done && (!hedged || state->hedge.done);
    });
    if (state->primary.done && state->primary.out.answered) {
      winner = primary;
      outcome.frame = state->primary.out.frame;
    } else if (hedged && state->hedge.done && state->hedge.out.answered) {
      winner = hedge_replica;
      outcome.frame = state->hedge.out.frame;
      if (state->primary.done) {
        // The primary had already failed: the hedge acted as failover.
        outcome.failed_over = true;
      } else {
        outcome.hedge_won = true;
      }
    } else {
      outcome.error = state->primary.out.error;
      if (hedged && state->hedge.out.error.code != WireError::kMalformed &&
          state->primary.out.error.code == WireError::kMalformed) {
        outcome.error = state->hedge.out.error;
      }
    }
  }
  if (winner == primary && primary_thread.joinable()) primary_thread.join();
  if (winner >= 0) {
    if (winner == primary) {
      ParkStraggler(std::move(hedge_thread));
    } else {
      if (hedge_thread.joinable()) hedge_thread.join();
      ParkStraggler(std::move(primary_thread));
    }
    outcome.answered = true;
    outcome.served_by = winner;
    LegCounters& c = counters_[static_cast<size_t>(winner)];
    c.served.fetch_add(1, std::memory_order_relaxed);
    if (outcome.failed_over)
      c.failed_over.fetch_add(1, std::memory_order_relaxed);
    if (outcome.hedge_won) c.hedge_won.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  // Both first-wave legs are done and unanswered.
  if (primary_thread.joinable()) primary_thread.join();
  if (hedge_thread.joinable()) hedge_thread.join();

  // Terminal verdicts are identical on every replica: failing over a
  // malformed query only repeats the rejection.
  if (outcome.error.code == WireError::kMalformed) return outcome;

  // Ladder tier 3: sequential failover across the remaining routable
  // replicas while the budget lasts.
  for (; next < order.size(); ++next) {
    if (out_of_budget()) {
      outcome.error.code = WireError::kDeadlineExceeded;
      outcome.error.detail = "replica set: budget exhausted during failover";
      break;
    }
    const int r = order[next];
    ClientCallOutcome out =
        CallLeg(r, request, budget_seconds > 0.0 ? remaining() : 0.0);
    outcome.legs++;
    if (out.answered) {
      outcome.answered = true;
      outcome.served_by = r;
      outcome.failed_over = true;
      outcome.frame = std::move(out.frame);
      LegCounters& c = counters_[static_cast<size_t>(r)];
      c.served.fetch_add(1, std::memory_order_relaxed);
      c.failed_over.fetch_add(1, std::memory_order_relaxed);
      return outcome;
    }
    outcome.error = out.error;
    if (outcome.error.code == WireError::kMalformed) break;
  }
  return outcome;
}

void ReplicaSet::ProbeOnce() {
  for (int r = 0; r < replicas(); ++r) {
    const ReplicaHealth state = health_->state(r);
    if (state == ReplicaHealth::kProbing) continue;  // probe in flight
    if (state == ReplicaHealth::kDown && !health_->TryAdmitProbe(r)) {
      continue;  // cooldown still running
    }
    counters_[static_cast<size_t>(r)].probes.fetch_add(
        1, std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    Status status = FailpointCheck(failpoints_[static_cast<size_t>(r)].c_str());
    // Remote replicas get a real reachability check: the link reuses a
    // pooled connection or dials. In-process replicas have no transport
    // to probe — the failpoint verdict is the whole check.
    if (status.ok() && !remote_links_.empty()) {
      status = remote_links_[static_cast<size_t>(r)]->Probe(
          config_.probe_timeout_seconds);
    }
    const double latency = Seconds(Clock::now() - start);
    if (status.ok()) {
      health_->ReportSuccess(r, latency);
    } else {
      health_->ReportFailure(r);
    }
  }
}

ReplicaSetStats ReplicaSet::Stats() const {
  ReplicaSetStats stats;
  stats.replicas.resize(counters_.size());
  for (size_t r = 0; r < counters_.size(); ++r) {
    ReplicaSetStats::Replica& out = stats.replicas[r];
    const LegCounters& c = counters_[r];
    out.health = health_->state(static_cast<int>(r));
    out.served = c.served.load(std::memory_order_relaxed);
    out.failed_over = c.failed_over.load(std::memory_order_relaxed);
    out.hedge_won = c.hedge_won.load(std::memory_order_relaxed);
    out.leg_failures = c.leg_failures.load(std::memory_order_relaxed);
    out.probes = c.probes.load(std::memory_order_relaxed);
    out.transitions = health_->transitions(static_cast<int>(r));
    out.ewma_latency_seconds =
        health_->ewma_latency_seconds(static_cast<int>(r));
  }
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ppgnn
