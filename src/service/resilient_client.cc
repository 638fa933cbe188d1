#include "service/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <thread>

namespace ppgnn {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Shared between Call() and the reply callbacks of its legs. Held by
/// shared_ptr so a losing leg's late callback lands safely even after
/// Call() has moved on or returned.
struct CallState {
  std::mutex mu;
  std::condition_variable cv;
  struct Reply {
    std::vector<uint8_t> frame;
    size_t link = 0;  ///< route index the leg went to
    bool from_hedge = false;
  };
  // ppgnn: guarded_by(replies, mu)
  std::vector<Reply> replies;
  // ppgnn: guarded_by(outstanding, mu)
  int outstanding = 0;
};

/// Floor on the deadline a leg carries: a non-positive one would read as
/// "no deadline", and the TCP envelope counts whole milliseconds.
constexpr double kMinLegDeadlineSeconds = 0.001;

}  // namespace

std::string ClientStats::ToString() const {
  char buf[448];
  std::snprintf(
      buf, sizeof(buf),
      "calls=%llu attempts=%llu retries=%llu hedges=%llu hedge_wins=%llu "
      "answers=%llu terminal=%llu budget_exhausted=%llu garbage=%llu "
      "retry_after_honored=%llu",
      static_cast<unsigned long long>(calls),
      static_cast<unsigned long long>(attempts),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(hedges),
      static_cast<unsigned long long>(hedge_wins),
      static_cast<unsigned long long>(answers),
      static_cast<unsigned long long>(terminal_errors),
      static_cast<unsigned long long>(budget_exhausted),
      static_cast<unsigned long long>(transport_garbage),
      static_cast<unsigned long long>(retry_after_honored));
  return buf;
}

ResilientClient::ResilientClient(ServiceLink& service, RetryPolicy policy)
    // ppgnn-lint: allow(guarded-by): constructor has exclusive access
    : service_(&service), policy_(std::move(policy)), rng_(policy_.seed) {}

ResilientClient::ResilientClient(RetryPolicy policy)
    // ppgnn-lint: allow(guarded-by): constructor has exclusive access
    : service_(nullptr), policy_(std::move(policy)), rng_(policy_.seed) {}

bool ResilientClient::IsRetryable(WireError code) {
  // kShuttingDown is a clean pre-admission rejection: a resend (to a
  // replacement replica, or after the drain's retry_after_ms) can win.
  return code == WireError::kOverloaded ||
         code == WireError::kDeadlineExceeded ||
         code == WireError::kShuttingDown;
}

double ResilientClient::BackoffSeconds(int completed_attempts) {
  double base = policy_.initial_backoff_seconds *
                std::pow(policy_.backoff_multiplier,
                         std::max(completed_attempts - 1, 0));
  base = std::min(base, policy_.max_backoff_seconds);
  double jitter = 0.0;
  if (policy_.jitter_fraction > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    jitter = policy_.jitter_fraction * (2.0 * rng_.NextDouble() - 1.0);
  }
  return std::max(base * (1.0 + jitter), 0.0);
}

uint64_t ResilientClient::NextIdempotencyKey() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t key = 0;
  while (key == 0) key = rng_.NextUint64();  // 0 means "untagged" on the wire
  return key;
}

ClientCallOutcome ResilientClient::Call(ServiceRequest request) {
  return Run(std::move(request), {service_}, /*same_link_hedge=*/true);
}

ClientCallOutcome ResilientClient::Call(
    ServiceRequest request, const std::vector<ServiceLink*>& route) {
  return Run(std::move(request), route, /*same_link_hedge=*/false);
}

ClientCallOutcome ResilientClient::Run(ServiceRequest request,
                                       const std::vector<ServiceLink*>& route,
                                       bool same_link_hedge) {
  const Clock::time_point start = Clock::now();
  double budget = policy_.total_budget_seconds;
  if (request.deadline_seconds > 0 &&
      (budget <= 0 || request.deadline_seconds < budget)) {
    budget = request.deadline_seconds;
  }
  const Clock::time_point budget_deadline =
      budget > 0 ? start + FromSeconds(budget) : Clock::time_point::max();

  ClientCallOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.calls++;
  }
  // One key per logical call: every leg below carries it, so the server
  // coalesces duplicates instead of re-running the pipeline.
  if (policy_.tag_idempotency && request.idempotency_key == 0) {
    request.idempotency_key = NextIdempotencyKey();
  }

  // The most recent structured (decodable) error frame, so a failed call
  // still hands the caller something a ResponseFrame::Decode understands.
  std::vector<uint8_t> last_error_frame;
  ErrorMessage last_error;
  bool saw_garbage = false;
  bool budget_hit = false;
  bool internal_seen = false;

  // Failover must reach every link, whatever the attempt bound.
  const size_t links = route.size();
  const int max_attempts =
      links == 0 ? 0 : std::max(policy_.max_attempts, static_cast<int>(links));
  const bool may_hedge = policy_.hedge && (links > 1 || same_link_hedge);
  std::vector<bool> tried(links, false);
  size_t legs = 0;  // leg i goes to route[i % links]

  auto state = std::make_shared<CallState>();
  auto submit = [&](bool from_hedge) {
    const size_t link = legs++ % links;
    tried[link] = true;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->outstanding++;
    }
    ServiceRequest copy = request;
    if (budget_deadline != Clock::time_point::max()) {
      copy.deadline_seconds =
          std::max(Seconds(budget_deadline - Clock::now()),
                   kMinLegDeadlineSeconds);
    }
    const Clock::time_point submitted = Clock::now();
    // Submit may run the callback inline (queue-full reject), so no
    // locks of ours are held here; a reject still surfaces through
    // the callback's error frame, so the bool is redundant.
    (void)route[link]->Submit(
        std::move(copy), [this, state, link, from_hedge,
                          submitted](std::vector<uint8_t> frame) {
          attempt_latency_.Record(Seconds(Clock::now() - submitted));
          std::lock_guard<std::mutex> lock(state->mu);
          state->replies.push_back({std::move(frame), link, from_hedge});
          state->outstanding--;
          state->cv.notify_all();
        });
  };

  size_t consumed = 0;
  while (outcome.attempts < max_attempts) {
    const Clock::time_point attempt_start = Clock::now();
    if (attempt_start >= budget_deadline) {
      budget_hit = true;
      break;
    }
    outcome.attempts++;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.attempts++;
    }
    submit(/*from_hedge=*/false);

    const Clock::time_point hedge_at =
        may_hedge ? attempt_start + FromSeconds(HedgeDelaySeconds(
                                        attempt_latency_,
                                        policy_.hedge_delay_seconds))
                  : Clock::time_point::max();
    bool hedged = false;
    bool terminal = false;
    uint64_t round_retry_after_ms = 0;

    std::unique_lock<std::mutex> lock(state->mu);
    for (;;) {
      // Evaluate any replies that arrived since the last look.
      for (; consumed < state->replies.size() && !outcome.answered &&
             !terminal;
           ++consumed) {
        CallState::Reply& reply = state->replies[consumed];
        Result<ResponseFrame> decoded = ResponseFrame::Decode(reply.frame);
        if (!decoded.ok()) {
          // Transport garbage (e.g. an injected corrupt frame): the
          // reply is unusable but the failure class is transient.
          saw_garbage = true;
          std::lock_guard<std::mutex> slock(mu_);
          stats_.transport_garbage++;
          continue;
        }
        if (!decoded.value().is_error) {
          outcome.frame = std::move(reply.frame);
          outcome.answered = true;
          outcome.hedge_won = reply.from_hedge;
          outcome.link = static_cast<int>(reply.link);
          continue;
        }
        last_error = decoded.value().error;
        last_error_frame = std::move(reply.frame);
        if (last_error.code == WireError::kInternal && links > 1) {
          internal_seen = true;  // one replica's verdict, not the call's
        } else if (!IsRetryable(last_error.code)) {
          terminal = true;
        } else if (last_error.code == WireError::kOverloaded &&
                   last_error.retry_after_ms > 0) {
          round_retry_after_ms = last_error.retry_after_ms;
        }
      }
      // Decided, or every leg of the round failed.
      if (outcome.answered || terminal || state->outstanding == 0) break;
      if (Clock::now() >= budget_deadline) {
        // Abandon the outstanding legs: their late replies only touch
        // `state`, which outlives us via the shared_ptr in the callback.
        budget_hit = true;
        break;
      }
      const bool hedge_pending = may_hedge && !hedged;
      const Clock::time_point wake =
          hedge_pending ? std::min(budget_deadline, hedge_at) : budget_deadline;
      const size_t seen = state->replies.size();
      const auto arrived = [&state, seen] {
        return state->replies.size() > seen;
      };
      if (wake == Clock::time_point::max()) {
        state->cv.wait(lock, arrived);
      } else {
        state->cv.wait_until(lock, wake, arrived);
      }
      // Only the attempt is in flight before the hedge, so a reply would
      // have left nothing outstanding.
      if (hedge_pending && state->outstanding > 0 &&
          Clock::now() >= hedge_at) {
        hedged = true;
        outcome.hedges++;
        {
          std::lock_guard<std::mutex> slock(mu_);
          stats_.hedges++;
        }
        lock.unlock();
        route[legs % links]->RecordClientHedge();
        submit(/*from_hedge=*/true);
        lock.lock();
      }
    }
    lock.unlock();

    if (outcome.answered) {
      if (outcome.hedge_won) {
        std::lock_guard<std::mutex> slock(mu_);
        stats_.hedge_wins++;
      }
      break;
    }
    if (terminal || budget_hit || outcome.attempts >= max_attempts) break;
    if (internal_seen &&
        std::find(tried.begin(), tried.end(), false) == tried.end()) {
      break;  // every link has given its verdict
    }

    // Every leg of the round failed with attempts to spare. A link not
    // yet tried goes at once; a link that already failed gets a backoff,
    // and a server retry_after_ms hint replaces the exponential schedule
    // (jitter still applies so hinted clients don't stampede in sync).
    double backoff = 0.0;
    if (tried[legs % links]) {
      backoff = BackoffSeconds(outcome.attempts);
      if (round_retry_after_ms > 0) {
        double jitter = 0.0;
        if (policy_.jitter_fraction > 0) {
          std::lock_guard<std::mutex> slock(mu_);
          jitter = policy_.jitter_fraction * (2.0 * rng_.NextDouble() - 1.0);
        }
        backoff = std::max(static_cast<double>(round_retry_after_ms) /
                               1000.0 * (1.0 + jitter),
                           0.0);
        std::lock_guard<std::mutex> slock(mu_);
        stats_.retry_after_honored++;
      }
      // Capped against the remaining budget: never sleep past the point
      // where no further attempt could run.
      if (budget_deadline != Clock::time_point::max() &&
          Clock::now() + FromSeconds(backoff) >= budget_deadline) {
        budget_hit = true;
        break;
      }
    }
    {
      std::lock_guard<std::mutex> slock(mu_);
      stats_.retries++;
    }
    route[legs % links]->RecordClientRetry();
    if (backoff > 0) std::this_thread::sleep_for(FromSeconds(backoff));
  }

  outcome.elapsed_seconds = Seconds(Clock::now() - start);

  std::lock_guard<std::mutex> slock(mu_);
  if (outcome.answered) {
    stats_.answers++;
    return outcome;
  }
  if (!last_error_frame.empty() && !IsRetryable(last_error.code)) {
    stats_.terminal_errors++;
  } else if (budget_hit) {
    stats_.budget_exhausted++;
  }
  if (last_error_frame.empty()) {
    // Every reply (if any) was transport garbage, or the budget died
    // before the first reply: synthesize a structured error so the
    // caller still gets a decodable frame.
    last_error.code = budget_hit ? WireError::kDeadlineExceeded
                                 : WireError::kInternal;
    last_error.detail = budget_hit
                            ? "resilient client: retry budget exhausted"
                            : (saw_garbage
                                   ? "resilient client: reply corrupted"
                                   : "resilient client: no reply");
    last_error_frame = ResponseFrame::WrapError(last_error);
  }
  outcome.frame = std::move(last_error_frame);
  outcome.error = std::move(last_error);
  return outcome;
}

ClientStats ResilientClient::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ppgnn
