#include "service/lsp_service.h"

#include <algorithm>
#include <future>

#include "common/failpoint.h"

namespace ppgnn {
namespace {

void MergeInstrumentation(QueryInstrumentation& into,
                          const QueryInstrumentation& from) {
  into.delta_prime += from.delta_prime;
  into.omega += from.omega;
  into.answer_width_m += from.answer_width_m;
  into.pois_returned += from.pois_returned;
  into.sanitize_samples += from.sanitize_samples;
  into.sanitize_tests += from.sanitize_tests;
  into.sanitize_seconds += from.sanitize_seconds;
  into.lsp_parallel_seconds += from.lsp_parallel_seconds;
  into.degraded_users += from.degraded_users;
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

std::string ServiceStats::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "accepted=%llu rejected=%llu (shed=%llu) served=%llu failed=%llu "
      "deadline_expired=%llu (queue=%llu exec=%llu) queued=%zu "
      "dedup[join=%llu replay=%llu purged=%llu] "
      "retries=%llu hedges=%llu degraded=%llu degraded_shards=%llu "
      "ladder[exact=%llu failover=%llu hedge_won=%llu transitions=%llu] "
      "drain_flushed=%llu "
      "errors[malformed=%llu overloaded=%llu "
      "deadline=%llu internal=%llu shutting_down=%llu]",
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(expired_in_queue),
      static_cast<unsigned long long>(abandoned_executing), queue_depth,
      static_cast<unsigned long long>(dedup_joins),
      static_cast<unsigned long long>(dedup_replays),
      static_cast<unsigned long long>(dedup_purged),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(hedges),
      static_cast<unsigned long long>(degraded_queries),
      static_cast<unsigned long long>(degraded_shards),
      static_cast<unsigned long long>(exact_despite_failures),
      static_cast<unsigned long long>(replica_failovers),
      static_cast<unsigned long long>(replica_hedge_wins),
      static_cast<unsigned long long>(health_transitions),
      static_cast<unsigned long long>(drain_flushed),
      static_cast<unsigned long long>(error_replies[0]),
      static_cast<unsigned long long>(error_replies[1]),
      static_cast<unsigned long long>(error_replies[2]),
      static_cast<unsigned long long>(error_replies[3]),
      static_cast<unsigned long long>(error_replies[4]));
  return std::string(buf) + " | e2e " + latency.ToString() +
         " | wait " + queue_wait.ToString() + " | exec " + execute.ToString();
}

LspService::LspService(Handler handler, ServiceConfig config)
    : handler_(std::move(handler)),
      config_(std::move(config)),
      reply_cache_({.grace_seconds = config_.reply_cache_grace_seconds}) {
  const int workers = std::max(config_.workers, 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

LspService::LspService(const LspDatabase& db, ServiceConfig config)
    : LspService(Handler{}, std::move(config)) {
  // Assigned after delegation (the workers only read handler_ once a
  // request has passed through Submit's lock, so this is race-free): the
  // default handler dispatches on the wire shape — plaintext shard
  // queries skip the crypto pipeline entirely.
  const LspDatabase* database = &db;
  handler_ = [this, database](const ServiceRequest& request,
                              const HandlerContext& ctx) {
    if (IsShardQuery(request.query)) {
      return LspHandleShardQuery(*database, request.query, ctx.info,
                                 ctx.deadline);
    }
    return LspHandleQuery(*database, request.query, request.uploads,
                          config_.test_config, config_.sanitize,
                          config_.lsp_threads, ctx.info, ctx.deadline);
  };
}

LspService::~LspService() { Shutdown(); }

LspService::Callback LspService::MakeLeg(Clock::time_point admitted,
                                         Callback done) {
  return [this, admitted, done = std::move(done)](std::vector<uint8_t> frame) {
    // Same delivery path as a primary Reply: per-leg transport
    // corruption, per-leg end-to-end latency.
    FailpointCorrupt("service.reply", frame);
    latency_.Record(Seconds(Clock::now() - admitted));
    done(std::move(frame));
  };
}

bool LspService::Submit(ServiceRequest request, Callback done) {
  const Clock::time_point now = Clock::now();
  double budget = request.deadline_seconds > 0
                      ? request.deadline_seconds
                      : config_.default_deadline_seconds;
  uint64_t dedup_key = request.idempotency_key;

  PendingRequest pending;
  pending.admitted = now;
  // Admission reads only the public wire header — the deadline and
  // idempotency trailer plus the cost features — without decoding any
  // ciphertext. A failed peek is NOT rejected here: the request flows
  // through so the worker's full decode produces the usual kMalformed
  // reply (and admission simply runs without cost information).
  if (Result<QueryWireHeader> header = PeekQueryHeader(request.query);
      header.ok()) {
    // Shard queries are plaintext: the crypto-calibrated cost model would
    // wildly over-price them, so they ride through without features. The
    // deadline/idempotency trailer still applies.
    if (!header.value().is_shard) {
      pending.features = CostFeatures::FromHeader(header.value());
      pending.has_features = true;
    }
    if (dedup_key == 0) dedup_key = header.value().idempotency_key;
    if (header.value().deadline_ms > 0) {
      const double wire_budget =
          static_cast<double>(header.value().deadline_ms) / 1000.0;
      budget = budget > 0 ? std::min(budget, wire_budget) : wire_budget;
    }
  }
  pending.deadline =
      budget > 0 ? now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(budget))
                 : kNoDeadline;
  pending.request = std::move(request);

  // Dedup routing first: joining an in-flight duplicate or replaying a
  // cached answer costs (nearly) nothing, so it happens even when a
  // fresh request would be shed.
  if (dedup_key != 0) {
    ReplyCache::AdmitResult routed = reply_cache_.AdmitOrAttach(
        dedup_key, MakeLeg(now, done), pending.deadline);
    if (!routed.expired_waiters.empty()) {
      // Waiters of abandoned primaries (deadline + grace long past with
      // no Complete/Abort) purged during this admission: each is owed a
      // terminal deadline reply — without the purge they would hang as
      // "joined" to an execution that will never finish.
      dedup_purged_.fetch_add(routed.expired_waiters.size(),
                              std::memory_order_relaxed);
      std::vector<uint8_t> expired_frame =
          MakeErrorFrame(WireError::kDeadlineExceeded,
                         "lsp service: joined primary abandoned");
      for (ReplyCache::Waiter& waiter : routed.expired_waiters) {
        waiter(expired_frame);
      }
    }
    if (routed.admission == ReplyCache::Admission::kReplayed) {
      dedup_replays_.fetch_add(1, std::memory_order_relaxed);
      MakeLeg(now, std::move(done))(std::move(routed.frame));
      return true;
    }
    if (routed.admission == ReplyCache::Admission::kJoined) {
      dedup_joins_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    pending.cache_key = dedup_key;
    pending.cache_generation = routed.generation;
  }

  // "service.admit" simulates admission-control pressure: a fired drop
  // rejects the request exactly as a full queue would.
  const bool inject_reject = FailpointDrop("service.admit");

  // Cost-aware shedding: if the predicted execute time already exceeds
  // the whole budget, the only possible outcome of admission would be a
  // kDeadlineExceeded reply *after* burning crypto on it. Reject now,
  // before any crypto, and tell the client how far off it was.
  if (!inject_reject && pending.has_features && budget > 0) {
    const double predicted = cost_model_.PredictSeconds(pending.features);
    if (predicted > budget) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      std::vector<uint8_t> frame = MakeErrorFrame(
          WireError::kOverloaded,
          "lsp service: predicted cost exceeds request budget",
          RetryAfterHintMs(predicted - budget));
      if (pending.cache_key != 0) {
        AbortPrimary(pending.cache_key, pending.cache_generation, frame);
      }
      latency_.Record(Seconds(Clock::now() - now));
      done(std::move(frame));
      return false;
    }
  }

  bool shutting_down = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!inject_reject && !stopping_ &&
        queue_.size() < config_.queue_capacity) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      pending.done = std::move(done);
      queue_.push_back(std::move(pending));
      queue_cv_.notify_one();
      return true;
    }
    shutting_down = stopping_;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  // A draining service is not "overloaded": the structured kShuttingDown
  // reply tells the client a resend elsewhere (or after the hint) can
  // win, where kOverloaded would mean "this instance, later".
  std::vector<uint8_t> frame =
      shutting_down && !inject_reject
          ? MakeErrorFrame(WireError::kShuttingDown,
                           "lsp service: shutting down",
                           RetryAfterHintMs(0.0))
          : MakeErrorFrame(WireError::kOverloaded,
                           "lsp service: request queue full",
                           RetryAfterHintMs(0.0));
  if (pending.cache_key != 0) {
    AbortPrimary(pending.cache_key, pending.cache_generation, frame);
  }
  latency_.Record(Seconds(Clock::now() - now));
  done(std::move(frame));
  return false;
}

std::vector<uint8_t> LspService::Call(ServiceRequest request) {
  std::promise<std::vector<uint8_t>> promise;
  std::future<std::vector<uint8_t>> future = promise.get_future();
  // A rejected submit still delivers the error frame via the callback,
  // so the accepted/rejected bool carries no extra information here.
  (void)Submit(std::move(request), [&promise](std::vector<uint8_t> frame) {
    promise.set_value(std::move(frame));
  });
  return future.get();
}

void LspService::Reply(PendingRequest& req, std::vector<uint8_t> frame) {
  // "service.reply" corrupts the encoded frame in flight; the client sees
  // a checksum mismatch, never a silently-wrong answer.
  FailpointCorrupt("service.reply", frame);
  latency_.Record(Seconds(Clock::now() - req.admitted));
  req.done(std::move(frame));
}

void LspService::Finish(PendingRequest& req, std::vector<uint8_t> frame,
                        bool cache_for_replay) {
  if (req.cache_key != 0) {
    // The cache keeps (and the joined legs receive) the pre-corruption
    // frame: transport faults are per-leg, never cached.
    std::vector<ReplyCache::Waiter> waiters = reply_cache_.Complete(
        req.cache_key, req.cache_generation, frame, cache_for_replay);
    for (ReplyCache::Waiter& waiter : waiters) waiter(frame);
  }
  Reply(req, std::move(frame));
}

void LspService::AbortPrimary(uint64_t cache_key, uint64_t cache_generation,
                              const std::vector<uint8_t>& frame) {
  std::vector<ReplyCache::Waiter> waiters =
      reply_cache_.Abort(cache_key, cache_generation);
  for (ReplyCache::Waiter& waiter : waiters) waiter(frame);
}

std::vector<uint8_t> LspService::MakeErrorFrame(WireError code,
                                                std::string detail,
                                                uint64_t retry_after_ms) {
  error_replies_[static_cast<size_t>(code)].fetch_add(
      1, std::memory_order_relaxed);
  ErrorMessage err;
  err.code = code;
  err.detail = std::move(detail);
  err.retry_after_ms = retry_after_ms;
  return ResponseFrame::WrapError(err);
}

uint64_t LspService::RetryAfterHintMs(double extra_seconds) {
  if (config_.retry_after_hint_ms > 0) return config_.retry_after_hint_ms;
  // Backlog drain estimate: queued requests times the observed mean
  // execute time, divided by the workers draining them. All public
  // metadata; before any execution has been observed the floor applies.
  const double mean_execute = execute_.Summarize().mean_seconds;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
  }
  const double drain = (static_cast<double>(depth) + 1.0) * mean_execute /
                       static_cast<double>(std::max(config_.workers, 1));
  const double hint = std::clamp(std::max(drain, extra_seconds), 0.010, 10.0);
  return static_cast<uint64_t>(hint * 1000.0);
}

void LspService::WorkerLoop() {
  for (;;) {
    PendingRequest req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      req = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }
    ProcessRequest(req);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
    }
    // Shutdown's bounded drain waits on queue_cv_ for executing_ == 0;
    // notify_all so that waiter is woken, not only an idle worker.
    queue_cv_.notify_all();
  }
}

void LspService::ProcessRequest(PendingRequest& req) {
  const Clock::time_point dequeued = Clock::now();
  queue_wait_.Record(Seconds(dequeued - req.admitted));

  // Queued past its budget: answer without executing at all.
  if (dequeued >= req.deadline) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    Finish(req,
           MakeErrorFrame(WireError::kDeadlineExceeded,
                          "lsp service: deadline expired in queue"),
           /*cache_for_replay=*/false);
    return;
  }

  // Second cost gate, now against the *remaining* budget: a query whose
  // queue wait ate its slack is abandoned here, before any crypto, so a
  // mid-execution abandonment only happens when the prediction itself
  // was wrong.
  if (req.has_features && req.deadline != kNoDeadline) {
    const double remaining = Seconds(req.deadline - dequeued);
    if (cost_model_.PredictSeconds(req.features) > remaining) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      Finish(req,
             MakeErrorFrame(
                 WireError::kDeadlineExceeded,
                 "lsp service: predicted cost exceeds remaining deadline"),
             /*cache_for_replay=*/false);
      return;
    }
  }

  if (config_.test_execute_hook) config_.test_execute_hook();

  QueryInstrumentation info;
  // "service.execute" stands in for a slow or failing worker: an
  // injected delay or error replaces/precedes the real execution. The
  // timer starts before the failpoint so injected slowness is measured,
  // and learned by the cost model, like real slowness would be.
  const Clock::time_point execute_start = Clock::now();
  const Status injected = FailpointCheck("service.execute");
  const bool executed = injected.ok();
  HandlerContext ctx;
  ctx.deadline = req.deadline;
  ctx.info = &info;
  Result<std::vector<uint8_t>> answer =
      executed ? handler_(req.request, ctx)
               : Result<std::vector<uint8_t>>(injected);
  const double execute_seconds = Seconds(Clock::now() - execute_start);

  if (executed) execute_.Record(execute_seconds);

  if (answer.ok()) {
    served_.fetch_add(1, std::memory_order_relaxed);
    // Only full, successful executions train the model: an abandoned
    // query's truncated duration would bias predictions down.
    if (executed && req.has_features) {
      cost_model_.Observe(req.features, execute_seconds);
    }
    if (req.request.degraded_users > 0) {
      degraded_queries_.fetch_add(1, std::memory_order_relaxed);
      info.degraded_users += req.request.degraded_users;
    }
    {
      std::lock_guard<std::mutex> lock(totals_mu_);
      MergeInstrumentation(totals_, info);
    }
    Finish(req, ResponseFrame::WrapAnswer(std::move(answer).value()),
           /*cache_for_replay=*/true);
  } else {
    const Status status = answer.status();
    const WireError code = WireErrorFromStatus(status);
    if (code == WireError::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      abandoned_executing_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    Finish(req, MakeErrorFrame(code, status.ToString()),
           /*cache_for_replay=*/false);
  }
}

ServiceStats LspService::Stats() const {
  ServiceStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.served = served_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.abandoned_executing =
      abandoned_executing_.load(std::memory_order_relaxed);
  stats.dedup_joins = dedup_joins_.load(std::memory_order_relaxed);
  stats.dedup_replays = dedup_replays_.load(std::memory_order_relaxed);
  stats.dedup_purged = dedup_purged_.load(std::memory_order_relaxed);
  stats.cost_observations = cost_model_.observations();
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  stats.drain_flushed = drain_flushed_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < error_replies_.size(); ++i) {
    stats.error_replies[i] = error_replies_[i].load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
  }
  stats.latency = latency_.Summarize();
  stats.queue_wait = queue_wait_.Summarize();
  stats.execute = execute_.Summarize();
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    stats.totals = totals_;
  }
  return stats;
}

void LspService::Shutdown(double drain_deadline_seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (drain_deadline_seconds > 0.0) {
    // Bounded drain: give the workers until the deadline to empty the
    // queue, then flush whatever is left with kShuttingDown frames —
    // every accepted request still gets exactly one reply, just without
    // executing. Executing requests always run to completion (their own
    // deadlines bound them at the pipeline's checkpoints).
    std::vector<PendingRequest> flushed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const Clock::time_point drain_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 drain_deadline_seconds));
      queue_cv_.wait_until(lock, drain_deadline, [this] {
        return queue_.empty() && executing_ == 0;
      });
      while (!queue_.empty()) {
        flushed.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    for (PendingRequest& req : flushed) {
      drain_flushed_.fetch_add(1, std::memory_order_relaxed);
      Finish(req,
             MakeErrorFrame(WireError::kShuttingDown,
                            "lsp service: drain deadline reached",
                            static_cast<uint64_t>(
                                drain_deadline_seconds * 1000.0) +
                                1),
             /*cache_for_replay=*/false);
    }
    if (!flushed.empty()) queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace ppgnn
