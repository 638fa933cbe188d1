// The chaos tier: the full service loop (coordinator-built requests,
// LspService, ResilientClient) under scripted, deterministic fault
// schedules. The invariants, for every injected fault:
//
//   1. The call ends in a correct answer or a decodable structured
//      error — never a crash, a hang past the budget, or a silently
//      wrong answer.
//   2. Retries and hedges respect the call's total deadline budget.
//   3. A dropout-degraded query is byte-shape-identical on the wire to
//      a healthy one (same d, same delta', same message sizes).
//
// The probabilistic schedule seed comes from PPGNN_CHAOS_SEED when set
// (CI runs a small seed matrix); every schedule replays exactly for a
// given seed.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/partition.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "service/lsp_service.h"
#include "service/resilient_client.h"
#include "service/shard_coordinator.h"
#include "service/workload.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("PPGNN_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new LspDatabase(GenerateSequoiaLike(3000, 777));
    Rng rng(778);
    keys_ = new KeyPair(GenerateKeyPair(256, rng).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete keys_;
  }
  void TearDown() override { FailpointClearAll(); }

  static ProtocolParams GroupParams() {
    ProtocolParams params;
    params.n = 3;
    params.d = 4;
    params.delta = 8;
    params.k = 3;
    params.key_bits = keys_->pub.key_bits;
    params.sanitize = false;
    return params;
  }

  static ServiceRequest WorkloadRequest(Rng& rng,
                                        std::vector<Point>* real = nullptr) {
    ProtocolParams params = GroupParams();
    std::vector<Point> group;
    for (int i = 0; i < params.n; ++i) {
      group.push_back({rng.NextDouble(), rng.NextDouble()});
    }
    if (real != nullptr) *real = group;
    return BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng)
        .value();
  }

  // Decodes an answer frame and checks it against the plaintext kGNN
  // reference for `real` (exact up to wire quantization).
  static void ExpectExactAnswer(const std::vector<uint8_t>& frame,
                                const std::vector<Point>& real) {
    Decryptor dec(keys_->pub, keys_->sec);
    ServedReply reply =
        ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
    ASSERT_TRUE(reply.ok) << reply.error.detail;
    auto expected = db_->solver().Query(real, GroupParams().k,
                                        AggregateKind::kSum);
    ASSERT_EQ(reply.pois.size(), expected.size());
    for (size_t i = 0; i < reply.pois.size(); ++i) {
      EXPECT_NEAR(reply.pois[i].x, expected[i].poi.location.x, 1e-8);
      EXPECT_NEAR(reply.pois[i].y, expected[i].poi.location.y, 1e-8);
    }
  }

  static LspDatabase* db_;
  static KeyPair* keys_;
};
LspDatabase* ChaosTest::db_ = nullptr;
KeyPair* ChaosTest::keys_ = nullptr;

// Invariant 3: a coordinator that lost a user substitutes a synthetic
// set; the LSP-visible bytes have the same shape as a healthy query.
TEST_F(ChaosTest, DropoutDegradedRequestIsWireShapeIdentical) {
  ServiceRequest healthy;
  {
    Rng rng(50);
    healthy = WorkloadRequest(rng);
  }
  ASSERT_EQ(healthy.degraded_users, 0u);

  ASSERT_TRUE(FailpointSetFromSpec("user.upload=drop,times=1").ok());
  ServiceRequest degraded;
  std::vector<Point> real;
  {
    Rng rng(50);  // same coordinator randomness, one user dropped
    degraded = WorkloadRequest(rng, &real);
  }
  FailpointClearAll();
  EXPECT_EQ(degraded.degraded_users, 1u);

  // Same query size, same upload count, same per-upload byte size: the
  // LSP (and any observer of the wire) cannot tell who dropped.
  EXPECT_EQ(degraded.query.size(), healthy.query.size());
  ASSERT_EQ(degraded.uploads.size(), healthy.uploads.size());
  for (size_t u = 0; u < healthy.uploads.size(); ++u) {
    EXPECT_EQ(degraded.uploads[u].size(), healthy.uploads[u].size())
        << "upload " << u;
  }

  // And the degraded query still serves end-to-end: delta' candidates,
  // k decodable POIs — just not necessarily the group-optimal ones.
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);
  std::vector<uint8_t> frame = service.Call(std::move(degraded));
  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
  ASSERT_TRUE(reply.ok) << reply.error.detail;
  EXPECT_EQ(reply.pois.size(), static_cast<size_t>(GroupParams().k));
  service.Shutdown();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.degraded_queries, 1u);
  EXPECT_EQ(stats.totals.degraded_users, 1u);
  EXPECT_EQ(stats.totals.delta_prime, 8u);
}

// Invariant 1 + retry classification: transient rejects are retried and
// the final answer is exactly correct.
TEST_F(ChaosTest, RetriesRecoverFromTransientOverload) {
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);

  ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop,times=2").ok());

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.001;
  ResilientClient client(service, policy);

  Rng rng(51);
  std::vector<Point> real;
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng, &real));
  ASSERT_TRUE(outcome.answered)
      << ResponseFrame::Decode(outcome.frame).value().error.detail;
  EXPECT_EQ(outcome.attempts, 3);  // two injected rejects, then success
  ExpectExactAnswer(outcome.frame, real);

  ClientStats cs = client.Stats();
  EXPECT_EQ(cs.retries, 2u);
  EXPECT_EQ(cs.answers, 1u);
  EXPECT_EQ(service.Stats().retries, 2u);
  service.Shutdown();
}

TEST_F(ChaosTest, TerminalErrorIsNotRetried) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  RetryPolicy policy;
  policy.max_attempts = 5;
  ResilientClient client(service, policy);

  ServiceRequest garbage;
  garbage.query = {0xDE, 0xAD};
  ClientCallOutcome outcome = client.Call(std::move(garbage));
  EXPECT_FALSE(outcome.answered);
  EXPECT_EQ(outcome.attempts, 1);  // malformed: resending cannot help
  EXPECT_EQ(outcome.error.code, WireError::kMalformed);
  ResponseFrame decoded = ResponseFrame::Decode(outcome.frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kMalformed);
  EXPECT_EQ(client.Stats().terminal_errors, 1u);

  // kInternal is one link's verdict, and a one-link route has no other:
  // the call ends on it, although a retry would have succeeded.
  Rng rng(65);
  ServiceRequest request = WorkloadRequest(rng);
  ASSERT_TRUE(FailpointSetFromSpec("lsp.candidate=error,times=1").ok());
  outcome = client.Call(std::move(request));
  EXPECT_FALSE(outcome.answered);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.error.code, WireError::kInternal);
  EXPECT_EQ(client.Stats().terminal_errors, 2u);
  service.Shutdown();
}

// Invariant 2: a persistently failing service cannot drag a call past
// its budget, and the caller still gets a structured error.
TEST_F(ChaosTest, RetriesRespectTheDeadlineBudget) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop").ok());

  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.total_budget_seconds = 0.25;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.05;
  ResilientClient client(service, policy);

  Rng rng(52);
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng));
  EXPECT_FALSE(outcome.answered);
  // Rejects are inline and instant; only backoffs consume time, and the
  // budget caps them. Generous slop for loaded CI machines.
  EXPECT_LE(outcome.elapsed_seconds, 0.25 + 0.2);
  EXPECT_GT(outcome.attempts, 1);
  ResponseFrame decoded = ResponseFrame::Decode(outcome.frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kOverloaded);
  EXPECT_EQ(client.Stats().budget_exhausted, 1u);
  service.Shutdown();
}

TEST_F(ChaosTest, HedgeWinsWhenPrimaryStalls) {
  ServiceConfig config;
  config.workers = 2;  // room for primary + hedge to run concurrently
  config.sanitize = false;
  LspService service(*db_, config);

  // Only the first execution stalls; the hedge runs clean.
  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:500,times=1").ok());

  RetryPolicy policy;
  policy.hedge = true;
  policy.hedge_delay_seconds = 0.03;
  // This test wants a genuine race: with idempotency tagging the hedge
  // would join the stalled primary (see HedgedDuplicateCoalesces below)
  // instead of executing independently and winning.
  policy.tag_idempotency = false;
  ResilientClient client(service, policy);

  Rng rng(53);
  std::vector<Point> real;
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng, &real));
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.hedges, 1);
  EXPECT_TRUE(outcome.hedge_won);
  ExpectExactAnswer(outcome.frame, real);
  ClientStats cs = client.Stats();
  EXPECT_EQ(cs.hedges, 1u);
  EXPECT_EQ(cs.hedge_wins, 1u);
  EXPECT_EQ(service.Stats().hedges, 1u);
  service.Shutdown();
}

// A corrupted reply is detectable garbage (frame CRC), classified as
// transient, and the retry recovers the exact answer.
TEST_F(ChaosTest, CorruptReplyIsRetriedAndRecovered) {
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);

  ASSERT_TRUE(FailpointSetFromSpec("service.reply=corrupt:3,times=1").ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.001;
  ResilientClient client(service, policy);

  Rng rng(54);
  std::vector<Point> real;
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng, &real));
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.attempts, 2);
  ExpectExactAnswer(outcome.frame, real);
  EXPECT_EQ(client.Stats().transport_garbage, 1u);
  service.Shutdown();
}

// Injected failures below the service layer (crypto, candidate loop)
// surface as structured internal errors, not crashes.
TEST_F(ChaosTest, LspLayerFaultsYieldStructuredErrors) {
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);
  RetryPolicy policy;
  policy.max_attempts = 1;
  ResilientClient client(service, policy);

  Rng rng(55);
  for (const char* spec :
       {"lsp.process=error:malformed,times=1", "lsp.candidate=error,times=1",
        "lsp.select=error:crypto,times=1"}) {
    // Build the (healthy) request before arming so the fault hits the
    // serving path, not the coordinator's own encryption.
    ServiceRequest request = WorkloadRequest(rng);
    ASSERT_TRUE(FailpointSetFromSpec(spec).ok()) << spec;
    ClientCallOutcome outcome = client.Call(std::move(request));
    EXPECT_FALSE(outcome.answered) << spec;
    ResponseFrame decoded = ResponseFrame::Decode(outcome.frame).value();
    ASSERT_TRUE(decoded.is_error) << spec;
    FailpointClearAll();
  }
  // With everything cleared the same client serves exactly again.
  std::vector<Point> real;
  ClientCallOutcome healthy = client.Call(WorkloadRequest(rng, &real));
  ASSERT_TRUE(healthy.answered);
  ExpectExactAnswer(healthy.frame, real);
  service.Shutdown();
}

// Crypto-layer failpoints surface as clean Results at the Paillier entry
// points (the coordinator side of the protocol).
TEST_F(ChaosTest, PaillierFailpointsReturnCleanErrors) {
  Rng rng(56);
  Encryptor enc(keys_->pub);
  Decryptor dec(keys_->pub, keys_->sec);
  Ciphertext good = enc.Encrypt(BigInt(42), rng, 1).value();

  ASSERT_TRUE(FailpointSetFromSpec("paillier.encrypt=error:crypto,times=1")
                  .ok());
  Result<Ciphertext> blocked = enc.Encrypt(BigInt(7), rng, 1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kCryptoError);
  // times=1 exhausted: encryption works again.
  EXPECT_TRUE(enc.Encrypt(BigInt(7), rng, 1).ok());

  ASSERT_TRUE(FailpointSetFromSpec("paillier.decrypt=error:crypto,times=1")
                  .ok());
  EXPECT_FALSE(dec.Decrypt(good).ok());
  EXPECT_EQ(dec.Decrypt(good).value(), BigInt(42));
}

// The scripted schedule: a stream of requests against a service with
// several probabilistic failpoints armed at once, seeded from
// PPGNN_CHAOS_SEED. Every call must end inside its budget with either
// an exact answer (healthy request) or a decodable frame.
TEST_F(ChaosTest, ScriptedScheduleNeverCrashesHangsOrLies) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("PPGNN_CHAOS_SEED=" + std::to_string(seed));

  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.sanitize = false;
  LspService service(*db_, config);

  ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop,p=0.15,seed=" +
                                   std::to_string(seed))
                  .ok());
  ASSERT_TRUE(FailpointSetFromSpec("service.reply=corrupt:2,p=0.1,seed=" +
                                   std::to_string(seed + 1))
                  .ok());
  ASSERT_TRUE(FailpointSetFromSpec("user.upload=drop,p=0.1,seed=" +
                                   std::to_string(seed + 2))
                  .ok());
  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:20,p=0.2,seed=" +
                                   std::to_string(seed + 3))
                  .ok());
  ASSERT_TRUE(FailpointSetFromSpec("lsp.candidate=error,p=0.05,seed=" +
                                   std::to_string(seed + 4))
                  .ok());

  constexpr double kBudget = 2.0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.total_budget_seconds = kBudget;
  policy.initial_backoff_seconds = 0.002;
  policy.max_backoff_seconds = 0.02;
  policy.hedge = true;
  policy.hedge_delay_seconds = 0.2;
  policy.seed = seed;
  ResilientClient client(service, policy);

  Rng rng(9000 + seed);
  int answered = 0, exact_checked = 0, structured_errors = 0, degraded = 0;
  for (int i = 0; i < 25; ++i) {
    std::vector<Point> real;
    ServiceRequest request = WorkloadRequest(rng, &real);
    const bool is_degraded = request.degraded_users > 0;
    ClientCallOutcome outcome = client.Call(std::move(request));

    // Never a hang past the budget (wide slop: a slow execution that
    // beat the in-queue deadline check may finish its full query).
    EXPECT_LT(outcome.elapsed_seconds, kBudget + 2.0) << "request " << i;
    // Never an undecodable reply.
    Result<ResponseFrame> decoded = ResponseFrame::Decode(outcome.frame);
    ASSERT_TRUE(decoded.ok()) << "request " << i << ": "
                              << decoded.status().ToString();
    if (outcome.answered) {
      ++answered;
      if (is_degraded) {
        ++degraded;
        // Degraded: still k decodable POIs, just not reference-exact.
        Decryptor dec(keys_->pub, keys_->sec);
        ServedReply reply =
            ParseServedReply(outcome.frame, *keys_, dec, /*layered=*/false)
                .value();
        ASSERT_TRUE(reply.ok);
        EXPECT_EQ(reply.pois.size(), static_cast<size_t>(GroupParams().k));
      } else {
        // Healthy and answered: the answer must be exactly right —
        // corruption or faults may delay it, never falsify it.
        ExpectExactAnswer(outcome.frame, real);
        ++exact_checked;
      }
    } else {
      ++structured_errors;
      EXPECT_TRUE(decoded.value().is_error);
    }
  }
  FailpointClearAll();
  service.Shutdown();

  // The schedule must actually exercise both outcomes and the checks.
  EXPECT_GT(answered, 0);
  EXPECT_GT(exact_checked, 0);
  EXPECT_EQ(answered + structured_errors, 25);

  ServiceStats stats = service.Stats();
  // Every degraded request the client saw answered was served at least
  // once (a hedge pair can be served twice, so >= not ==).
  EXPECT_GE(stats.degraded_queries, static_cast<uint64_t>(degraded));
  ClientStats cs = client.Stats();
  EXPECT_EQ(cs.calls, 25u);
  EXPECT_GE(cs.attempts, cs.calls);
}

// With idempotency tagging on (the default), a hedge is not a second
// execution: it joins the stalled primary server-side and both legs get
// the same frame from the one run of the crypto pipeline.
TEST_F(ChaosTest, HedgedDuplicateCoalescesIntoOneExecution) {
  ServiceConfig config;
  config.workers = 2;
  config.sanitize = false;
  LspService service(*db_, config);

  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:100,times=1").ok());

  RetryPolicy policy;
  policy.hedge = true;
  policy.hedge_delay_seconds = 0.01;
  ASSERT_TRUE(policy.tag_idempotency);  // the default under test
  ResilientClient client(service, policy);

  Rng rng(57);
  std::vector<Point> real;
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng, &real));
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.hedges, 1);
  ExpectExactAnswer(outcome.frame, real);

  service.Shutdown();
  ServiceStats stats = service.Stats();
  // One accepted execution; the hedge was a dedup join, not a second run.
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.dedup_joins, 1u);
  EXPECT_EQ(stats.hedges, 1u);
}

// The acceptance check for dedup delivery: both legs of a duplicate pair
// receive bit-identical frames from the single execution.
TEST_F(ChaosTest, DuplicateLegsReceiveBitIdenticalFrames) {
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);

  // Stall the primary's execution so the duplicate provably arrives
  // while the original is still in flight.
  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:50,times=1").ok());

  Rng rng(58);
  std::vector<Point> real;
  ServiceRequest request = WorkloadRequest(rng, &real);
  request.idempotency_key = 0xD00DFEEDull;
  ServiceRequest duplicate = request;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<uint8_t>> frames;
  auto collect = [&](std::vector<uint8_t> f) {
    std::lock_guard<std::mutex> lock(mu);
    frames.push_back(std::move(f));
    cv.notify_all();
  };
  ASSERT_TRUE(service.Submit(std::move(request), collect));
  ASSERT_TRUE(service.Submit(std::move(duplicate), collect));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return frames.size() == 2; }));
  }

  EXPECT_EQ(frames[0], frames[1]);
  ExpectExactAnswer(frames[0], real);
  service.Shutdown();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.dedup_joins, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.accepted, 1u);
}

// Overload storm: a burst far beyond capacity against a tiny queue. The
// service must shed with actionable hints, keep every reply decodable,
// and never abandon a query it already started crypto on.
TEST_F(ChaosTest, OverloadStormShedsCleanlyAndNeverAbandonsStartedWork) {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 4;
  config.sanitize = false;
  LspService service(*db_, config);

  // Every execution drags an extra 30 ms, so the burst below is several
  // times capacity for the 300 ms budgets it carries.
  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:30").ok());

  constexpr int kBurst = 30;
  Rng rng(59);
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < kBurst; ++i) {
    ServiceRequest request = WorkloadRequest(rng);
    request.deadline_seconds = 0.3;
    requests.push_back(std::move(request));
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<uint8_t>> frames;
  for (ServiceRequest& request : requests) {
    (void)service.Submit(std::move(request), [&](std::vector<uint8_t> f) {
      std::lock_guard<std::mutex> lock(mu);
      frames.push_back(std::move(f));
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return frames.size() == kBurst; }));
  }
  service.Shutdown();

  int answers = 0, overloaded = 0, deadline = 0;
  for (const std::vector<uint8_t>& frame : frames) {
    ResponseFrame decoded = ResponseFrame::Decode(frame).value();
    if (!decoded.is_error) {
      ++answers;
      continue;
    }
    if (decoded.error.code == WireError::kOverloaded) {
      ++overloaded;
      // Every shed/reject carries a usable backpressure hint.
      EXPECT_GT(decoded.error.retry_after_ms, 0u);
    } else {
      EXPECT_EQ(decoded.error.code, WireError::kDeadlineExceeded);
      ++deadline;
    }
  }
  EXPECT_EQ(answers + overloaded + deadline, kBurst);
  EXPECT_GT(answers, 0);     // the service did not collapse under the storm
  EXPECT_GT(overloaded, 0);  // and it did push back

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted + stats.rejected, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.accepted,
            stats.served + stats.failed + stats.deadline_expired);
  // The core overload guarantee: work, once started, is finished. Every
  // deadline casualty was caught before its crypto began.
  EXPECT_EQ(stats.abandoned_executing, 0u);
  EXPECT_EQ(stats.deadline_expired, stats.expired_in_queue);
}

// Budget exhaustion with a hedge still in flight: the caller gets exactly
// one decodable terminal frame at the budget edge, and the late legs are
// absorbed without leaking or crashing.
TEST_F(ChaosTest, BudgetExhaustionWithHedgeInFlightYieldsOneTerminalFrame) {
  ServiceConfig config;
  config.workers = 2;
  config.sanitize = false;
  LspService service(*db_, config);

  // Both the primary and the hedge stall far past the client's budget.
  ASSERT_TRUE(FailpointSetFromSpec("service.execute=delay:400").ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.total_budget_seconds = 0.1;
  policy.hedge = true;
  policy.hedge_delay_seconds = 0.01;
  ResilientClient client(service, policy);

  Rng rng(63);
  ClientCallOutcome outcome = client.Call(WorkloadRequest(rng));
  EXPECT_FALSE(outcome.answered);
  // Returned at the budget edge, not after the 400 ms stall.
  EXPECT_LT(outcome.elapsed_seconds, 0.35);
  ResponseFrame decoded = ResponseFrame::Decode(outcome.frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_TRUE(decoded.error.code == WireError::kOverloaded ||
              decoded.error.code == WireError::kDeadlineExceeded)
      << WireErrorToString(decoded.error.code);

  ClientStats cs = client.Stats();
  EXPECT_EQ(cs.calls, 1u);
  EXPECT_EQ(cs.answers, 0u);
  EXPECT_EQ(cs.budget_exhausted, 1u);

  // The stalled legs are still executing. Shutdown drains them; their
  // late replies must land in the (still-alive) client without incident
  // — the no-leaked-callback half of the contract.
  service.Shutdown();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted,
            stats.served + stats.failed + stats.deadline_expired);
}

// The retry_after_ms hint steers the client's backoff in both
// directions: a small hint must beat the configured exponential
// schedule, a large hint must override a tiny one — and the hint is
// always capped against the remaining budget.
TEST_F(ChaosTest, RetryAfterHintShortensAndLengthensBackoff) {
  Rng rng(64);

  // Hint far below the exponential schedule: two retries would cost
  // 50 + 100 ms of configured backoff, but the 1 ms hint wins.
  {
    ServiceConfig config;
    config.workers = 1;
    config.sanitize = false;
    config.retry_after_hint_ms = 1;
    LspService service(*db_, config);
    ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop,times=2").ok());
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff_seconds = 0.050;
    policy.backoff_multiplier = 2.0;
    policy.jitter_fraction = 0.0;
    ResilientClient client(service, policy);
    ClientCallOutcome outcome = client.Call(WorkloadRequest(rng));
    FailpointClearAll();
    ASSERT_TRUE(outcome.answered);
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_LT(outcome.elapsed_seconds, 0.120);  // << the 150 ms schedule
    EXPECT_EQ(client.Stats().retry_after_honored, 2u);
    service.Shutdown();
  }

  // Hint far above the exponential schedule: the client waits as told.
  {
    ServiceConfig config;
    config.workers = 1;
    config.sanitize = false;
    config.retry_after_hint_ms = 150;
    LspService service(*db_, config);
    ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop,times=1").ok());
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_seconds = 0.001;
    policy.jitter_fraction = 0.0;
    ResilientClient client(service, policy);
    ClientCallOutcome outcome = client.Call(WorkloadRequest(rng));
    FailpointClearAll();
    ASSERT_TRUE(outcome.answered);
    EXPECT_EQ(outcome.attempts, 2);
    EXPECT_GE(outcome.elapsed_seconds, 0.140);  // >> the 1 ms schedule
    EXPECT_EQ(client.Stats().retry_after_honored, 1u);
    service.Shutdown();
  }

  // Hint past the remaining budget: the client gives up immediately
  // instead of sleeping into a deadline it cannot make.
  {
    ServiceConfig config;
    config.workers = 1;
    config.sanitize = false;
    config.retry_after_hint_ms = 5000;
    LspService service(*db_, config);
    ASSERT_TRUE(FailpointSetFromSpec("service.admit=drop").ok());
    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.total_budget_seconds = 0.2;
    ResilientClient client(service, policy);
    ClientCallOutcome outcome = client.Call(WorkloadRequest(rng));
    FailpointClearAll();
    EXPECT_FALSE(outcome.answered);
    EXPECT_LT(outcome.elapsed_seconds, 0.2);  // no 5 s sleep happened
    EXPECT_EQ(client.Stats().budget_exhausted, 1u);
    service.Shutdown();
  }
}

// A shard cluster with one link both failing and slow: every query must
// still complete with an answer frame (a degraded merge, never an error
// or a hang), the degradation must be counted, and no query may be
// abandoned after its crypto ran.
TEST_F(ChaosTest, SickShardLinkDegradesMergesWithoutFailingQueries) {
  ShardClusterConfig config;
  config.shards = 4;
  config.front.workers = 2;
  config.front.sanitize = false;
  config.shard.workers = 2;
  config.link_policy.max_attempts = 2;
  config.link_policy.total_budget_seconds = 0.5;
  ShardedLspService cluster(GenerateSequoiaLike(3000, 777), config);

  const uint64_t seed = ChaosSeed();
  // Link 2 errors on most legs and is slow on the rest — the retry layer
  // sees a shard that is simultaneously flaky and missing its SLO.
  ASSERT_TRUE(FailpointSetFromSpec("shard.link.2=error,p=0.8,seed=" +
                                   std::to_string(seed))
                  .ok());
  ASSERT_TRUE(
      FailpointSetFromSpec("service.execute=delay:20,p=0.3,seed=" +
                           std::to_string(seed + 1))
          .ok());

  Rng rng(seed * 1000 + 70);
  constexpr int kQueries = 8;
  for (int i = 0; i < kQueries; ++i) {
    std::vector<Point> real;
    ServiceRequest request = WorkloadRequest(rng, &real);
    request.deadline_seconds = 10.0;
    std::vector<uint8_t> frame = cluster.Call(std::move(request));
    Decryptor dec(keys_->pub, keys_->sec);
    ServedReply reply =
        ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
    ASSERT_TRUE(reply.ok) << "query " << i << ": " << reply.error.detail;
  }

  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.degraded_shards, 1u);
  EXPECT_EQ(stats.abandoned_executing, 0u);
  cluster.Shutdown();
}

// Replicated kill-storm: S=4, R=2, one primary hard down and the other
// primaries flaky or slow — while replica 1 of every set stays clean.
// Unlike the single-replica storm above, the acceptance bar is *zero*
// degraded merges: the ladder absorbs every primary loss and each query
// ends in an exact answer.
TEST_F(ChaosTest, ReplicatedKillStormServesExactAnswersWithZeroDegraded) {
  ShardClusterConfig config;
  config.shards = 4;
  config.replicas = 2;
  config.front.workers = 2;
  config.front.sanitize = false;
  config.shard.workers = 2;
  config.link_policy.max_attempts = 2;
  config.link_policy.total_budget_seconds = 0.5;
  config.hedge_delay_seconds = 0.01;
  ShardedLspService cluster(GenerateSequoiaLike(3000, 777), config);

  const uint64_t seed = ChaosSeed();
  // Shard 2's primary is dead outright; shard 0's is slow AND flaky via
  // two stacked policies on one point (the composed --fail semantics);
  // shards 1 and 3 get probabilistic errors and delays.
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.2.0=error").ok());
  ASSERT_TRUE(FailpointAddFromSpec("shard.replica.0.0=delay:10,p=0.5,seed=" +
                                   std::to_string(seed))
                  .ok());
  ASSERT_TRUE(FailpointAddFromSpec("shard.replica.0.0=error,p=0.3,seed=" +
                                   std::to_string(seed + 1))
                  .ok());
  ASSERT_TRUE(FailpointAddFromSpec("shard.replica.1.0=error,p=0.5,seed=" +
                                   std::to_string(seed + 2))
                  .ok());
  ASSERT_TRUE(FailpointAddFromSpec("shard.replica.3.0=delay:15,p=0.4,seed=" +
                                   std::to_string(seed + 3))
                  .ok());

  Rng rng(seed * 1000 + 80);
  constexpr int kQueries = 8;
  for (int i = 0; i < kQueries; ++i) {
    std::vector<Point> real;
    ServiceRequest request = WorkloadRequest(rng, &real);
    request.deadline_seconds = 10.0;
    std::vector<uint8_t> frame = cluster.Call(std::move(request));
    // Exact — not merely answered: a lost primary must not cost a POI.
    ExpectExactAnswer(frame, real);
  }

  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded_shards, 0u);
  EXPECT_GE(stats.exact_despite_failures, 1u);
  EXPECT_GE(stats.replica_failovers + stats.replica_hedge_wins, 1u);
  EXPECT_GE(stats.health_transitions, 1u);
  cluster.Shutdown();
}

}  // namespace
}  // namespace ppgnn
