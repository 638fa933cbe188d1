// Tests for the wire-level LSP entry point (LspHandleQuery) and the
// LspService front-end built on it: the surface a network-facing LSP
// daemon exposes to untrusted clients. Beyond the happy path, this suite
// throws malformed and adversarial inputs at the decoder (it must fail
// cleanly, never crash or mis-serve) and drives the service with
// concurrent clients, full queues, and expiring deadlines — the
// concurrency cases are the TSan tier.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/candidate.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "crypto/poi_codec.h"
#include "service/lsp_service.h"
#include "service/workload.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

class LspServiceTest : public ::testing::Test {
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

  // Builds a well-formed query + uploads for a 3-user group, returning
  // the expected plaintext answer alongside.
  struct Request {
    std::vector<uint8_t> query;
    std::vector<std::vector<uint8_t>> uploads;
    uint64_t qi;
    std::vector<Point> real;
  };

  static Request MakeRequest(Rng& rng, int k = 3) {
    Request req;
    PartitionPlan plan = SolvePartition(3, 4, 8).value();
    QueryMessage query;
    query.k = k;
    query.theta0 = 0.05;
    query.aggregate = AggregateKind::kSum;
    query.plan = plan;
    query.pk = keys_->pub;
    // Place everyone at segment 1 position 1 for simplicity.
    std::vector<int> x(plan.alpha, 1);
    req.qi = QueryIndex(plan, 1, x);
    Encryptor enc(keys_->pub);
    query.indicator =
        EncryptIndicator(enc, req.qi, plan.delta_prime, rng).value();
    req.query = query.Encode().value();

    std::vector<int> subgroup = SubgroupOfUser(plan);
    for (uint32_t u = 0; u < 3; ++u) {
      LocationSetMessage msg;
      msg.user_id = u;
      for (int i = 0; i < 4; ++i) {
        msg.locations.push_back({rng.NextDouble(), rng.NextDouble()});
      }
      // Real location at absolute position 1 (segment 1, x = 1).
      req.real.push_back(msg.locations[0]);
      req.uploads.push_back(msg.Encode());
    }
    return req;
  }

  static LspDatabase* db_;
  static KeyPair* keys_;
};
LspDatabase* LspServiceTest::db_ = nullptr;
KeyPair* LspServiceTest::keys_ = nullptr;

TEST_F(LspServiceTest, HappyPathServesCorrectAnswer) {
  Rng rng(1);
  Request req = MakeRequest(rng);
  QueryInstrumentation info;
  auto answer_bytes = LspHandleQuery(*db_, req.query, req.uploads,
                                     TestConfig{}, /*sanitize=*/false, 1,
                                     &info);
  ASSERT_TRUE(answer_bytes.ok()) << answer_bytes.status();
  EXPECT_EQ(info.delta_prime, 8u);

  AnswerMessage answer =
      AnswerMessage::Decode(answer_bytes.value(), keys_->pub).value();
  Decryptor dec(keys_->pub, keys_->sec);
  std::vector<BigInt> plain;
  for (const Ciphertext& ct : answer.ciphertexts) {
    plain.push_back(dec.Decrypt(ct).value());
  }
  PoiCodec codec(keys_->pub.key_bits);
  auto pois = codec.Decode(plain).value();
  auto expected = db_->solver().Query(req.real, 3, AggregateKind::kSum);
  ASSERT_EQ(pois.size(), expected.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    EXPECT_NEAR(pois[i].x, expected[i].poi.location.x, 1e-8);
  }
}

TEST_F(LspServiceTest, RejectsGarbageQueryBytes) {
  Rng rng(2);
  Request req = MakeRequest(rng);
  // Random garbage of assorted sizes must never crash the decoder.
  Rng fuzz(3);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = fuzz.NextBelow(200);
    std::vector<uint8_t> junk(len);
    fuzz.FillBytes(junk.data(), junk.size());
    auto result = LspHandleQuery(*db_, junk, req.uploads);
    EXPECT_FALSE(result.ok());
  }
}

TEST_F(LspServiceTest, RejectsBitflippedQuery) {
  Rng rng(4);
  Request req = MakeRequest(rng);
  Rng fuzz(5);
  int served = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> mutated = req.query;
    size_t pos = fuzz.NextBelow(std::min<size_t>(mutated.size(), 64));
    mutated[pos] ^= static_cast<uint8_t>(1 + fuzz.NextBelow(255));
    auto result = LspHandleQuery(*db_, mutated, req.uploads);
    // Header corruption must be rejected; flips inside ciphertext bodies
    // may decode (they are valid ciphertexts of garbage) — that's fine,
    // the point is no crash and no false rejection of the LSP itself.
    if (result.ok()) ++served;
  }
  // At least the clearly-structural corruptions must be caught.
  EXPECT_LT(served, 60);
}

TEST_F(LspServiceTest, RejectsUnknownUserId) {
  Rng rng(6);
  Request req = MakeRequest(rng);
  LocationSetMessage rogue = LocationSetMessage::Decode(req.uploads[0]).value();
  rogue.user_id = 99;
  req.uploads[0] = rogue.Encode();
  EXPECT_FALSE(LspHandleQuery(*db_, req.query, req.uploads).ok());
}

TEST_F(LspServiceTest, RejectsWrongLocationSetSize) {
  Rng rng(7);
  Request req = MakeRequest(rng);
  LocationSetMessage bad = LocationSetMessage::Decode(req.uploads[1]).value();
  bad.locations.pop_back();  // d = 3 != 4
  req.uploads[1] = bad.Encode();
  EXPECT_FALSE(LspHandleQuery(*db_, req.query, req.uploads).ok());
}

TEST_F(LspServiceTest, RejectsMissingUpload) {
  Rng rng(8);
  Request req = MakeRequest(rng);
  req.uploads.pop_back();
  EXPECT_FALSE(LspHandleQuery(*db_, req.query, req.uploads).ok());
}

TEST_F(LspServiceTest, RejectsIndicatorOfWrongLength) {
  Rng rng(9);
  Request req = MakeRequest(rng);
  // Rebuild the query with a too-short indicator: decode must fail
  // because the indicator length is checked against delta'.
  QueryMessage query = QueryMessage::Decode(req.query).value();
  query.indicator.pop_back();
  EXPECT_FALSE(
      LspHandleQuery(*db_, query.Encode().value(), req.uploads).ok());
}

TEST_F(LspServiceTest, SanitationOnReturnsPrefix) {
  Rng rng(10);
  Request req = MakeRequest(rng, /*k=*/3);
  QueryInstrumentation info;
  auto answer_bytes = LspHandleQuery(*db_, req.query, req.uploads,
                                     TestConfig{}, /*sanitize=*/true, 1,
                                     &info);
  ASSERT_TRUE(answer_bytes.ok());
  EXPECT_GT(info.sanitize_tests, 0u);
}

TEST_F(LspServiceTest, CancelFlagAbandonsQuery) {
  Rng rng(11);
  Request req = MakeRequest(rng);
  std::atomic<bool> cancel{true};
  auto result = LspHandleQuery(*db_, req.query, req.uploads, TestConfig{},
                               /*sanitize=*/false, 1, nullptr, &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// --- LspService: the concurrent serving front-end ---

class ServiceTest : public LspServiceTest {
 protected:
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
};

TEST_F(ServiceTest, ServesOneRequestEndToEnd) {
  ServiceConfig config;
  config.workers = 2;
  config.sanitize = false;
  LspService service(*db_, config);

  Rng rng(20);
  std::vector<Point> real;
  ServiceRequest request = WorkloadRequest(rng, &real);
  std::vector<uint8_t> frame = service.Call(std::move(request));

  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
  ASSERT_TRUE(reply.ok) << reply.error.detail;
  auto expected = db_->solver().Query(real, 3, AggregateKind::kSum);
  ASSERT_EQ(reply.pois.size(), expected.size());
  for (size_t i = 0; i < reply.pois.size(); ++i) {
    EXPECT_NEAR(reply.pois[i].x, expected[i].poi.location.x, 1e-8);
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.totals.delta_prime, 8u);
  EXPECT_EQ(stats.latency.count, 1u);
  EXPECT_GT(stats.latency.p99_seconds, 0.0);
}

TEST_F(ServiceTest, MalformedQueryGetsStructuredErrorFrame) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  ServiceRequest request;
  request.query = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> frame = service.Call(std::move(request));
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kMalformed);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 0u);
}

TEST_F(ServiceTest, RejectsOnFullQueueWithOverloadedFrame) {
  // One worker held on a latch + capacity-1 queue: the third and fourth
  // submissions must bounce with kOverloaded, deterministically.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.sanitize = false;
  config.test_execute_hook = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  LspService service(*db_, config);

  std::mutex reply_mu;
  std::condition_variable reply_cv;
  std::vector<std::vector<uint8_t>> frames;
  auto collect = [&](std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(reply_mu);
    frames.push_back(std::move(frame));
    reply_cv.notify_all();
  };

  Rng rng(21);
  ASSERT_TRUE(service.Submit(WorkloadRequest(rng), collect));
  // Wait until the worker is parked inside request 1 so request 2 is
  // guaranteed to sit in the queue.
  while (entered.load() < 1) std::this_thread::yield();
  ASSERT_TRUE(service.Submit(WorkloadRequest(rng), collect));
  EXPECT_FALSE(service.Submit(WorkloadRequest(rng), collect));
  EXPECT_FALSE(service.Submit(WorkloadRequest(rng), collect));

  {
    // The two rejects were delivered inline.
    std::lock_guard<std::mutex> lock(reply_mu);
    ASSERT_EQ(frames.size(), 2u);
    for (const auto& frame : frames) {
      ResponseFrame decoded = ResponseFrame::Decode(frame).value();
      ASSERT_TRUE(decoded.is_error);
      EXPECT_EQ(decoded.error.code, WireError::kOverloaded);
    }
  }

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(reply_mu);
    reply_cv.wait(lock, [&] { return frames.size() == 4u; });
  }
  service.Shutdown();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Graceful drain: once Shutdown(deadline) begins, new submissions bounce
// with a structured kShuttingDown frame (not kOverloaded — the queue has
// room) while everything already accepted is served. Every submitted
// request gets exactly one reply: accepted + rejected == submitted.
TEST_F(ServiceTest, GracefulDrainAnswersAcceptedAndRejectsNewWork) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;  // rejections below can only mean "draining"
  config.sanitize = false;
  config.test_execute_hook = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  LspService service(*db_, config);

  std::mutex reply_mu;
  std::condition_variable reply_cv;
  std::vector<std::vector<uint8_t>> frames;
  auto collect = [&](std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(reply_mu);
    frames.push_back(std::move(frame));
    reply_cv.notify_all();
  };

  Rng rng(25);
  uint64_t submitted = 0, accepted = 0;
  auto submit = [&] {
    ++submitted;
    if (service.Submit(WorkloadRequest(rng), collect)) {
      ++accepted;
      return true;
    }
    return false;
  };
  ASSERT_TRUE(submit());
  while (entered.load() < 1) std::this_thread::yield();
  ASSERT_TRUE(submit());
  ASSERT_TRUE(submit());

  // Drain in the background: Shutdown(deadline) blocks until the worker
  // (parked on the gate) empties the queue.
  std::thread drainer([&] { service.Shutdown(/*drain_deadline_seconds=*/10.0); });
  // Submissions racing the stopping flag may still be accepted — they
  // joined the drain and will be served. The first rejection is the
  // structured shutting-down frame.
  while (submit()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  drainer.join();
  {
    std::unique_lock<std::mutex> lock(reply_mu);
    reply_cv.wait(lock, [&] { return frames.size() == submitted; });
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected, submitted - accepted);
  EXPECT_EQ(stats.accepted + stats.rejected, submitted);
  EXPECT_EQ(stats.served, accepted);  // drained, not dropped
  EXPECT_EQ(stats.drain_flushed, 0u);

  int answers = 0, shutting_down = 0;
  for (const auto& frame : frames) {
    ResponseFrame decoded = ResponseFrame::Decode(frame).value();
    if (!decoded.is_error) {
      ++answers;
      continue;
    }
    EXPECT_EQ(decoded.error.code, WireError::kShuttingDown);
    EXPECT_GT(decoded.error.retry_after_ms, 0u);  // actionable hint
    ++shutting_down;
  }
  EXPECT_EQ(answers, static_cast<int>(accepted));
  EXPECT_EQ(shutting_down, static_cast<int>(submitted - accepted));
  EXPECT_GE(shutting_down, 1);
}

// A drain that cannot finish by the deadline flushes the still-queued
// requests with kShuttingDown frames (retry hint included) instead of
// leaving their callbacks to dangle; executing work still completes.
TEST_F(ServiceTest, DrainDeadlineFlushesQueuedRequests) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.sanitize = false;
  config.test_execute_hook = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  LspService service(*db_, config);

  std::mutex reply_mu;
  std::condition_variable reply_cv;
  std::vector<std::vector<uint8_t>> frames;
  auto collect = [&](std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(reply_mu);
    frames.push_back(std::move(frame));
    reply_cv.notify_all();
  };

  Rng rng(26);
  ASSERT_TRUE(service.Submit(WorkloadRequest(rng), collect));
  while (entered.load() < 1) std::this_thread::yield();
  ASSERT_TRUE(service.Submit(WorkloadRequest(rng), collect));
  ASSERT_TRUE(service.Submit(WorkloadRequest(rng), collect));

  // The worker is parked, so the 50 ms drain deadline must expire and
  // flush the two queued requests.
  std::thread drainer([&] { service.Shutdown(/*drain_deadline_seconds=*/0.05); });
  {
    std::unique_lock<std::mutex> lock(reply_mu);
    reply_cv.wait(lock, [&] { return frames.size() == 2u; });
    for (const auto& frame : frames) {
      ResponseFrame decoded = ResponseFrame::Decode(frame).value();
      ASSERT_TRUE(decoded.is_error);
      EXPECT_EQ(decoded.error.code, WireError::kShuttingDown);
      EXPECT_GT(decoded.error.retry_after_ms, 0u);
    }
  }

  // The executing request was never abandoned: release it and it serves.
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  drainer.join();
  {
    std::unique_lock<std::mutex> lock(reply_mu);
    reply_cv.wait(lock, [&] { return frames.size() == 3u; });
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.drain_flushed, 2u);
  // accepted == served + flushed: exactly one reply per accepted request.
  EXPECT_EQ(stats.accepted, stats.served + stats.drain_flushed);
  EXPECT_EQ(stats.abandoned_executing, 0u);
}

TEST_F(ServiceTest, DeadlineExpiresInQueueWithoutExecution) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.sanitize = false;
  config.test_execute_hook = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  LspService service(*db_, config);

  std::mutex reply_mu;
  std::condition_variable reply_cv;
  size_t replies = 0;
  std::vector<uint8_t> expired_frame;

  Rng rng(22);
  (void)service.Submit(WorkloadRequest(rng), [&](std::vector<uint8_t>) {
    std::lock_guard<std::mutex> lock(reply_mu);
    ++replies;
    reply_cv.notify_all();
  });
  while (entered.load() < 1) std::this_thread::yield();

  ServiceRequest doomed = WorkloadRequest(rng);
  doomed.deadline_seconds = 0.01;
  (void)service.Submit(std::move(doomed), [&](std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(reply_mu);
    expired_frame = std::move(frame);
    ++replies;
    reply_cv.notify_all();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(reply_mu);
    reply_cv.wait(lock, [&] { return replies == 2u; });
  }
  service.Shutdown();

  ResponseFrame decoded = ResponseFrame::Decode(expired_frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.served, 1u);
  // The doomed request never reached the execute hook.
  EXPECT_EQ(entered.load(), 1);
}

TEST_F(ServiceTest, DeadlineCancelsMidExecution) {
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  // Park the worker *inside* the request (after in-flight registration)
  // long enough for the monitor to flip the cancel flag.
  config.test_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  LspService service(*db_, config);

  Rng rng(23);
  ServiceRequest request = WorkloadRequest(rng);
  request.deadline_seconds = 0.02;
  std::vector<uint8_t> frame = service.Call(std::move(request));

  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.served, 0u);
}

// The TSan workhorse: many closed-loop clients against a small queue
// with a mix of deadlines and garbage, exercising admission, execution,
// cancellation, and stats merging concurrently.
TEST_F(ServiceTest, ConcurrentClientsSmallQueueMixedDeadlines) {
  ServiceConfig config;
  config.workers = 3;
  config.queue_capacity = 4;
  config.lsp_threads = 2;  // intra-query fan-out on top of the pool
  config.sanitize = false;
  LspService service(*db_, config);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 5;
  std::atomic<int> answers{0}, errors{0}, transport_garbage{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      Decryptor dec(keys_->pub, keys_->sec);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServiceRequest request;
        if (i % 5 == 4) {
          request.query = {0xFF, 0xFF, 0xFF};  // malformed
        } else {
          request = WorkloadRequest(rng);
        }
        if (i % 3 == 1) request.deadline_seconds = 1e-6;  // will expire
        std::vector<uint8_t> frame = service.Call(std::move(request));
        auto reply = ParseServedReply(frame, *keys_, dec, /*layered=*/false);
        if (!reply.ok()) {
          transport_garbage.fetch_add(1);
        } else if (reply->ok) {
          answers.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Shutdown();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kClients) * kRequestsPerClient;
  // Every reply is a well-formed frame — answer or structured error.
  EXPECT_EQ(transport_garbage.load(), 0);
  EXPECT_EQ(static_cast<uint64_t>(answers.load() + errors.load()), kTotal);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted + stats.rejected, kTotal);
  EXPECT_EQ(stats.accepted,
            stats.served + stats.failed + stats.deadline_expired);
  EXPECT_EQ(stats.served, static_cast<uint64_t>(answers.load()));
  EXPECT_EQ(stats.latency.count, kTotal);
  EXPECT_GT(stats.deadline_expired, 0u);
  EXPECT_GE(stats.latency.p99_seconds, stats.latency.p50_seconds);
}

TEST_F(ServiceTest, StatsExposeRetryHedgeDegradedAndErrorCodeCounters) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.sanitize = false;
  // Keep the hopeless-deadline request below on the queue-expiry path:
  // with cost admission on it would be shed at Submit as kOverloaded
  // instead (that path is covered in admission_test).
  config.cost_admission = false;
  LspService service(*db_, config);

  // Per-code error replies: one malformed...
  ServiceRequest malformed;
  malformed.query = {0xBA, 0xD0};
  ResponseFrame err1 =
      ResponseFrame::Decode(service.Call(std::move(malformed))).value();
  ASSERT_TRUE(err1.is_error);
  EXPECT_EQ(err1.error.code, WireError::kMalformed);
  // ...and one deadline (expires before a worker can pick it up).
  Rng rng(24);
  ServiceRequest doomed = WorkloadRequest(rng);
  doomed.deadline_seconds = 1e-9;
  ResponseFrame err2 =
      ResponseFrame::Decode(service.Call(std::move(doomed))).value();
  ASSERT_TRUE(err2.is_error);
  EXPECT_EQ(err2.error.code, WireError::kDeadlineExceeded);

  // A degraded-but-served query: the request says 2 of its users were
  // substituted; the service must count the query and sum the users.
  ServiceRequest degraded = WorkloadRequest(rng);
  degraded.degraded_users = 2;
  ResponseFrame served =
      ResponseFrame::Decode(service.Call(std::move(degraded))).value();
  EXPECT_FALSE(served.is_error);

  // Client-side resilience events flow in through the Record hooks.
  service.RecordClientRetry();
  service.RecordClientRetry();
  service.RecordClientHedge();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.degraded_queries, 1u);
  EXPECT_EQ(stats.totals.degraded_users, 2u);
  EXPECT_EQ(stats.error_replies[static_cast<size_t>(WireError::kMalformed)],
            1u);
  EXPECT_EQ(
      stats.error_replies[static_cast<size_t>(WireError::kDeadlineExceeded)],
      1u);
  EXPECT_EQ(stats.error_replies[static_cast<size_t>(WireError::kOverloaded)],
            0u);
  EXPECT_EQ(stats.error_replies[static_cast<size_t>(WireError::kInternal)],
            0u);
  // The counters are part of the human-readable snapshot too.
  EXPECT_NE(stats.ToString().find("retries=2"), std::string::npos);
  EXPECT_NE(stats.ToString().find("degraded=1"), std::string::npos);
}

TEST_F(ServiceTest, LatencyHistogramQuantilesAreOrdered) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(i * 1e-5);  // 10us .. 10ms
  LatencySummary summary = hist.Summarize();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_GT(summary.p50_seconds, 0.004);
  EXPECT_LT(summary.p50_seconds, 0.007);
  EXPECT_GT(summary.p99_seconds, summary.p90_seconds * 0.99);
  EXPECT_GE(summary.max_seconds, summary.p99_seconds * 0.9);
  EXPECT_NEAR(summary.mean_seconds, 0.005, 0.001);
}

TEST_F(ServiceTest, QueueWaitAndExecuteAreRecordedSeparately) {
  // Hold the single worker on a latch so a second request measurably
  // waits in the queue, then verify the two histograms split the
  // end-to-end time instead of lumping it together.
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  config.test_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  LspService service(*db_, config);

  Rng rng(60);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service.Submit(WorkloadRequest(rng),
                               [&](std::vector<uint8_t>) {
                                 std::lock_guard<std::mutex> lock(done_mu);
                                 ++done;
                                 done_cv.notify_all();
                               }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == 2; });
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 2u);
  ASSERT_EQ(stats.queue_wait.count, 2u);
  ASSERT_EQ(stats.execute.count, 2u);
  // The second request sat behind the latched first for >= 30ms; that
  // time lands in queue_wait, not in execute (the latch holds the worker
  // before the execute timer starts, so execute stays honest).
  EXPECT_GT(stats.queue_wait.max_seconds, 0.025);
  EXPECT_GT(stats.execute.max_seconds, 0.0);
  EXPECT_LT(stats.execute.max_seconds, 0.025);
  EXPECT_GE(stats.latency.max_seconds, stats.queue_wait.max_seconds);
}

TEST_F(ServiceTest, WireDeadlinePropagatesFromQueryTrailer) {
  // The deadline rides inside the encoded QueryMessage (wire version 2):
  // no ServiceRequest.deadline_seconds is set, yet the service must honor
  // the 1 ms budget — here by shedding at admission (predicted cost far
  // exceeds it) with a structured kOverloaded + retry hint.
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);

  Rng rng(61);
  ProtocolParams params = GroupParams();
  std::vector<Point> group;
  for (int i = 0; i < params.n; ++i) {
    group.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  RequestWireOptions wire;
  wire.deadline_ms = 1;
  ServiceRequest request =
      BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng, wire)
          .value();
  ASSERT_EQ(request.deadline_seconds, 0.0);

  std::vector<uint8_t> frame;
  EXPECT_FALSE(service.Submit(std::move(request), [&](std::vector<uint8_t> f) {
    frame = std::move(f);
  }));
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kOverloaded);
  EXPECT_GT(decoded.error.retry_after_ms, 0u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.accepted, 0u);

  // A generous wire deadline sails through and is served normally.
  wire.deadline_ms = 30000;
  ServiceRequest fine =
      BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng, wire)
          .value();
  std::vector<uint8_t> ok_frame = service.Call(std::move(fine));
  EXPECT_FALSE(ResponseFrame::Decode(ok_frame).value().is_error);
  EXPECT_EQ(service.Stats().served, 1u);
}

TEST_F(ServiceTest, WireIdempotencyKeyPropagatesFromQueryTrailer) {
  // The dedup key also rides in the trailer: two submissions of the same
  // encoded request coalesce without ServiceRequest.idempotency_key set.
  ServiceConfig config;
  config.workers = 1;
  config.sanitize = false;
  LspService service(*db_, config);

  Rng rng(62);
  ProtocolParams params = GroupParams();
  std::vector<Point> group;
  for (int i = 0; i < params.n; ++i) {
    group.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  RequestWireOptions wire;
  wire.idempotency_key = 0xABCDEF01ull;
  ServiceRequest request =
      BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng, wire)
          .value();
  ASSERT_EQ(request.idempotency_key, 0u);
  ServiceRequest copy = request;

  std::vector<uint8_t> first = service.Call(std::move(request));
  EXPECT_FALSE(ResponseFrame::Decode(first).value().is_error);
  std::vector<uint8_t> second = service.Call(std::move(copy));
  EXPECT_EQ(second, first);  // replayed bit-identically from the cache
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.dedup_replays, 1u);
}

TEST_F(ServiceTest, KeyHolderEncryptorSharedAcrossClients) {
  // The Encryptor thread-safety contract under real contention (TSan
  // tier): one key-holder Encryptor shared by concurrent client threads
  // building requests against the service worker pool, so the first
  // requests race to build its blinding tables, while the clients
  // snapshot the service's Stats() mid-flight. The blinding counters are
  // read once every thread has stopped.
  const Encryptor shared(*keys_);

  ServiceConfig config;
  config.workers = 3;
  config.queue_capacity = 16;
  config.sanitize = false;
  LspService service(*db_, config);

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> answers{0}, errors{0}, transport_garbage{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(7000 + c);
      Decryptor dec(keys_->pub, keys_->sec);
      ProtocolParams params = GroupParams();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        std::vector<Point> group;
        for (int u = 0; u < params.n; ++u) {
          group.push_back({rng.NextDouble(), rng.NextDouble()});
        }
        ServiceRequest request =
            BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng,
                                {}, &shared)
                .value();
        std::vector<uint8_t> frame = service.Call(std::move(request));
        auto reply = ParseServedReply(frame, *keys_, dec, /*layered=*/false);
        if (!reply.ok()) {
          transport_garbage.fetch_add(1);
        } else if (reply->ok) {
          answers.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
        // Snapshot stats concurrently with the other clients — the read
        // side of the contract.
        (void)service.Stats();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Shutdown();

  EXPECT_EQ(transport_garbage.load(), 0);
  EXPECT_EQ(answers.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(errors.load(), 0);

  const Encryptor::BlindingStats blinding = shared.blinding_stats();
  // Every ciphertext blinded on the key holder's tables; nothing fell
  // back to the generic ladder.
  EXPECT_GT(blinding.pool_misses, 0u);
  EXPECT_EQ(blinding.generic_evals, 0u);
  EXPECT_EQ(blinding.fixed_base_evals, blinding.pool_misses);
}

}  // namespace
}  // namespace ppgnn
