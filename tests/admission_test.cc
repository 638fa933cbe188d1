// Unit tests for the overload-resilience building blocks — CostModel,
// AimdLimiter, ReplyCache — plus service-level coverage of the admission
// behaviors they compose into: cost-based shedding with a retry_after
// hint, and idempotency-key dedup (join + replay).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/indicator.h"
#include "core/partition.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "service/admission.h"
#include "service/cost_model.h"
#include "service/lsp_service.h"
#include "service/reply_cache.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

CostFeatures Features(uint64_t delta_prime, int key_bits, int k = 3,
                      bool is_opt = false, uint64_t omega = 0) {
  CostFeatures f;
  f.delta_prime = delta_prime;
  f.k = k;
  f.key_bits = key_bits;
  f.is_opt = is_opt;
  f.omega = omega;
  return f;
}

// --- CostModel ---

TEST(CostModelTest, AnalyticGrowsWithDeltaPrime) {
  const double a = CostModel::AnalyticSeconds(Features(16, 1024));
  const double b = CostModel::AnalyticSeconds(Features(64, 1024));
  const double c = CostModel::AnalyticSeconds(Features(256, 1024));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  // The per-candidate terms dominate: 4x the candidates should cost at
  // least ~3x, not some sublinear shrug.
  EXPECT_GT(b, 3.0 * a * 0.9);
}

TEST(CostModelTest, AnalyticGrowsQuadraticallyWithKeyBits) {
  const double k512 = CostModel::AnalyticSeconds(Features(64, 512));
  const double k1024 = CostModel::AnalyticSeconds(Features(64, 1024));
  const double k2048 = CostModel::AnalyticSeconds(Features(64, 2048));
  EXPECT_LT(k512, k1024);
  EXPECT_LT(k1024, k2048);
  // Crypto term scales (key_bits/1024)^2; with the non-crypto terms mixed
  // in, doubling the key size should still cost well over 2x.
  EXPECT_GT(k2048, 2.0 * k1024);
}

TEST(CostModelTest, OptPhaseTwoAddsCost) {
  const double plain = CostModel::AnalyticSeconds(Features(64, 1024));
  const double opt =
      CostModel::AnalyticSeconds(Features(64, 1024, 3, true, 8));
  EXPECT_GT(opt, plain);
}

TEST(CostModelTest, PredictionHasPositiveFloor) {
  EXPECT_GE(CostModel::AnalyticSeconds(Features(0, 0, 0)), 1.0e-4);
  CostModel model;
  EXPECT_GE(model.PredictSeconds(Features(0, 0, 0)), 1.0e-4);
}

TEST(CostModelTest, EwmaConvergesOntoObservedRatio) {
  CostModel model;
  const CostFeatures f = Features(64, 1024);
  const double analytic = CostModel::AnalyticSeconds(f);
  // This machine runs 3x slower than the calibration machine.
  for (int i = 0; i < 50; ++i) {
    model.Observe(f, 3.0 * analytic);
  }
  const double predicted = model.PredictSeconds(f);
  EXPECT_NEAR(predicted / analytic, 3.0, 0.05);
  EXPECT_EQ(model.observations(), 50u);
}

TEST(CostModelTest, UnseenBucketFallsBackToGlobalRatio) {
  CostModel model;
  const CostFeatures seen = Features(64, 1024);
  for (int i = 0; i < 50; ++i) {
    model.Observe(seen, 2.0 * CostModel::AnalyticSeconds(seen));
  }
  // A key-size class the model has never observed still benefits from
  // the machine-speed correction learned globally.
  const CostFeatures unseen = Features(64, 2048);
  const double predicted = model.PredictSeconds(unseen);
  EXPECT_NEAR(predicted / CostModel::AnalyticSeconds(unseen), 2.0, 0.05);
}

TEST(CostModelTest, BucketRatioShadowsGlobal) {
  CostModel model;
  const CostFeatures small = Features(16, 1024);
  const CostFeatures large = Features(1024, 1024);
  for (int i = 0; i < 50; ++i) {
    model.Observe(small, 2.0 * CostModel::AnalyticSeconds(small));
    model.Observe(large, 5.0 * CostModel::AnalyticSeconds(large));
  }
  EXPECT_NEAR(
      model.PredictSeconds(small) / CostModel::AnalyticSeconds(small), 2.0,
      0.1);
  EXPECT_NEAR(
      model.PredictSeconds(large) / CostModel::AnalyticSeconds(large), 5.0,
      0.1);
}

TEST(CostModelTest, SeedPriorShapesPredictionUntilRealData) {
  CostModel model;
  const CostFeatures f = Features(64, 1024);
  const double analytic = CostModel::AnalyticSeconds(f);
  model.SeedPrior(f, 4.0 * analytic);
  EXPECT_EQ(model.observations(), 0u);  // priors are not observations
  EXPECT_NEAR(model.PredictSeconds(f), 4.0 * analytic, 1e-9);
  // A second seed does not overwrite the first...
  model.SeedPrior(f, 100.0 * analytic);
  EXPECT_NEAR(model.PredictSeconds(f), 4.0 * analytic, 1e-9);
  // ...and real observations pull away from the prior at the EWMA rate.
  for (int i = 0; i < 64; ++i) model.Observe(f, analytic);
  EXPECT_NEAR(model.PredictSeconds(f), analytic, 0.1 * analytic);
}

TEST(CostModelTest, ObserveRejectsNonPositiveAndNan) {
  CostModel model;
  const CostFeatures f = Features(64, 1024);
  model.Observe(f, 0.0);
  model.Observe(f, -1.0);
  model.Observe(f, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(model.observations(), 0u);
  // Prediction is untouched: pure analytic.
  EXPECT_DOUBLE_EQ(model.PredictSeconds(f), CostModel::AnalyticSeconds(f));
}

// --- AimdLimiter ---

AimdLimiter::Options LimiterOptions(double target, int initial, int window) {
  AimdLimiter::Options o;
  o.target_p99_seconds = target;
  o.min_concurrency = 1;
  o.max_concurrency = 16;
  o.initial_concurrency = initial;
  o.window = window;
  o.decrease_factor = 0.7;
  return o;
}

TEST(AimdLimiterTest, DecreasesMultiplicativelyOnSlowWindow) {
  AimdLimiter limiter(LimiterOptions(0.010, 10, 4));
  ASSERT_EQ(limiter.limit(), 10);
  for (int i = 0; i < 4; ++i) limiter.OnComplete(0.100);  // p99 over target
  EXPECT_EQ(limiter.limit(), 7);  // floor(10 * 0.7)
  EXPECT_EQ(limiter.decreases(), 1u);
  EXPECT_EQ(limiter.increases(), 0u);
}

TEST(AimdLimiterTest, IncreasesAdditivelyOnFastWindow) {
  AimdLimiter limiter(LimiterOptions(0.010, 4, 4));
  for (int i = 0; i < 4; ++i) limiter.OnComplete(0.001);
  EXPECT_EQ(limiter.limit(), 5);
  EXPECT_EQ(limiter.increases(), 1u);
}

TEST(AimdLimiterTest, IncompleteWindowMakesNoDecision) {
  AimdLimiter limiter(LimiterOptions(0.010, 4, 8));
  for (int i = 0; i < 7; ++i) limiter.OnComplete(0.100);
  EXPECT_EQ(limiter.limit(), 4);
  EXPECT_EQ(limiter.decreases(), 0u);
}

TEST(AimdLimiterTest, WindowP99Semantics) {
  // Small window: floor(32 * 99 / 100) = 31 is the max element, so one
  // straggler in a 32-wide window does trigger a decrease (by design —
  // a small window cannot distinguish p99 from max).
  AimdLimiter small(LimiterOptions(0.010, 8, 32));
  for (int i = 0; i < 31; ++i) small.OnComplete(0.001);
  small.OnComplete(5.0);
  EXPECT_EQ(small.decreases(), 1u);
  // Large window: floor(200 * 99 / 100) = 198 is the second-largest, so
  // a single straggler among 200 is ignored.
  AimdLimiter large(LimiterOptions(0.010, 8, 200));
  for (int i = 0; i < 199; ++i) large.OnComplete(0.001);
  large.OnComplete(5.0);
  EXPECT_EQ(large.decreases(), 0u);
  EXPECT_EQ(large.limit(), 9);  // counted as a fast window
}

TEST(AimdLimiterTest, RespectsBounds) {
  AimdLimiter limiter(LimiterOptions(0.010, 8, 2));
  for (int round = 0; round < 20; ++round) {
    limiter.OnComplete(1.0);
    limiter.OnComplete(1.0);
  }
  EXPECT_EQ(limiter.limit(), 1);  // floored at min_concurrency
  for (int round = 0; round < 40; ++round) {
    limiter.OnComplete(0.0001);
    limiter.OnComplete(0.0001);
  }
  EXPECT_EQ(limiter.limit(), 16);  // capped at max_concurrency
}

TEST(AimdLimiterTest, ClampsDegenerateOptions) {
  AimdLimiter::Options o;
  o.min_concurrency = -3;
  o.max_concurrency = -7;
  o.initial_concurrency = 100;
  o.window = 0;
  AimdLimiter limiter(o);
  EXPECT_EQ(limiter.limit(), 1);  // min=1, max=1, initial clamped
}

// --- ReplyCache ---

ReplyCache::Options CacheOptions(size_t max_bytes, double grace) {
  ReplyCache::Options o;
  o.max_bytes = max_bytes;
  o.grace_seconds = grace;
  return o;
}

TEST(ReplyCacheTest, PrimaryJoinReplayLifecycle) {
  ReplyCache cache(CacheOptions(16, 30.0));
  const std::vector<uint8_t> frame = {1, 2, 3};

  auto first = cache.AdmitOrAttach(7, nullptr);
  EXPECT_EQ(first.admission, ReplyCache::Admission::kPrimary);

  std::vector<uint8_t> joined_frame;
  auto second = cache.AdmitOrAttach(
      7, [&](std::vector<uint8_t> f) { joined_frame = std::move(f); });
  EXPECT_EQ(second.admission, ReplyCache::Admission::kJoined);

  auto waiters = cache.Complete(7, first.generation, frame,
                                /*cache_for_replay=*/true);
  ASSERT_EQ(waiters.size(), 1u);
  waiters[0](frame);
  EXPECT_EQ(joined_frame, frame);

  auto third = cache.AdmitOrAttach(7, nullptr);
  EXPECT_EQ(third.admission, ReplyCache::Admission::kReplayed);
  EXPECT_EQ(third.frame, frame);
  EXPECT_EQ(cache.CompletedEntries(), 1u);
}

TEST(ReplyCacheTest, ErrorCompletionIsDeliveredButNeverReplayed) {
  ReplyCache cache(CacheOptions(16, 30.0));
  auto primary = cache.AdmitOrAttach(9, nullptr);
  ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
  int joiner_calls = 0;
  (void)cache.AdmitOrAttach(9,
                            [&](std::vector<uint8_t>) { ++joiner_calls; });
  auto waiters =
      cache.Complete(9, primary.generation, {0xEE}, /*cache_for_replay=*/false);
  ASSERT_EQ(waiters.size(), 1u);
  waiters[0]({0xEE});
  EXPECT_EQ(joiner_calls, 1);
  // The failure is not cached: a later retry with the same key runs fresh.
  EXPECT_EQ(cache.AdmitOrAttach(9, nullptr).admission,
            ReplyCache::Admission::kPrimary);
  EXPECT_EQ(cache.CompletedEntries(), 0u);
}

TEST(ReplyCacheTest, AbortReturnsJoinedWaiters) {
  ReplyCache cache(CacheOptions(16, 30.0));
  auto primary = cache.AdmitOrAttach(5, nullptr);
  ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
  int joiner_calls = 0;
  (void)cache.AdmitOrAttach(5,
                            [&](std::vector<uint8_t>) { ++joiner_calls; });
  auto waiters = cache.Abort(5, primary.generation);
  ASSERT_EQ(waiters.size(), 1u);
  waiters[0]({});
  EXPECT_EQ(joiner_calls, 1);
  EXPECT_EQ(cache.AdmitOrAttach(5, nullptr).admission,
            ReplyCache::Admission::kPrimary);
}

TEST(ReplyCacheTest, CapacityEvictsOldestCompleted) {
  ReplyCache cache(CacheOptions(2, 30.0));
  for (uint64_t key = 1; key <= 3; ++key) {
    auto primary = cache.AdmitOrAttach(key, nullptr);
    ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
    (void)cache.Complete(key, primary.generation,
                         {static_cast<uint8_t>(key)},
                         /*cache_for_replay=*/true);
  }
  EXPECT_EQ(cache.CompletedEntries(), 2u);
  // Key 1 (oldest) was evicted; 2 and 3 still replay.
  EXPECT_EQ(cache.AdmitOrAttach(1, nullptr).admission,
            ReplyCache::Admission::kPrimary);
  EXPECT_EQ(cache.AdmitOrAttach(2, nullptr).admission,
            ReplyCache::Admission::kReplayed);
  EXPECT_EQ(cache.AdmitOrAttach(3, nullptr).admission,
            ReplyCache::Admission::kReplayed);
}

TEST(ReplyCacheTest, GraceEvictsDeadlinelessCompletedEntries) {
  ReplyCache cache(CacheOptions(16, 0.02));
  auto primary = cache.AdmitOrAttach(11, nullptr);
  ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
  (void)cache.Complete(11, primary.generation, {0x11},
                       /*cache_for_replay=*/true);
  EXPECT_EQ(cache.AdmitOrAttach(11, nullptr).admission,
            ReplyCache::Admission::kReplayed);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cache.AdmitOrAttach(11, nullptr).admission,
            ReplyCache::Admission::kPrimary);
}

TEST(ReplyCacheTest, InFlightEntriesSurviveEvictionPressure) {
  ReplyCache cache(CacheOptions(1, 30.0));
  auto hundred = cache.AdmitOrAttach(100, nullptr);
  ASSERT_EQ(hundred.admission, ReplyCache::Admission::kPrimary);
  // Churn completed entries past capacity while 100 stays in flight.
  for (uint64_t key = 1; key <= 4; ++key) {
    auto primary = cache.AdmitOrAttach(key, nullptr);
    ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
    (void)cache.Complete(key, primary.generation, {0x01},
                         /*cache_for_replay=*/true);
  }
  // The in-flight entry still coalesces duplicates.
  EXPECT_EQ(cache.AdmitOrAttach(100, [](std::vector<uint8_t>) {}).admission,
            ReplyCache::Admission::kJoined);
  auto waiters = cache.Complete(100, hundred.generation, {0x64},
                                /*cache_for_replay=*/true);
  EXPECT_EQ(waiters.size(), 1u);
}

TEST(ReplyCacheTest, DoubleCompleteIsIgnored) {
  ReplyCache cache(CacheOptions(16, 30.0));
  auto primary = cache.AdmitOrAttach(3, nullptr);
  ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
  (void)cache.Complete(3, primary.generation, {0xAA},
                       /*cache_for_replay=*/true);
  auto again = cache.Complete(3, primary.generation, {0xBB},
                              /*cache_for_replay=*/true);
  EXPECT_TRUE(again.empty());
  // The first frame wins.
  auto replay = cache.AdmitOrAttach(3, nullptr);
  ASSERT_EQ(replay.admission, ReplyCache::Admission::kReplayed);
  EXPECT_EQ(replay.frame, std::vector<uint8_t>{0xAA});
}

// Regression (pre-fix failing): an in-flight entry whose primary died
// without Complete/Abort pinned its key forever — every retry "joined" an
// execution that would never finish. Past deadline + grace the retry must
// take over as a fresh primary and the stranded joiners must be returned
// for erroring out.
TEST(ReplyCacheTest, RetryTakesOverAbandonedPrimaryPastDeadline) {
  ReplyCache::Options o = CacheOptions(16, 30.0);
  o.grace_seconds = 0.0;
  ReplyCache cache(o);
  // Admit with a deadline slightly in the future so the joiner can attach
  // while the entry is still live, then let the deadline lapse.
  const auto deadline =
      ReplyCache::Clock::now() + std::chrono::milliseconds(40);
  auto dead = cache.AdmitOrAttach(42, nullptr, deadline);
  ASSERT_EQ(dead.admission, ReplyCache::Admission::kPrimary);
  int joiner_calls = 0;
  ASSERT_EQ(cache
                .AdmitOrAttach(42,
                               [&](std::vector<uint8_t>) { ++joiner_calls; })
                .admission,
            ReplyCache::Admission::kJoined);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  auto retry = cache.AdmitOrAttach(
      42, nullptr, ReplyCache::Clock::now() + std::chrono::seconds(5));
  EXPECT_EQ(retry.admission, ReplyCache::Admission::kPrimary);
  ASSERT_EQ(retry.expired_waiters.size(), 1u);
  retry.expired_waiters[0]({});
  EXPECT_EQ(joiner_calls, 1);

  // The dead primary's late Complete carries a stale generation: it must
  // not hijack (or cache a frame for) the readmitted execution.
  auto stale = cache.Complete(42, dead.generation, {0xDE},
                              /*cache_for_replay=*/true);
  EXPECT_TRUE(stale.empty());
  EXPECT_EQ(cache.CompletedEntries(), 0u);
  (void)cache.Complete(42, retry.generation, {0xAD},
                       /*cache_for_replay=*/true);
  auto replay = cache.AdmitOrAttach(42, nullptr);
  ASSERT_EQ(replay.admission, ReplyCache::Admission::kReplayed);
  EXPECT_EQ(replay.frame, std::vector<uint8_t>{0xAD});
}

TEST(ReplyCacheTest, DeadlinelessInFlightEntriesAreNeverPurged) {
  ReplyCache::Options o = CacheOptions(16, 30.0);
  o.grace_seconds = 0.0;
  ReplyCache cache(o);
  ASSERT_EQ(cache.AdmitOrAttach(8, nullptr).admission,
            ReplyCache::Admission::kPrimary);
  // No deadline was attached, so the entry cannot expire.
  EXPECT_EQ(cache.AdmitOrAttach(8, [](std::vector<uint8_t>) {}).admission,
            ReplyCache::Admission::kJoined);
  EXPECT_EQ(cache.InFlightEntries(), 1u);
}

// Abandoned entries are also swept when *other* keys are admitted, so a
// dead key's waiters do not wait for someone to retry that exact key.
TEST(ReplyCacheTest, AdmissionSweepPurgesAbandonedOtherKeys) {
  ReplyCache::Options o = CacheOptions(16, 30.0);
  o.grace_seconds = 0.0;
  ReplyCache cache(o);
  const auto deadline =
      ReplyCache::Clock::now() + std::chrono::milliseconds(40);
  ASSERT_EQ(cache.AdmitOrAttach(1, nullptr, deadline).admission,
            ReplyCache::Admission::kPrimary);
  int joiner_calls = 0;
  ASSERT_EQ(cache
                .AdmitOrAttach(1,
                               [&](std::vector<uint8_t>) { ++joiner_calls; })
                .admission,
            ReplyCache::Admission::kJoined);
  EXPECT_EQ(cache.InFlightEntries(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  auto other = cache.AdmitOrAttach(2, nullptr);
  EXPECT_EQ(other.admission, ReplyCache::Admission::kPrimary);
  ASSERT_EQ(other.expired_waiters.size(), 1u);
  other.expired_waiters[0]({});
  EXPECT_EQ(joiner_calls, 1);
  EXPECT_EQ(cache.InFlightEntries(), 1u);  // only key 2 remains
}

TEST(ReplyCacheTest, StaleGenerationAbortIsIgnored) {
  ReplyCache::Options o = CacheOptions(16, 30.0);
  o.grace_seconds = 0.0;
  ReplyCache cache(o);
  const auto expired_deadline =
      ReplyCache::Clock::now() - std::chrono::milliseconds(10);
  auto dead = cache.AdmitOrAttach(6, nullptr, expired_deadline);
  ASSERT_EQ(dead.admission, ReplyCache::Admission::kPrimary);
  auto retry = cache.AdmitOrAttach(
      6, nullptr, ReplyCache::Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(retry.admission, ReplyCache::Admission::kPrimary);
  // The stale Abort must not tear down the readmitted entry.
  EXPECT_TRUE(cache.Abort(6, dead.generation).empty());
  EXPECT_EQ(cache.AdmitOrAttach(6, [](std::vector<uint8_t>) {}).admission,
            ReplyCache::Admission::kJoined);
}

// Regression (pre-fix failing): the sweep walked in-flight entries in
// admission order and stopped at the first live one, so an abandoned
// entry admitted after a deadline-less one, or after one with a later
// deadline, stayed hidden and its joiners were never answered.
TEST(ReplyCacheTest, SweepReachesAbandonedEntriesBehindLiveOnes) {
  for (bool blocker_has_deadline : {false, true}) {
    SCOPED_TRACE(blocker_has_deadline ? "later deadline" : "no deadline");
    ReplyCache cache(CacheOptions(16, 0.0));
    const auto now = ReplyCache::Clock::now();
    ASSERT_EQ(cache
                  .AdmitOrAttach(1, nullptr,
                                 blocker_has_deadline
                                     ? now + std::chrono::seconds(30)
                                     : ReplyCache::Clock::time_point::max())
                  .admission,
              ReplyCache::Admission::kPrimary);
    ASSERT_EQ(
        cache.AdmitOrAttach(2, nullptr, now + std::chrono::milliseconds(40))
            .admission,
        ReplyCache::Admission::kPrimary);
    int joiner_calls = 0;
    ASSERT_EQ(cache
                  .AdmitOrAttach(2,
                                 [&](std::vector<uint8_t>) { ++joiner_calls; })
                  .admission,
              ReplyCache::Admission::kJoined);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));

    auto other = cache.AdmitOrAttach(3, nullptr);
    EXPECT_EQ(other.admission, ReplyCache::Admission::kPrimary);
    ASSERT_EQ(other.expired_waiters.size(), 1u);
    other.expired_waiters[0]({});
    EXPECT_EQ(joiner_calls, 1);
    EXPECT_EQ(cache.InFlightEntries(), 2u);  // keys 1 and 3
  }
}

// A completed reply lives until its request's deadline plus the grace:
// a duplicate that arrives later cannot belong to a call still waiting.
TEST(ReplyCacheTest, CompletedReplyExpiresAtItsRequestDeadline) {
  ReplyCache cache(CacheOptions(16, 0.0));
  const auto deadline =
      ReplyCache::Clock::now() + std::chrono::milliseconds(40);
  auto primary = cache.AdmitOrAttach(12, nullptr, deadline);
  ASSERT_EQ(primary.admission, ReplyCache::Admission::kPrimary);
  (void)cache.Complete(12, primary.generation, {0x12},
                       /*cache_for_replay=*/true);
  EXPECT_EQ(cache.AdmitOrAttach(12, nullptr, deadline).admission,
            ReplyCache::Admission::kReplayed);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(cache.AdmitOrAttach(12, nullptr).admission,
            ReplyCache::Admission::kPrimary);
  EXPECT_EQ(cache.CompletedEntries(), 0u);
}

// --- service-level admission behavior ---

class AdmissionServiceTest : public ::testing::Test {
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

  struct Request {
    std::vector<uint8_t> query;
    std::vector<std::vector<uint8_t>> uploads;
  };

  static Request MakeRequest(Rng& rng) {
    Request req;
    PartitionPlan plan = SolvePartition(3, 4, 8).value();
    QueryMessage query;
    query.k = 3;
    query.theta0 = 0.05;
    query.aggregate = AggregateKind::kSum;
    query.plan = plan;
    query.pk = keys_->pub;
    std::vector<int> x(plan.alpha, 1);
    Encryptor enc(keys_->pub);
    query.indicator =
        EncryptIndicator(enc, QueryIndex(plan, 1, x), plan.delta_prime, rng)
            .value();
    req.query = query.Encode().value();
    for (uint32_t u = 0; u < 3; ++u) {
      LocationSetMessage msg;
      msg.user_id = u;
      for (int i = 0; i < 4; ++i) {
        msg.locations.push_back({rng.NextDouble(), rng.NextDouble()});
      }
      req.uploads.push_back(msg.Encode());
    }
    return req;
  }

  static LspDatabase* db_;
  static KeyPair* keys_;
};
LspDatabase* AdmissionServiceTest::db_ = nullptr;
KeyPair* AdmissionServiceTest::keys_ = nullptr;

TEST_F(AdmissionServiceTest, ShedsDoomedRequestBeforeAnyCryptoRuns) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  Rng rng(10);
  Request req = MakeRequest(rng);
  ServiceRequest sreq;
  sreq.query = req.query;
  sreq.uploads = req.uploads;
  // A nanosecond budget cannot fit any predicted execution: the request
  // must be rejected at Submit, before a single ciphertext is decoded.
  sreq.deadline_seconds = 1e-9;

  std::vector<uint8_t> frame;
  bool admitted = service.Submit(std::move(sreq), [&](std::vector<uint8_t> f) {
    frame = std::move(f);
  });
  EXPECT_FALSE(admitted);

  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kOverloaded);
  EXPECT_GT(decoded.error.retry_after_ms, 0u);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.served, 0u);
  // Shedding never started crypto, so nothing was abandoned mid-flight.
  EXPECT_EQ(stats.abandoned_executing, 0u);
}

TEST_F(AdmissionServiceTest, UndecodableQueryIsMalformedNotShed) {
  // theta0 = 2.0 fails QueryMessage::Decode, so admission must not price
  // the query: a shed would reply with a retryable kOverloaded, while the
  // worker's decode replies with a terminal kMalformed.
  auto model = std::make_shared<CostModel>();
  ServiceConfig config;
  config.workers = 1;
  config.cost_model = model;
  LspService service(*db_, config);

  Rng rng(16);
  Request req = MakeRequest(rng);
  // A well-formed query with this header would be predicted at 60 s,
  // past the 30 s budget below.
  model->SeedPrior(CostFeatures::FromHeader(PeekQueryHeader(req.query).value()),
                   60.0);
  QueryMessage query = QueryMessage::Decode(req.query).value();
  query.theta0 = 2.0;
  ServiceRequest sreq;
  sreq.query = query.Encode().value();
  sreq.uploads = req.uploads;
  sreq.deadline_seconds = 30.0;

  ResponseFrame decoded =
      ResponseFrame::Decode(service.Call(std::move(sreq))).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kMalformed);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(AdmissionServiceTest, GenerousDeadlineIsNotShed) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  Rng rng(11);
  Request req = MakeRequest(rng);
  ServiceRequest sreq;
  sreq.query = req.query;
  sreq.uploads = req.uploads;
  sreq.deadline_seconds = 30.0;

  auto frame = service.Call(std::move(sreq));
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  EXPECT_FALSE(decoded.is_error);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.served, 1u);
  // The completed execution fed the model.
  EXPECT_EQ(stats.cost_observations, 1u);
}

TEST_F(AdmissionServiceTest, DedupJoinsInFlightAndRepliesBothLegsIdentically) {
  ServiceConfig config;
  config.workers = 1;
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool primary_entered = false;
  config.test_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(m);
    primary_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  LspService service(*db_, config);

  Rng rng(12);
  Request req = MakeRequest(rng);

  std::mutex frames_mu;
  std::condition_variable frames_cv;
  std::vector<std::vector<uint8_t>> frames;
  auto submit_leg = [&] {
    ServiceRequest sreq;
    sreq.query = req.query;
    sreq.uploads = req.uploads;
    sreq.idempotency_key = 0xF00Dull;
    ASSERT_TRUE(service.Submit(std::move(sreq), [&](std::vector<uint8_t> f) {
      std::lock_guard<std::mutex> lock(frames_mu);
      frames.push_back(std::move(f));
      frames_cv.notify_all();
    }));
  };

  submit_leg();  // primary
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return primary_entered; });
  }
  submit_leg();  // duplicate joins the held primary
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(frames_mu);
    frames_cv.wait(lock, [&] { return frames.size() == 2; });
  }

  // One execution, two legs, bit-identical frames.
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_FALSE(ResponseFrame::Decode(frames[0]).value().is_error);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.dedup_joins, 1u);

  // A third submission after completion replays from the cache without
  // touching the queue (the single worker is idle; still only 1 served).
  ServiceRequest sreq;
  sreq.query = req.query;
  sreq.uploads = req.uploads;
  sreq.idempotency_key = 0xF00Dull;
  std::vector<uint8_t> replayed;
  ASSERT_TRUE(service.Submit(std::move(sreq), [&](std::vector<uint8_t> f) {
    replayed = std::move(f);
  }));
  EXPECT_EQ(replayed, frames[0]);
  stats = service.Stats();
  EXPECT_EQ(stats.dedup_replays, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST_F(AdmissionServiceTest, DedupDisabledRunsEveryCopy) {
  ServiceConfig config;
  config.workers = 1;
  LspService service(*db_, config);

  Rng rng(13);
  Request req = MakeRequest(rng);
  for (int i = 0; i < 2; ++i) {
    ServiceRequest sreq;
    sreq.query = req.query;
    sreq.uploads = req.uploads;
    auto frame = service.Call(std::move(sreq));
    EXPECT_FALSE(ResponseFrame::Decode(frame).value().is_error);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.dedup_joins, 0u);
  EXPECT_EQ(stats.dedup_replays, 0u);
}

// Regression (pre-fix hanging): a primary stuck in execution past its
// deadline pinned the idempotency key, so joined waiters were stranded and
// retries kept "joining" forever. Now a retry purges the abandoned entry:
// stranded waiters get kDeadlineExceeded and the retry runs as a fresh
// primary.
TEST_F(AdmissionServiceTest, RetryPurgesAbandonedDedupPrimary) {
  ServiceConfig config;
  config.workers = 1;
  config.reply_cache_grace_seconds = 0.0;
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  bool block_next = true;
  config.test_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(m);
    if (!block_next) return;  // only the doomed primary is held
    block_next = false;
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  LspService service(*db_, config);

  Rng rng(15);
  Request req = MakeRequest(rng);
  auto submit = [&](double deadline, LspService::Callback done) {
    ServiceRequest sreq;
    sreq.query = req.query;
    sreq.uploads = req.uploads;
    sreq.idempotency_key = 0xDEADull;
    sreq.deadline_seconds = deadline;
    ASSERT_TRUE(service.Submit(std::move(sreq), std::move(done)));
  };

  std::vector<uint8_t> primary_frame;
  submit(0.2, [&](std::vector<uint8_t> f) { primary_frame = std::move(f); });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }
  std::mutex frames_mu;
  std::condition_variable frames_cv;
  std::vector<uint8_t> joiner_frame;
  submit(0.2, [&](std::vector<uint8_t> f) {
    std::lock_guard<std::mutex> lock(frames_mu);
    joiner_frame = std::move(f);
    frames_cv.notify_all();
  });
  EXPECT_EQ(service.Stats().dedup_joins, 1u);

  // Let the primary's deadline (and the zero grace) elapse while it is
  // still stuck executing, then retry the same key.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  std::vector<uint8_t> retry_frame;
  submit(30.0, [&](std::vector<uint8_t> f) {
    std::lock_guard<std::mutex> lock(frames_mu);
    retry_frame = std::move(f);
    frames_cv.notify_all();
  });
  {
    // The stranded joiner is errored out at the retry's admission, before
    // the stuck primary ever finishes.
    std::unique_lock<std::mutex> lock(frames_mu);
    frames_cv.wait(lock, [&] { return !joiner_frame.empty(); });
  }
  ResponseFrame joined = ResponseFrame::Decode(joiner_frame).value();
  ASSERT_TRUE(joined.is_error);
  EXPECT_EQ(joined.error.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().dedup_purged, 1u);

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(frames_mu);
    frames_cv.wait(lock, [&] { return !retry_frame.empty(); });
  }
  // The retry ran as a fresh primary and got a real answer; the stale
  // primary's late completion could not hijack the readmitted key.
  EXPECT_FALSE(ResponseFrame::Decode(retry_frame).value().is_error);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.dedup_purged, 1u);
  service.Shutdown();
}

TEST_F(AdmissionServiceTest, RetryAfterHintOverrideIsHonored) {
  ServiceConfig config;
  config.workers = 1;
  config.retry_after_hint_ms = 123;
  LspService service(*db_, config);

  Rng rng(14);
  Request req = MakeRequest(rng);
  ServiceRequest sreq;
  sreq.query = req.query;
  sreq.uploads = req.uploads;
  sreq.deadline_seconds = 1e-9;  // forces a shed
  std::vector<uint8_t> frame;
  EXPECT_FALSE(service.Submit(std::move(sreq), [&](std::vector<uint8_t> f) {
    frame = std::move(f);
  }));
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.retry_after_ms, 123u);
}

TEST_F(AdmissionServiceTest, StatsExposeConcurrencyLimitAndAimdCounters) {
  // The limiter starts wide open at max_concurrency, so a fresh service
  // can only move by *decreasing*: make every completion blow the p99
  // target and watch the limit walk down toward min_concurrency.
  ServiceConfig config;
  config.workers = 2;
  config.aimd_window = 1;            // every completion is a decision
  config.target_p99_seconds = 1e-9;  // everything is "slow" -> decreases
  config.max_concurrency = 8;
  LspService service(*db_, config);
  EXPECT_EQ(service.Stats().concurrency_limit, 8);

  Rng rng(15);
  for (int i = 0; i < 3; ++i) {
    Request req = MakeRequest(rng);
    ServiceRequest sreq;
    sreq.query = req.query;
    sreq.uploads = req.uploads;
    auto frame = service.Call(std::move(sreq));
    EXPECT_FALSE(ResponseFrame::Decode(frame).value().is_error);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.aimd_decreases, 3u);
  EXPECT_EQ(stats.concurrency_limit, 2);  // floor(floor(floor(8*.7)*.7)*.7)
  EXPECT_EQ(stats.cost_observations, 3u);
}

}  // namespace
}  // namespace ppgnn
