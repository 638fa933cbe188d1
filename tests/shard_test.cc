// Tests for the sharded scatter-gather cluster (ShardedLspService).
//
// The load-bearing property is exactness: partitioning the POI space and
// merging per-shard top-k lists must not change a single bit of the
// served answer. The S=1 suite checks frames (and decrypted POIs) are
// byte-identical to a plain LspService over the same POIs, across
// aggregates and both protocol variants; the S=4 suite checks a real
// multi-shard merge still reproduces the S=1 frames. The failure-path
// suite drives shard links through failpoints: a dead shard degrades the
// merge (query still answered, degraded_shards counted), while an
// all-shards outage is the only way a query errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "service/shard_coordinator.h"
#include "service/workload.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

// A replica that never answers in time: each leg ends in
// kDeadlineExceeded once the deadline it carries has passed.
class DeadlineExceededLink : public ServiceLink {
 public:
  ~DeadlineExceededLink() override { Close(); }

  bool Submit(ServiceRequest request, Callback done) override {
    std::lock_guard<std::mutex> lock(mu_);
    legs_.emplace_back(
        [seconds = request.deadline_seconds, done = std::move(done)] {
          std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
          ErrorMessage error;
          error.code = WireError::kDeadlineExceeded;
          error.detail = "leg deadline passed";
          done(ResponseFrame::WrapError(error));
        });
    return true;
  }

  void Close() override {
    std::vector<std::thread> legs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      legs.swap(legs_);
    }
    for (std::thread& leg : legs) leg.join();
  }

 private:
  std::mutex mu_;
  std::vector<std::thread> legs_;
};

size_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pois_ = new std::vector<Poi>(GenerateSequoiaLike(2000, 901));
    Rng rng(902);
    keys_ = new KeyPair(GenerateKeyPair(256, rng).value());
  }
  static void TearDownTestSuite() {
    delete pois_;
    delete keys_;
  }
  void TearDown() override { FailpointClearAll(); }

  static ProtocolParams GroupParams(AggregateKind aggregate,
                                    bool sanitize = true) {
    ProtocolParams params;
    params.n = 3;
    params.d = 4;
    params.delta = 8;
    params.k = 3;
    params.key_bits = keys_->pub.key_bits;
    params.aggregate = aggregate;
    params.sanitize = sanitize;
    return params;
  }

  static ServiceRequest MakeRequest(Variant variant, AggregateKind aggregate,
                                    uint64_t seed, bool sanitize = true,
                                    std::vector<Point>* real = nullptr,
                                    const RequestWireOptions& wire = {}) {
    Rng rng(seed);
    ProtocolParams params = GroupParams(aggregate, sanitize);
    std::vector<Point> group;
    for (int i = 0; i < params.n; ++i) {
      group.push_back({rng.NextDouble(), rng.NextDouble()});
    }
    if (real != nullptr) *real = group;
    return BuildServiceRequest(variant, params, group, *keys_, rng, wire)
        .value();
  }

  static ServiceConfig FrontConfig(bool sanitize = true) {
    ServiceConfig config;
    config.workers = 2;
    config.sanitize = sanitize;
    return config;
  }

  static ShardClusterConfig ClusterConfig(int shards, bool sanitize = true) {
    ShardClusterConfig config;
    config.shards = shards;
    config.front = FrontConfig(sanitize);
    config.shard.workers = 2;
    config.link_policy.max_attempts = 2;
    return config;
  }

  static ShardClusterConfig ReplicatedConfig(int shards, int replicas,
                                             bool sanitize = true) {
    ShardClusterConfig config = ClusterConfig(shards, sanitize);
    config.replicas = replicas;
    return config;
  }

  static std::vector<uint8_t> FrameOf(ShardedLspService& cluster,
                                      const ServiceRequest& request) {
    return cluster.Call(request);
  }

  static std::vector<Poi>* pois_;
  static KeyPair* keys_;
};
std::vector<Poi>* ShardTest::pois_ = nullptr;
KeyPair* ShardTest::keys_ = nullptr;

// --- partitioning ---

TEST_F(ShardTest, PartitionCoversEveryPoiExactlyOnce) {
  std::vector<Poi> pois(pois_->begin(), pois_->begin() + 101);
  for (int shards : {1, 2, 3, 5}) {
    auto slices = PartitionPoisForShards(pois, shards);
    ASSERT_EQ(slices.size(), static_cast<size_t>(shards));
    std::multiset<uint32_t> seen;
    size_t min_size = pois.size(), max_size = 0;
    for (const auto& slice : slices) {
      min_size = std::min(min_size, slice.size());
      max_size = std::max(max_size, slice.size());
      for (const Poi& poi : slice) seen.insert(poi.id);
    }
    // Near-equal slices; every POI in exactly one slice.
    EXPECT_LE(max_size - min_size, 1u) << "shards=" << shards;
    ASSERT_EQ(seen.size(), pois.size()) << "shards=" << shards;
    for (const Poi& poi : pois) EXPECT_EQ(seen.count(poi.id), 1u);
    // Slices are contiguous in x: a later slice never starts left of an
    // earlier slice's end.
    for (size_t j = 1; j < slices.size(); ++j) {
      if (slices[j].empty() || slices[j - 1].empty()) continue;
      EXPECT_GE(slices[j].front().location.x,
                slices[j - 1].back().location.x);
    }
  }
}

TEST_F(ShardTest, PartitionWithMoreShardsThanPoisLeavesEmptySlices) {
  std::vector<Poi> pois(pois_->begin(), pois_->begin() + 3);
  auto slices = PartitionPoisForShards(pois, 5);
  ASSERT_EQ(slices.size(), 5u);
  EXPECT_EQ(slices[0].size(), 1u);
  EXPECT_EQ(slices[1].size(), 1u);
  EXPECT_EQ(slices[2].size(), 1u);
  EXPECT_TRUE(slices[3].empty());
  EXPECT_TRUE(slices[4].empty());
}

// --- S=1 bit-identity against the plain single-node service ---

TEST_F(ShardTest, SingleShardClusterIsBitIdenticalToPlainService) {
  LspDatabase db(*pois_);
  uint64_t seed = 40;
  for (AggregateKind aggregate :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    ServiceRequest request =
        MakeRequest(Variant::kPpgnn, aggregate, seed++);

    LspService plain(db, FrontConfig());
    std::vector<uint8_t> plain_frame = plain.Call(request);

    ShardedLspService cluster(*pois_, ClusterConfig(1));
    std::vector<uint8_t> cluster_frame = FrameOf(cluster, request);

    // Frames — ciphertext bytes included — must match bit for bit: same
    // merge order, same sanitize seed and draws, same packing, same
    // deterministic homomorphic selection.
    ASSERT_EQ(cluster_frame, plain_frame)
        << "aggregate=" << static_cast<int>(aggregate);

    Decryptor dec(keys_->pub, keys_->sec);
    ServedReply plain_reply =
        ParseServedReply(plain_frame, *keys_, dec, /*layered=*/false).value();
    ServedReply cluster_reply =
        ParseServedReply(cluster_frame, *keys_, dec, /*layered=*/false)
            .value();
    ASSERT_TRUE(plain_reply.ok) << plain_reply.error.detail;
    ASSERT_TRUE(cluster_reply.ok) << cluster_reply.error.detail;
    ASSERT_EQ(cluster_reply.pois.size(), plain_reply.pois.size());
    for (size_t i = 0; i < cluster_reply.pois.size(); ++i) {
      EXPECT_EQ(cluster_reply.pois[i].x, plain_reply.pois[i].x);
      EXPECT_EQ(cluster_reply.pois[i].y, plain_reply.pois[i].y);
    }
    EXPECT_EQ(cluster.Stats().degraded_shards, 0u);
  }
}

TEST_F(ShardTest, SingleShardClusterIsBitIdenticalUnderOpt) {
  LspDatabase db(*pois_);
  ServiceRequest request =
      MakeRequest(Variant::kPpgnnOpt, AggregateKind::kSum, 50);

  LspService plain(db, FrontConfig());
  std::vector<uint8_t> plain_frame = plain.Call(request);

  ShardedLspService cluster(*pois_, ClusterConfig(1));
  std::vector<uint8_t> cluster_frame = FrameOf(cluster, request);
  ASSERT_EQ(cluster_frame, plain_frame);

  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(cluster_frame, *keys_, dec, /*layered=*/true).value();
  ASSERT_TRUE(reply.ok) << reply.error.detail;
  EXPECT_FALSE(reply.pois.empty());
}

TEST_F(ShardTest, SanitizingClusterReportsSanitationWork) {
  // The cluster sanitizes the merged answers itself, so its totals must
  // carry the same sanitation work as the plain service — time included.
  // front.lsp_threads fans that work out as lsp_threads does on a single
  // node: same frame and counters, plus worker CPU time.
  LspDatabase db(*pois_);
  ServiceRequest request =
      MakeRequest(Variant::kPpgnn, AggregateKind::kSum, 55);

  std::vector<uint8_t> serial_frame;
  QueryInstrumentation serial;
  for (int threads : {1, 4}) {
    ServiceConfig front = FrontConfig();
    front.lsp_threads = threads;
    LspService plain(db, front);
    std::vector<uint8_t> plain_frame = plain.Call(request);
    ShardClusterConfig config = ClusterConfig(2);
    config.front.lsp_threads = threads;
    ShardedLspService cluster(*pois_, config);
    ASSERT_EQ(FrameOf(cluster, request), plain_frame) << "threads=" << threads;

    const QueryInstrumentation want = plain.Stats().totals;
    const QueryInstrumentation got = cluster.Stats().totals;
    ASSERT_GT(want.sanitize_tests, 0u);
    EXPECT_EQ(got.sanitize_samples, want.sanitize_samples);
    EXPECT_EQ(got.sanitize_tests, want.sanitize_tests);
    EXPECT_GT(got.sanitize_seconds, 0.0);
    if (threads == 1) {
      serial_frame = plain_frame;
      serial = got;
      continue;
    }
    EXPECT_EQ(plain_frame, serial_frame);
    EXPECT_EQ(got.sanitize_samples, serial.sanitize_samples);
    EXPECT_EQ(got.sanitize_tests, serial.sanitize_tests);
    EXPECT_GT(got.lsp_parallel_seconds, 0.0);
  }
}

// --- multi-shard merge exactness ---

TEST_F(ShardTest, FourShardClusterReproducesSingleShardFrames) {
  uint64_t seed = 60;
  for (AggregateKind aggregate :
       {AggregateKind::kSum, AggregateKind::kMin}) {
    ServiceRequest request =
        MakeRequest(Variant::kPpgnn, aggregate, seed++);
    ShardedLspService one(*pois_, ClusterConfig(1));
    ShardedLspService four(*pois_, ClusterConfig(4));
    std::vector<uint8_t> one_frame = FrameOf(one, request);
    std::vector<uint8_t> four_frame = FrameOf(four, request);
    EXPECT_EQ(four_frame, one_frame)
        << "aggregate=" << static_cast<int>(aggregate);
    EXPECT_EQ(four.Stats().degraded_shards, 0u);
  }
}

TEST_F(ShardTest, TiedCostsKeepClusterFramesBitIdentical) {
  // 600 POIs on a 16 x 16 grid, so many share a point and tie in cost.
  // Each shard's MBM list must come out in the (cost, id) order the
  // front merges by, or a tie reorders or drops POIs against the plain
  // service.
  Rng rng(910);
  std::vector<uint32_t> ids(600);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  rng.Shuffle(ids);
  std::vector<Poi> grid;
  for (uint32_t id : ids) {
    grid.push_back({id, {static_cast<double>(rng.NextBelow(16)) / 16.0,
                         static_cast<double>(rng.NextBelow(16)) / 16.0}});
  }
  LspDatabase db(grid);
  LspService plain(db, FrontConfig(/*sanitize=*/false));
  ShardedLspService one(grid, ClusterConfig(1, /*sanitize=*/false));
  ShardedLspService two(grid, ClusterConfig(2, /*sanitize=*/false));
  uint64_t seed = 920;
  for (AggregateKind aggregate :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    for (int request_no = 0; request_no < 10; ++request_no) {
      ServiceRequest request = MakeRequest(Variant::kPpgnn, aggregate, seed++,
                                           /*sanitize=*/false);
      std::vector<uint8_t> plain_frame = plain.Call(request);
      EXPECT_EQ(FrameOf(one, request), plain_frame)
          << "S=1 aggregate=" << AggregateKindToString(aggregate)
          << " request " << request_no;
      EXPECT_EQ(FrameOf(two, request), plain_frame)
          << "S=2 aggregate=" << AggregateKindToString(aggregate)
          << " request " << request_no;
    }
  }
}

TEST_F(ShardTest, ClusterAnswerMatchesPlainSolverTopK) {
  std::vector<Point> real;
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       70, /*sanitize=*/false, &real);
  ShardedLspService cluster(*pois_, ClusterConfig(4, /*sanitize=*/false));
  std::vector<uint8_t> frame = FrameOf(cluster, request);

  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
  ASSERT_TRUE(reply.ok) << reply.error.detail;

  LspDatabase db(*pois_);
  auto expected = db.solver().Query(real, 3, AggregateKind::kSum);
  ASSERT_EQ(reply.pois.size(), expected.size());
  for (size_t i = 0; i < reply.pois.size(); ++i) {
    EXPECT_NEAR(reply.pois[i].x, expected[i].poi.location.x, 1e-8);
    EXPECT_NEAR(reply.pois[i].y, expected[i].poi.location.y, 1e-8);
  }
}

TEST_F(ShardTest, EmptyShardsAreNeverRouted) {
  std::vector<Poi> few(pois_->begin(), pois_->begin() + 6);
  ShardedLspService cluster(few, ClusterConfig(8, /*sanitize=*/false));
  ASSERT_EQ(cluster.shards(), 8);
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       80, /*sanitize=*/false);
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  EXPECT_FALSE(decoded.is_error) << decoded.error.detail;
  for (int j = 0; j < cluster.shards(); ++j) {
    if (cluster.shard_size(j) == 0) {
      EXPECT_EQ(cluster.shard_service(j).Stats().accepted, 0u)
          << "empty shard " << j << " was routed";
    }
  }
}

TEST_F(ShardTest, UnsanitizableTheta0IsRefusedBeforeAnyShardLeg) {
  // A client that does not sanitize passes its own Validate with
  // theta0 = 0.95, which Eqn 17 cannot size. A sanitizing front must
  // refuse the query while decoding it, before scattering any leg.
  ShardedLspService cluster(*pois_, ClusterConfig(2));
  ProtocolParams params = GroupParams(AggregateKind::kSum, /*sanitize=*/false);
  params.theta0 = 0.95;
  Rng rng(95);
  std::vector<Point> group;
  for (int i = 0; i < params.n; ++i) {
    group.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  ServiceRequest request =
      BuildServiceRequest(Variant::kPpgnn, params, group, *keys_, rng).value();
  const ResponseFrame frame =
      ResponseFrame::Decode(FrameOf(cluster, request)).value();
  ASSERT_TRUE(frame.is_error);
  EXPECT_EQ(frame.error.code, WireError::kMalformed) << frame.error.detail;
  uint64_t legs = 0;
  for (int j = 0; j < cluster.shards(); ++j) {
    legs += cluster.shard_service(j).Stats().accepted;
  }
  EXPECT_EQ(legs, 0u);
}

// --- degraded merges and idempotent fan-out ---

TEST_F(ShardTest, DeadShardDegradesTheMergeButStillServes) {
  ShardedLspService cluster(*pois_, ClusterConfig(4, /*sanitize=*/false));
  // Shard link 1 is hard down: every scatter to it fails before the wire.
  ASSERT_TRUE(FailpointSetFromSpec("shard.link.1=error").ok());

  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       90, /*sanitize=*/false);
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
  // The query completes with an answer (possibly missing the dead
  // shard's POIs) — never an error frame.
  ASSERT_TRUE(reply.ok) << reply.error.detail;
  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.degraded_shards, 1u);
}

TEST_F(ShardTest, AllShardLinksDownFailsTheQuery) {
  ShardedLspService cluster(*pois_, ClusterConfig(2, /*sanitize=*/false));
  ASSERT_TRUE(FailpointSetFromSpec("shard.link.0=error").ok());
  ASSERT_TRUE(FailpointSetFromSpec("shard.link.1=error").ok());

  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       91, /*sanitize=*/false);
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  ASSERT_TRUE(decoded.is_error);
  EXPECT_EQ(decoded.error.code, WireError::kInternal);
}

// --- replicated shard groups: exact answers under replica loss ---

// The tentpole invariant: replicas hold identical slice data and the
// shard wire is deterministic, so a failover changes *zero* answer bits.
TEST_F(ShardTest, ReplicaFailoverKeepsFramesByteIdentical) {
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       100, /*sanitize=*/false);
  ShardedLspService healthy(*pois_, ReplicatedConfig(2, 2, /*sanitize=*/false));
  std::vector<uint8_t> expected = FrameOf(healthy, request);

  // Replica 0 of *every* shard is hard down, so whichever shards the
  // query routes to must fail over to replica 1.
  ShardedLspService cluster(*pois_, ReplicatedConfig(2, 2, /*sanitize=*/false));
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.0.0=error").ok());
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.1.0=error").ok());
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  EXPECT_EQ(frame, expected);

  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.degraded_shards, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.replica_failovers, 1u);
  EXPECT_GE(stats.exact_despite_failures, 1u);
  EXPECT_GE(stats.health_transitions, 1u);
}

// A slow (not dead) primary: the hedge leg to the secondary wins, and
// the winning frame is still byte-identical to the no-failure run.
TEST_F(ShardTest, HedgeWinKeepsFramesByteIdentical) {
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       101, /*sanitize=*/false);
  ShardedLspService healthy(*pois_, ReplicatedConfig(2, 2, /*sanitize=*/false));
  std::vector<uint8_t> expected = FrameOf(healthy, request);

  ShardClusterConfig config = ReplicatedConfig(2, 2, /*sanitize=*/false);
  config.hedge_delay_seconds = 0.005;
  ShardedLspService cluster(*pois_, config);
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.0.0=delay:200").ok());
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.1.0=delay:200").ok());
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  EXPECT_EQ(frame, expected);

  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.degraded_shards, 0u);
  EXPECT_GE(stats.replica_hedge_wins, 1u);
  EXPECT_GE(stats.exact_despite_failures, 1u);

  // The primary fails after the hedge launched, and the backup answers
  // later still: the primary's kInternal is one replica's verdict, so
  // the call waits for the hedge instead of ending on it.
  FailpointClearAll();
  ShardedLspService racing(*pois_, config);
  for (int j = 0; j < 2; ++j) {
    const std::string replica = "shard.replica." + std::to_string(j);
    ASSERT_TRUE(FailpointAddFromSpec(replica + ".0=delay:20").ok());
    ASSERT_TRUE(FailpointAddFromSpec(replica + ".0=error").ok());
    ASSERT_TRUE(FailpointAddFromSpec(replica + ".1=delay:40").ok());
  }
  EXPECT_EQ(FrameOf(racing, request), expected);
  EXPECT_EQ(racing.Stats().degraded_shards, 0u);
}

// Degraded merge is the last tier: it engages (and is counted) only when
// *every* replica of a routed set is down.
TEST_F(ShardTest, WholeReplicaSetDownDegradesTheMerge) {
  ShardedLspService cluster(*pois_, ReplicatedConfig(4, 2, /*sanitize=*/false));
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.1.0=error").ok());
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.1.1=error").ok());

  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       90, /*sanitize=*/false);
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  Decryptor dec(keys_->pub, keys_->sec);
  ServedReply reply =
      ParseServedReply(frame, *keys_, dec, /*layered=*/false).value();
  ASSERT_TRUE(reply.ok) << reply.error.detail;
  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.degraded_shards, 1u);
}

// The set-wide shard.link.<j> failpoint still means "the whole set is
// unreachable" under replication — the designated degraded-merge path.
TEST_F(ShardTest, SetWideLinkFailureDegradesReplicatedMerge) {
  ShardedLspService cluster(*pois_, ReplicatedConfig(4, 2, /*sanitize=*/false));
  ASSERT_TRUE(FailpointSetFromSpec("shard.link.1=error").ok());

  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       90, /*sanitize=*/false);
  std::vector<uint8_t> frame = FrameOf(cluster, request);
  ResponseFrame decoded = ResponseFrame::Decode(frame).value();
  EXPECT_FALSE(decoded.is_error) << decoded.error.detail;
  EXPECT_GE(cluster.Stats().degraded_shards, 1u);
}

// The issue's acceptance scenario: S=4, R=2, the primary replica of one
// shard killed. Every answer is served, zero merges degrade, and every
// frame is byte-identical to the no-failure cluster's.
TEST_F(ShardTest, KillPrimaryAcceptanceServesExactAnswers) {
  ShardedLspService healthy(*pois_, ReplicatedConfig(4, 2, /*sanitize=*/false));
  ShardedLspService cluster(*pois_, ReplicatedConfig(4, 2, /*sanitize=*/false));
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.3.0=error").ok());

  for (uint64_t seed = 110; seed < 115; ++seed) {
    ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                         seed, /*sanitize=*/false);
    std::vector<uint8_t> expected = FrameOf(healthy, request);
    std::vector<uint8_t> frame = FrameOf(cluster, request);
    EXPECT_EQ(frame, expected) << "seed=" << seed;
    ResponseFrame decoded = ResponseFrame::Decode(frame).value();
    EXPECT_FALSE(decoded.is_error) << decoded.error.detail;
  }

  ServiceStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded_shards, 0u);
  EXPECT_GE(stats.exact_despite_failures, 1u);
  EXPECT_GE(stats.replica_failovers, 1u);

  // The ladder surfaced per replica: (3,0) was demoted and never served
  // a winning leg; (3,1) carried the shard.
  bool saw_dead = false, saw_backup = false;
  for (const ServiceStats::ReplicaRow& row : stats.replicas) {
    if (row.shard == 3 && row.replica == 0) {
      saw_dead = true;
      EXPECT_NE(row.health, 0);  // not healthy
      EXPECT_EQ(row.served, 0u);
      EXPECT_GE(row.transitions, 1u);
    }
    if (row.shard == 3 && row.replica == 1) {
      saw_backup = true;
      EXPECT_GE(row.served, 1u);
    }
  }
  EXPECT_TRUE(saw_dead);
  EXPECT_TRUE(saw_backup);
}

// Half-open recovery end to end: kill the primary, drive it down, lift
// the failpoint, probe — the replica rejoins and serves again.
TEST_F(ShardTest, ProbeRecoversAKilledReplica) {
  ShardClusterConfig config = ReplicatedConfig(1, 2, /*sanitize=*/false);
  config.health.down_after = 1;
  config.health.down_cooldown_seconds = 0.0;
  ShardedLspService cluster(*pois_, config);
  ASSERT_TRUE(FailpointSetFromSpec("shard.replica.0.0=error").ok());

  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       120, /*sanitize=*/false);
  std::vector<uint8_t> first = FrameOf(cluster, request);
  ResponseFrame decoded = ResponseFrame::Decode(first).value();
  ASSERT_FALSE(decoded.is_error) << decoded.error.detail;
  ReplicaSet& set = cluster.replica_set(0);
  ASSERT_EQ(set.health().state(0), ReplicaHealth::kDown);

  FailpointClearAll();
  set.ProbeOnce();  // half-open probe succeeds: down -> suspect
  EXPECT_EQ(set.health().state(0), ReplicaHealth::kSuspect);
  set.ProbeOnce();  // second success: suspect -> healthy
  EXPECT_EQ(set.health().state(0), ReplicaHealth::kHealthy);

  const uint64_t served_before = set.Stats().replicas[0].served;
  std::vector<uint8_t> second = FrameOf(cluster, request);
  EXPECT_EQ(second, first);  // recovery changes no bits either
  EXPECT_GE(set.Stats().replicas[0].served, served_before + 1);
}

// The request's deadline bounds the whole replica-set call: a replica
// that answers kDeadlineExceeded only once a leg's deadline has passed
// must not hold the front for a full deadline per retry.
TEST_F(ShardTest, RequestDeadlineBoundsTheWholeShardCall) {
  ShardClusterConfig config = ClusterConfig(1, /*sanitize=*/false);
  config.link_policy = RetryPolicy();  // 4 attempts, no total budget
  config.link_factory = [](int, int) -> std::unique_ptr<ServiceLink> {
    return std::make_unique<DeadlineExceededLink>();
  };
  ShardedLspService cluster(*pois_, config);
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       130, /*sanitize=*/false);
  request.deadline_seconds = 0.2;

  const auto start = std::chrono::steady_clock::now();
  ResponseFrame decoded =
      ResponseFrame::Decode(FrameOf(cluster, request)).value();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_TRUE(decoded.is_error);
  EXPECT_LT(elapsed, 0.35);
}

// A hedge that loses leaves nothing behind: hedging every shard leg for
// 200 queries must not grow the process's memory map.
TEST_F(ShardTest, LosingHedgesLeaveNoMappingsBehind) {
  ShardClusterConfig config = ReplicatedConfig(4, 2, /*sanitize=*/false);
  config.hedge_delay_seconds = 1e-6;
  ShardedLspService cluster(*pois_, config);
  std::vector<ServiceRequest> requests;
  for (uint64_t seed = 140; seed < 150; ++seed) {
    requests.push_back(MakeRequest(Variant::kPpgnn, AggregateKind::kSum, seed,
                                   /*sanitize=*/false));
  }
  for (int i = 0; i < 20; ++i) FrameOf(cluster, requests[i % 10]);

  const size_t maps_before = MappedRegions();
  for (int i = 0; i < 200; ++i) {
    ResponseFrame decoded =
        ResponseFrame::Decode(FrameOf(cluster, requests[i % 10])).value();
    ASSERT_FALSE(decoded.is_error) << decoded.error.detail;
  }
  EXPECT_LT(MappedRegions(), maps_before + 64);

  uint64_t hedges = 0;
  for (int j = 0; j < cluster.shards(); ++j) {
    hedges += cluster.replica_set(j).Stats().hedges_launched;
  }
  EXPECT_GT(hedges, 0u);
}

TEST_F(ShardTest, ParentIdempotencyKeyCoalescesShardLegs) {
  // The front keeps no completed reply, so the handler really runs
  // twice; the derived per-shard keys must then coalesce the second
  // fan-out at the shards.
  ShardClusterConfig config = ClusterConfig(2, /*sanitize=*/false);
  config.front.reply_cache_grace_seconds = 0;
  ShardedLspService cluster(*pois_, config);

  RequestWireOptions wire;
  wire.idempotency_key = 0xC0FFEE;
  ServiceRequest request = MakeRequest(Variant::kPpgnn, AggregateKind::kSum,
                                       92, /*sanitize=*/false, nullptr, wire);
  std::vector<uint8_t> first = FrameOf(cluster, request);
  std::vector<uint8_t> second = FrameOf(cluster, request);
  EXPECT_EQ(first, second);

  uint64_t replays = 0;
  for (int j = 0; j < cluster.shards(); ++j) {
    replays += cluster.shard_service(j).Stats().dedup_replays;
  }
  EXPECT_GE(replays, 1u);
}

}  // namespace
}  // namespace ppgnn
