// Service-layer throughput: QPS and latency quantiles of the LspService
// front-end as the worker pool grows, under a fixed closed-loop client
// population. Demonstrates that inter-query parallelism (whole queries
// on concurrent workers) scales on top of the single-query path, and
// reports the admission/latency counters the service exposes.
//
// Knobs (in addition to bench_util.h's):
//   PPGNN_BENCH_CLIENTS   closed-loop client threads (default 8)
//   PPGNN_BENCH_REQUESTS  requests per client per data point (default 4)
//
// Overload mode (`bench_service_throughput --overload`): measures the
// admission-control story instead of the worker-pool story. A closed
// loop first measures sustainable capacity, then open-loop phases offer
// 0.5x / 1x / 2x / 4x that rate with per-request deadlines and report
// goodput (answers inside the deadline), sheds, queue expiries, and the
// two acceptance invariants from EXPERIMENTS.md: goodput at 2x >= 80% of
// goodput at 1x, and zero queries abandoned after starting crypto.
// Extra knobs:
//   PPGNN_BENCH_WORKERS            service workers in overload mode (4)
//   PPGNN_BENCH_DEADLINE_MS        per-request deadline (500)
//   PPGNN_BENCH_OVERLOAD_SECONDS   seconds per offered-load phase (3)
//
// Cluster mode (`bench_service_throughput --cluster`): the scatter-gather
// story. For S in {1, 2, 4, 8} shards it measures closed-loop capacity,
// then offers 1x / 2x / 4x that rate open-loop and reports goodput and
// the degraded-merge counter. Two kill phases follow at 1x offered load:
//   * kill-link (R=1): one whole shard link hard down via shard.link.3.
//     Acceptance: zero failed queries and degraded_shards > 0 — the PR 7
//     degraded-merge behaviour.
//   * kill-primary (S=4, R=PPGNN_BENCH_REPLICAS, default 2): only replica
//     0 of shard 3 dies, via shard.replica.3.0. Acceptance: zero failed
//     queries AND zero degraded merges — health-driven failover keeps
//     every answer exact.
// Extra knob: PPGNN_BENCH_REPLICAS  replication factor for the
// kill-primary phase (default 2). Shares the overload knobs above.
//
// TCP smoke (`bench_service_throughput --transport=tcp`): the loopback
// transport acceptance gate. An S=4, R=2 coordinator dials a
// LoopbackShardFleet and serves the same queries as an all-in-process
// cluster, healthy and then under a seeded ChaosProxy storm (replica 0
// of every shard behind RST/truncation/split-write schedules). The
// process exits nonzero on ANY answer that differs from the in-process
// frame, on any error frame, or if the storm injected no faults; it
// also reports the loopback-vs-in-process latency overhead that feeds
// the EXPERIMENTS.md table. Extra knobs:
//   PPGNN_BENCH_TCP_QUERIES  queries per phase (default 24)
//   PPGNN_CHAOS_SEED         storm schedule seed (default 0x57011),
//                            shared with chaos_test's seed matrix

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace ppgnn;
using bench::BenchConfig;
using bench::EnvInt;
using bench::ValueOrDie;

struct ServicePoint {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t served = 0;
  uint64_t errors = 0;
};

ServicePoint DrivePoint(const LspDatabase& lsp, const KeyPair& keys,
                        const ProtocolParams& params, int workers,
                        int clients, int requests_per_client, uint64_t seed) {
  // Pre-build every request outside the timed region: the coordinator's
  // encryption work would otherwise dominate the closed loop and hide
  // the worker-pool effect this bench exists to measure.
  std::vector<std::vector<ServiceRequest>> prebuilt(
      static_cast<size_t>(clients));
  {
    Rng rng(seed + 31337);
    for (int c = 0; c < clients; ++c) {
      for (int i = 0; i < requests_per_client; ++i) {
        auto group = bench::RandomGroup(params.n, rng);
        auto request =
            BuildServiceRequest(Variant::kPpgnn, params, group, keys, rng);
        if (!request.ok()) {
          std::fprintf(stderr, "build: %s\n",
                       request.status().ToString().c_str());
          return ServicePoint{};
        }
        prebuilt[static_cast<size_t>(c)].push_back(
            std::move(request).value());
      }
    }
  }

  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity =
      static_cast<size_t>(clients) * static_cast<size_t>(requests_per_client);
  config.sanitize = params.sanitize;
  LspService service(lsp, config);

  // In the timed loop clients only frame-decode replies (is it an answer
  // or an error?); full decrypt-and-verify happens once per client after
  // the clock stops.
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<uint8_t>> last_frame(
      static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (ServiceRequest& request : prebuilt[static_cast<size_t>(c)]) {
        std::vector<uint8_t> frame = service.Call(std::move(request));
        auto decoded = ResponseFrame::Decode(frame);
        if (!decoded.ok() || decoded->is_error) {
          errors.fetch_add(1);
        } else {
          last_frame[static_cast<size_t>(c)] = std::move(frame);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Shutdown();

  Decryptor dec(keys.pub, keys.sec);
  for (const auto& frame : last_frame) {
    if (frame.empty()) continue;
    auto reply = ParseServedReply(frame, keys, dec, /*layered=*/false);
    if (!reply.ok() || !reply->ok || reply->pois.empty()) {
      errors.fetch_add(1);
    }
  }

  ServiceStats stats = service.Stats();
  ServicePoint point;
  point.served = stats.served;
  point.errors = errors.load();
  point.qps = elapsed > 0 ? static_cast<double>(stats.served) / elapsed : 0;
  point.p50_ms = stats.latency.p50_seconds * 1e3;
  point.p99_ms = stats.latency.p99_seconds * 1e3;
  return point;
}

// --- overload mode ---

struct OverloadPoint {
  double offered_qps = 0;
  double goodput_qps = 0;
  uint64_t offered = 0;
  uint64_t answers = 0;
  uint64_t overloaded = 0;  // shed or queue-full, structured kOverloaded
  uint64_t expired = 0;     // structured kDeadlineExceeded
  uint64_t other = 0;
  ServiceStats stats;
};

/// Offers `rate_qps` for `seconds`, open-loop (a paced dispatcher thread
/// that never waits for replies), each request carrying `deadline_ms`.
/// Each phase runs on a fresh service, whose cost model starts from its
/// analytic prior.
OverloadPoint DriveOverloadPhase(const LspDatabase& lsp, const KeyPair& keys,
                                 const ProtocolParams& params, int workers,
                                 double rate_qps, double seconds,
                                 uint64_t deadline_ms, uint64_t seed) {
  // A small pool of prebuilt requests, cycled by copy: building one
  // request costs more crypto than serving it, so building offered-many
  // would dominate the bench.
  std::vector<ServiceRequest> pool;
  {
    Rng rng(seed + 77);
    for (int i = 0; i < 32; ++i) {
      auto group = bench::RandomGroup(params.n, rng);
      pool.push_back(ValueOrDie(
          BuildServiceRequest(Variant::kPpgnn, params, group, keys, rng)));
    }
  }

  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = 64;
  config.sanitize = params.sanitize;
  LspService service(lsp, config);

  const uint64_t offered =
      static_cast<uint64_t>(rate_qps * seconds) > 0
          ? static_cast<uint64_t>(rate_qps * seconds)
          : 1;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / rate_qps));

  std::mutex mu;
  std::condition_variable cv;
  uint64_t replied = 0;
  OverloadPoint point;
  point.offered = offered;

  const auto start = std::chrono::steady_clock::now();
  auto next_send = start;
  for (uint64_t i = 0; i < offered; ++i) {
    std::this_thread::sleep_until(next_send);
    next_send += interval;
    ServiceRequest request = pool[i % pool.size()];
    request.deadline_seconds = static_cast<double>(deadline_ms) / 1e3;
    (void)service.Submit(std::move(request), [&](std::vector<uint8_t> frame) {
      auto decoded = ResponseFrame::Decode(frame);
      std::lock_guard<std::mutex> lock(mu);
      if (!decoded.ok()) {
        ++point.other;
      } else if (!decoded->is_error) {
        ++point.answers;
      } else if (decoded->error.code == WireError::kOverloaded) {
        ++point.overloaded;
      } else if (decoded->error.code == WireError::kDeadlineExceeded) {
        ++point.expired;
      } else {
        ++point.other;
      }
      ++replied;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replied == offered; });
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Shutdown();

  point.offered_qps = elapsed > 0 ? static_cast<double>(offered) / elapsed : 0;
  point.goodput_qps =
      elapsed > 0 ? static_cast<double>(point.answers) / elapsed : 0;
  point.stats = service.Stats();
  return point;
}

int RunOverloadMode() {
  BenchConfig config;
  config.key_bits = EnvInt("PPGNN_BENCH_KEYBITS", 256);
  config.db_size = static_cast<size_t>(EnvInt("PPGNN_BENCH_DB", 10000));
  const int workers = EnvInt("PPGNN_BENCH_WORKERS", 4);
  const uint64_t deadline_ms =
      static_cast<uint64_t>(EnvInt("PPGNN_BENCH_DEADLINE_MS", 500));
  const double phase_seconds =
      static_cast<double>(EnvInt("PPGNN_BENCH_OVERLOAD_SECONDS", 3));

  std::printf("==== LspService overload sweep ====\n");
  std::printf(
      "(|D|=%zu, key_bits=%d, workers=%d, deadline=%llums, %.0fs per "
      "phase)\n",
      config.db_size, config.key_bits, workers,
      static_cast<unsigned long long>(deadline_ms), phase_seconds);

  LspDatabase lsp(GenerateSequoiaLike(config.db_size, config.seed));
  Rng key_rng(config.seed + 1);
  KeyPair keys = ValueOrDie(GenerateKeyPair(config.key_bits, key_rng));

  ProtocolParams params;
  params.n = 3;
  params.d = 4;
  params.delta = 8;
  params.k = 3;
  params.key_bits = config.key_bits;
  params.sanitize = false;

  // Capacity: a closed loop with as many clients as workers measures the
  // sustainable service rate.
  double capacity_qps;
  {
    ServicePoint closed = DrivePoint(lsp, keys, params, workers, workers, 8,
                                     config.seed);
    capacity_qps = closed.qps;
    std::printf("capacity: %.2f qps (closed loop, p99=%.2fms)\n",
                capacity_qps, closed.p99_ms);
    if (capacity_qps <= 0) {
      std::fprintf(stderr, "capacity measurement failed\n");
      return 1;
    }
  }

  double goodput_1x = 0, goodput_2x = 0;
  uint64_t abandoned_total = 0;
  std::printf(
      "%-6s %-12s %-12s %-8s %-10s %-8s %-8s %-6s\n", "load",
      "offered_qps", "goodput_qps", "answers", "overloaded", "expired",
      "shed", "aband");
  for (double factor : {0.5, 1.0, 2.0, 4.0}) {
    OverloadPoint point = DriveOverloadPhase(
        lsp, keys, params, workers, factor * capacity_qps, phase_seconds,
        deadline_ms, config.seed + static_cast<uint64_t>(factor * 10));
    if (factor == 1.0) goodput_1x = point.goodput_qps;
    if (factor == 2.0) goodput_2x = point.goodput_qps;
    abandoned_total += point.stats.abandoned_executing;
    std::printf(
        "%-6.1f %-12.2f %-12.2f %-8llu %-10llu %-8llu %-8llu %-6llu\n",
        factor, point.offered_qps, point.goodput_qps,
        static_cast<unsigned long long>(point.answers),
        static_cast<unsigned long long>(point.overloaded),
        static_cast<unsigned long long>(point.expired),
        static_cast<unsigned long long>(point.stats.shed),
        static_cast<unsigned long long>(point.stats.abandoned_executing));
    if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
      if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
        std::fprintf(f, "service_overload,%.1f,%.3f,%.3f,%llu,%llu,%llu\n",
                     factor, point.offered_qps, point.goodput_qps,
                     static_cast<unsigned long long>(point.answers),
                     static_cast<unsigned long long>(point.overloaded),
                     static_cast<unsigned long long>(
                         point.stats.abandoned_executing));
        std::fclose(f);
      }
    }
  }

  const double retention = goodput_1x > 0 ? goodput_2x / goodput_1x : 0;
  std::printf("goodput retention at 2x: %.1f%% (acceptance: >= 80%%) %s\n",
              retention * 100.0, retention >= 0.8 ? "PASS" : "FAIL");
  std::printf("abandoned mid-crypto: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(abandoned_total),
              abandoned_total == 0 ? "PASS" : "FAIL");
  // Only the hard invariant fails the process: goodput retention is
  // timing-sensitive on loaded CI machines, the no-abandon guarantee is
  // not supposed to be.
  return abandoned_total == 0 ? 0 : 1;
}

// --- cluster mode ---

struct ClusterPhase {
  double offered_qps = 0;
  double goodput_qps = 0;
  uint64_t offered = 0;
  uint64_t answers = 0;
  uint64_t overloaded = 0;
  uint64_t expired = 0;
  uint64_t failed = 0;  // kInternal / undecodable — real failures
  uint64_t degraded = 0;  // degraded_shards delta over the phase
};

/// Offers `rate_qps` open-loop against the cluster front for `seconds`.
ClusterPhase DriveClusterPhase(ShardedLspService& cluster,
                               const std::vector<ServiceRequest>& pool,
                               double rate_qps, double seconds,
                               uint64_t deadline_ms) {
  const uint64_t offered =
      static_cast<uint64_t>(rate_qps * seconds) > 0
          ? static_cast<uint64_t>(rate_qps * seconds)
          : 1;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / rate_qps));

  std::mutex mu;
  std::condition_variable cv;
  uint64_t replied = 0;
  ClusterPhase phase;
  phase.offered = offered;
  const uint64_t degraded_before = cluster.Stats().degraded_shards;

  const auto start = std::chrono::steady_clock::now();
  auto next_send = start;
  for (uint64_t i = 0; i < offered; ++i) {
    std::this_thread::sleep_until(next_send);
    next_send += interval;
    ServiceRequest request = pool[i % pool.size()];
    request.deadline_seconds = static_cast<double>(deadline_ms) / 1e3;
    (void)cluster.Submit(std::move(request), [&](std::vector<uint8_t> frame) {
      auto decoded = ResponseFrame::Decode(frame);
      std::lock_guard<std::mutex> lock(mu);
      if (!decoded.ok()) {
        ++phase.failed;
      } else if (!decoded->is_error) {
        ++phase.answers;
      } else if (decoded->error.code == WireError::kOverloaded) {
        ++phase.overloaded;
      } else if (decoded->error.code == WireError::kDeadlineExceeded) {
        ++phase.expired;
      } else {
        ++phase.failed;
      }
      ++replied;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replied == offered; });
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  phase.offered_qps = elapsed > 0 ? static_cast<double>(offered) / elapsed : 0;
  phase.goodput_qps =
      elapsed > 0 ? static_cast<double>(phase.answers) / elapsed : 0;
  phase.degraded = cluster.Stats().degraded_shards - degraded_before;
  return phase;
}

/// Closed-loop sustainable rate of the cluster front (also a warm-up).
double ClusterCapacity(ShardedLspService& cluster,
                       const std::vector<ServiceRequest>& pool, int clients,
                       int requests_per_client) {
  std::atomic<uint64_t> served{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < requests_per_client; ++i) {
        ServiceRequest request =
            pool[static_cast<size_t>(c * requests_per_client + i) %
                 pool.size()];
        std::vector<uint8_t> frame = cluster.Call(std::move(request));
        auto decoded = ResponseFrame::Decode(frame);
        if (decoded.ok() && !decoded->is_error) served.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed > 0 ? static_cast<double>(served.load()) / elapsed : 0;
}

int RunClusterMode() {
  BenchConfig config;
  config.key_bits = EnvInt("PPGNN_BENCH_KEYBITS", 256);
  config.db_size = static_cast<size_t>(EnvInt("PPGNN_BENCH_DB", 10000));
  const int workers = EnvInt("PPGNN_BENCH_WORKERS", 4);
  const uint64_t deadline_ms =
      static_cast<uint64_t>(EnvInt("PPGNN_BENCH_DEADLINE_MS", 500));
  const double phase_seconds =
      static_cast<double>(EnvInt("PPGNN_BENCH_OVERLOAD_SECONDS", 3));

  std::printf("==== Sharded cluster goodput sweep ====\n");
  std::printf(
      "(|D|=%zu, key_bits=%d, %d front workers, deadline=%llums, %.0fs "
      "per phase)\n",
      config.db_size, config.key_bits, workers,
      static_cast<unsigned long long>(deadline_ms), phase_seconds);

  std::vector<Poi> pois = GenerateSequoiaLike(config.db_size, config.seed);
  Rng key_rng(config.seed + 1);
  KeyPair keys = ValueOrDie(GenerateKeyPair(config.key_bits, key_rng));

  ProtocolParams params;
  params.n = 3;
  params.d = 4;
  params.delta = 8;
  params.k = 3;
  params.key_bits = config.key_bits;
  params.sanitize = false;

  std::vector<ServiceRequest> pool;
  {
    Rng rng(config.seed + 77);
    for (int i = 0; i < 32; ++i) {
      auto group = bench::RandomGroup(params.n, rng);
      pool.push_back(ValueOrDie(
          BuildServiceRequest(Variant::kPpgnn, params, group, keys, rng)));
    }
  }

  auto make_cluster = [&](int shards, int replicas) {
    ShardClusterConfig cluster_config;
    cluster_config.shards = shards;
    cluster_config.replicas = replicas;
    cluster_config.front.workers = workers;
    cluster_config.front.queue_capacity = 64;
    cluster_config.front.sanitize = false;
    cluster_config.shard.workers = workers;
    cluster_config.link_policy.seed = config.seed ^ 0x5a4dull;
    // Long-running phases want the half-open prober so a downed replica
    // can rejoin; deterministic tests drive ProbeOnce by hand instead.
    cluster_config.background_prober = replicas > 1;
    return std::make_unique<ShardedLspService>(pois,
                                               std::move(cluster_config));
  };

  std::printf("%-7s %-6s %-12s %-12s %-8s %-10s %-8s %-7s %-9s\n", "shards",
              "load", "offered_qps", "goodput_qps", "answers", "overloaded",
              "expired", "failed", "degraded");
  uint64_t failed_total = 0;
  for (int shards : {1, 2, 4, 8}) {
    auto cluster = make_cluster(shards, /*replicas=*/1);
    const double capacity =
        ClusterCapacity(*cluster, pool, workers, 8);
    if (capacity <= 0) {
      std::fprintf(stderr, "capacity measurement failed at S=%d\n", shards);
      return 1;
    }
    for (double factor : {1.0, 2.0, 4.0}) {
      ClusterPhase phase = DriveClusterPhase(
          *cluster, pool, factor * capacity, phase_seconds, deadline_ms);
      failed_total += phase.failed;
      std::printf(
          "%-7d %-6.1f %-12.2f %-12.2f %-8llu %-10llu %-8llu %-7llu "
          "%-9llu\n",
          shards, factor, phase.offered_qps, phase.goodput_qps,
          static_cast<unsigned long long>(phase.answers),
          static_cast<unsigned long long>(phase.overloaded),
          static_cast<unsigned long long>(phase.expired),
          static_cast<unsigned long long>(phase.failed),
          static_cast<unsigned long long>(phase.degraded));
      if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
        if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
          std::fprintf(f, "cluster_goodput,%d,%.1f,%.3f,%.3f,%llu,%llu\n",
                       shards, factor, phase.offered_qps, phase.goodput_qps,
                       static_cast<unsigned long long>(phase.answers),
                       static_cast<unsigned long long>(phase.degraded));
          std::fclose(f);
        }
      }
    }
    cluster->Shutdown();
  }

  // Killed-shard phase: S=4, one link hard down, 1x offered load. The
  // invariant is resilience, not throughput: zero failed queries and a
  // nonzero degraded-merge count.
  uint64_t killed_failed = 0, killed_degraded = 0;
  {
    auto cluster = make_cluster(4, /*replicas=*/1);
    const double capacity = ClusterCapacity(*cluster, pool, workers, 8);
    Status armed = FailpointSetFromSpec("shard.link.3=error");
    if (!armed.ok()) {
      std::fprintf(stderr, "arming shard.link.3: %s\n",
                   armed.ToString().c_str());
      return 1;
    }
    ClusterPhase phase = DriveClusterPhase(*cluster, pool, capacity,
                                           phase_seconds, deadline_ms);
    FailpointClearAll();
    killed_failed = phase.failed;
    killed_degraded = phase.degraded;
    std::printf(
        "%-7s %-6.1f %-12.2f %-12.2f %-8llu %-10llu %-8llu %-7llu "
        "%-9llu\n",
        "4-kill", 1.0, phase.offered_qps, phase.goodput_qps,
        static_cast<unsigned long long>(phase.answers),
        static_cast<unsigned long long>(phase.overloaded),
        static_cast<unsigned long long>(phase.expired),
        static_cast<unsigned long long>(phase.failed),
        static_cast<unsigned long long>(phase.degraded));
    cluster->Shutdown();
  }

  // Kill-primary phase: same dead node, but the shard is replicated —
  // replica 0 of shard 3 errors on every leg while replica 1+ hold the
  // identical slice. The ladder must absorb the loss completely: zero
  // failed queries *and* zero degraded merges.
  const int replicas = EnvInt("PPGNN_BENCH_REPLICAS", 2);
  uint64_t primary_failed = 0, primary_degraded = 0;
  uint64_t primary_failovers = 0, primary_hedge_wins = 0;
  {
    auto cluster = make_cluster(4, replicas);
    const double capacity = ClusterCapacity(*cluster, pool, workers, 8);
    Status armed = FailpointSetFromSpec("shard.replica.3.0=error");
    if (!armed.ok()) {
      std::fprintf(stderr, "arming shard.replica.3.0: %s\n",
                   armed.ToString().c_str());
      return 1;
    }
    ClusterPhase phase = DriveClusterPhase(*cluster, pool, capacity,
                                           phase_seconds, deadline_ms);
    FailpointClearAll();
    primary_failed = phase.failed;
    primary_degraded = phase.degraded;
    ServiceStats stats = cluster->Stats();
    primary_failovers = stats.replica_failovers;
    primary_hedge_wins = stats.replica_hedge_wins;
    std::printf(
        "%-7s %-6.1f %-12.2f %-12.2f %-8llu %-10llu %-8llu %-7llu "
        "%-9llu\n",
        "4xR-kill", 1.0, phase.offered_qps, phase.goodput_qps,
        static_cast<unsigned long long>(phase.answers),
        static_cast<unsigned long long>(phase.overloaded),
        static_cast<unsigned long long>(phase.expired),
        static_cast<unsigned long long>(phase.failed),
        static_cast<unsigned long long>(phase.degraded));
    std::printf(
        "kill-primary ladder (R=%d): failovers=%llu hedge_wins=%llu "
        "exact_despite_failures=%llu transitions=%llu\n",
        replicas, static_cast<unsigned long long>(stats.replica_failovers),
        static_cast<unsigned long long>(stats.replica_hedge_wins),
        static_cast<unsigned long long>(stats.exact_despite_failures),
        static_cast<unsigned long long>(stats.health_transitions));
    if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
      if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
        std::fprintf(f, "cluster_kill_primary,%d,%llu,%llu,%llu,%llu\n",
                     replicas,
                     static_cast<unsigned long long>(phase.answers),
                     static_cast<unsigned long long>(phase.failed),
                     static_cast<unsigned long long>(phase.degraded),
                     static_cast<unsigned long long>(stats.replica_failovers));
        std::fclose(f);
      }
    }
    cluster->Shutdown();
  }

  std::printf("killed-shard failures: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(killed_failed),
              killed_failed == 0 ? "PASS" : "FAIL");
  std::printf("killed-shard degraded merges: %llu (acceptance: > 0) %s\n",
              static_cast<unsigned long long>(killed_degraded),
              killed_degraded > 0 ? "PASS" : "FAIL");
  std::printf("kill-primary failures: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(primary_failed),
              primary_failed == 0 ? "PASS" : "FAIL");
  std::printf("kill-primary degraded merges: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(primary_degraded),
              primary_degraded == 0 ? "PASS" : "FAIL");
  std::printf("kill-primary ladder engaged: %llu (acceptance: > 0) %s\n",
              static_cast<unsigned long long>(primary_failovers +
                                              primary_hedge_wins),
              primary_failovers + primary_hedge_wins > 0 ? "PASS" : "FAIL");
  std::printf("healthy-phase failures: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(failed_total),
              failed_total == 0 ? "PASS" : "FAIL");
  return (killed_failed == 0 && killed_degraded > 0 && primary_failed == 0 &&
          primary_degraded == 0 && primary_failovers + primary_hedge_wins > 0 &&
          failed_total == 0)
             ? 0
             : 1;
}

// --- TCP transport smoke ---

struct TcpPhase {
  uint64_t queries = 0;
  uint64_t diffs = 0;    // TCP frame != in-process frame — the hard gate
  uint64_t errors = 0;   // error frames (either side)
  double mean_inproc_ms = 0;
  double mean_tcp_ms = 0;
};

/// Serves the pool round-robin through both clusters, comparing frames
/// byte for byte and timing each side.
TcpPhase DriveTcpPhase(ShardedLspService& tcp_cluster,
                       ShardedLspService& reference,
                       const std::vector<ServiceRequest>& pool,
                       uint64_t queries) {
  TcpPhase phase;
  phase.queries = queries;
  double inproc_seconds = 0, tcp_seconds = 0;
  for (uint64_t i = 0; i < queries; ++i) {
    ServiceRequest for_reference = pool[i % pool.size()];
    ServiceRequest for_tcp = pool[i % pool.size()];

    auto t0 = std::chrono::steady_clock::now();
    const std::vector<uint8_t> expected =
        reference.Call(std::move(for_reference));
    auto t1 = std::chrono::steady_clock::now();
    const std::vector<uint8_t> got = tcp_cluster.Call(std::move(for_tcp));
    auto t2 = std::chrono::steady_clock::now();
    inproc_seconds += std::chrono::duration<double>(t1 - t0).count();
    tcp_seconds += std::chrono::duration<double>(t2 - t1).count();

    auto expected_frame = ResponseFrame::Decode(expected);
    auto got_frame = ResponseFrame::Decode(got);
    if (!expected_frame.ok() || expected_frame->is_error || !got_frame.ok() ||
        got_frame->is_error) {
      ++phase.errors;
    }
    if (got != expected) ++phase.diffs;
  }
  phase.mean_inproc_ms = 1e3 * inproc_seconds / static_cast<double>(queries);
  phase.mean_tcp_ms = 1e3 * tcp_seconds / static_cast<double>(queries);
  return phase;
}

int RunTcpMode() {
  BenchConfig config;
  config.key_bits = EnvInt("PPGNN_BENCH_KEYBITS", 256);
  config.db_size = static_cast<size_t>(EnvInt("PPGNN_BENCH_DB", 10000));
  const int workers = EnvInt("PPGNN_BENCH_WORKERS", 4);
  const uint64_t queries =
      static_cast<uint64_t>(EnvInt("PPGNN_BENCH_TCP_QUERIES", 24));
  const uint64_t chaos_seed =
      static_cast<uint64_t>(EnvInt("PPGNN_CHAOS_SEED", 0x57011));

  std::printf("==== Loopback TCP transport smoke (S=4, R=2) ====\n");
  std::printf("(|D|=%zu, key_bits=%d, %d workers, %llu queries per phase, "
              "chaos seed %llu)\n",
              config.db_size, config.key_bits, workers,
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(chaos_seed));

  std::vector<Poi> pois = GenerateSequoiaLike(config.db_size, config.seed);
  Rng key_rng(config.seed + 1);
  KeyPair keys = ValueOrDie(GenerateKeyPair(config.key_bits, key_rng));

  ProtocolParams params;
  params.n = 3;
  params.d = 4;
  params.delta = 8;
  params.k = 3;
  params.key_bits = config.key_bits;
  params.sanitize = false;

  std::vector<ServiceRequest> pool;
  {
    Rng rng(config.seed + 77);
    for (int i = 0; i < 16; ++i) {
      auto group = bench::RandomGroup(params.n, rng);
      pool.push_back(ValueOrDie(
          BuildServiceRequest(Variant::kPpgnn, params, group, keys, rng)));
    }
  }

  auto cluster_config = [&] {
    ShardClusterConfig cc;
    cc.shards = 4;
    cc.replicas = 2;
    cc.front.workers = workers;
    cc.front.queue_capacity = 64;
    cc.front.sanitize = false;
    cc.shard.workers = workers;
    cc.link_policy.seed = config.seed ^ 0x5a4dull;
    return cc;
  };

  std::printf("%-8s %-8s %-6s %-7s %-14s %-10s %-9s\n", "phase", "queries",
              "diffs", "errors", "inproc_ms", "tcp_ms", "overhead");
  uint64_t total_diffs = 0, total_errors = 0, storm_faults = 0;

  // Healthy phase: clean loopback sockets.
  {
    LoopbackFleetConfig fleet_config;
    fleet_config.shards = 4;
    fleet_config.replicas = 2;
    fleet_config.shard_service.workers = workers;
    LoopbackShardFleet fleet(pois, fleet_config);
    Status started = fleet.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "fleet: %s\n", started.ToString().c_str());
      return 1;
    }
    ShardClusterConfig tcp_config = cluster_config();
    tcp_config.link_factory = fleet.LinkFactory();
    ShardedLspService tcp_cluster(pois, std::move(tcp_config));
    ShardedLspService reference(pois, cluster_config());

    TcpPhase phase = DriveTcpPhase(tcp_cluster, reference, pool, queries);
    total_diffs += phase.diffs;
    total_errors += phase.errors;
    std::printf("%-8s %-8llu %-6llu %-7llu %-14.2f %-10.2f %.2fx\n",
                "healthy", static_cast<unsigned long long>(phase.queries),
                static_cast<unsigned long long>(phase.diffs),
                static_cast<unsigned long long>(phase.errors),
                phase.mean_inproc_ms, phase.mean_tcp_ms,
                phase.mean_inproc_ms > 0
                    ? phase.mean_tcp_ms / phase.mean_inproc_ms
                    : 0.0);
    if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
      if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
        std::fprintf(f, "tcp_smoke,healthy,%llu,%llu,%.3f,%.3f\n",
                     static_cast<unsigned long long>(phase.diffs),
                     static_cast<unsigned long long>(phase.errors),
                     phase.mean_inproc_ms, phase.mean_tcp_ms);
        std::fclose(f);
      }
    }
    tcp_cluster.Shutdown();
    reference.Shutdown();
    fleet.Shutdown(5.0);
  }

  // Storm phase: replica 0 of every shard behind a seeded ChaosProxy.
  {
    LoopbackFleetConfig fleet_config;
    fleet_config.shards = 4;
    fleet_config.replicas = 2;
    fleet_config.shard_service.workers = workers;
    fleet_config.proxied = [](int, int replica) { return replica == 0; };
    fleet_config.chaos_rules = {
        ValueOrDie(ParseChaosRule("rst after=150 every=2")),
        ValueOrDie(ParseChaosRule("drop after=60 every=3 skip=1")),
        ValueOrDie(ParseChaosRule("split=7 every=1")),
    };
    fleet_config.chaos_seed = chaos_seed;
    fleet_config.link.io_timeout_seconds = 2.0;
    LoopbackShardFleet fleet(pois, fleet_config);
    Status started = fleet.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "fleet: %s\n", started.ToString().c_str());
      return 1;
    }
    ShardClusterConfig tcp_config = cluster_config();
    tcp_config.link_factory = fleet.LinkFactory();
    ShardedLspService tcp_cluster(pois, std::move(tcp_config));
    ShardedLspService reference(pois, cluster_config());

    TcpPhase phase = DriveTcpPhase(tcp_cluster, reference, pool, queries);
    total_diffs += phase.diffs;
    total_errors += phase.errors;
    for (int s = 0; s < fleet.shards(); ++s) {
      const ChaosProxyStats stats = fleet.proxy(s, 0)->Stats();
      storm_faults += stats.rsts + stats.drops + stats.splits;
    }
    std::printf("%-8s %-8llu %-6llu %-7llu %-14.2f %-10.2f %.2fx\n", "storm",
                static_cast<unsigned long long>(phase.queries),
                static_cast<unsigned long long>(phase.diffs),
                static_cast<unsigned long long>(phase.errors),
                phase.mean_inproc_ms, phase.mean_tcp_ms,
                phase.mean_inproc_ms > 0
                    ? phase.mean_tcp_ms / phase.mean_inproc_ms
                    : 0.0);
    if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
      if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
        std::fprintf(f, "tcp_smoke,storm,%llu,%llu,%.3f,%.3f\n",
                     static_cast<unsigned long long>(phase.diffs),
                     static_cast<unsigned long long>(phase.errors),
                     phase.mean_inproc_ms, phase.mean_tcp_ms);
        std::fclose(f);
      }
    }
    tcp_cluster.Shutdown();
    reference.Shutdown();
    fleet.Shutdown(5.0);
  }

  std::printf("byte diffs: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(total_diffs),
              total_diffs == 0 ? "PASS" : "FAIL");
  std::printf("error frames: %llu (acceptance: 0) %s\n",
              static_cast<unsigned long long>(total_errors),
              total_errors == 0 ? "PASS" : "FAIL");
  std::printf("storm faults injected: %llu (acceptance: > 0) %s\n",
              static_cast<unsigned long long>(storm_faults),
              storm_faults > 0 ? "PASS" : "FAIL");
  return (total_diffs == 0 && total_errors == 0 && storm_faults > 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overload") == 0) return RunOverloadMode();
    if (std::strcmp(argv[i], "--cluster") == 0) return RunClusterMode();
    if (std::strcmp(argv[i], "--transport=tcp") == 0) return RunTcpMode();
    std::fprintf(stderr,
                 "unknown flag: %s (try --overload, --cluster, or "
                 "--transport=tcp)\n",
                 argv[i]);
    return 2;
  }
  BenchConfig config;
  // Service benches stress inter-query concurrency, not raw crypto: a
  // smaller default database and modulus keep per-query work modest so
  // the pool effect dominates the runtime.
  config.key_bits = EnvInt("PPGNN_BENCH_KEYBITS", 256);
  config.db_size =
      static_cast<size_t>(EnvInt("PPGNN_BENCH_DB", 10000));
  const int clients = EnvInt("PPGNN_BENCH_CLIENTS", 8);
  const int requests = EnvInt("PPGNN_BENCH_REQUESTS", 4);

  std::printf("==== LspService throughput vs worker count ====\n");
  std::printf(
      "(|D|=%zu, key_bits=%d, %d closed-loop clients x %d requests, "
      "sanitation off, %u hardware threads)\n",
      config.db_size, config.key_bits, clients, requests,
      std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "NOTE: single-core machine — worker-count speedups cannot "
        "materialize here.\n");
  }

  LspDatabase lsp(GenerateSequoiaLike(config.db_size, config.seed));
  Rng key_rng(config.seed + 1);
  auto keys = GenerateKeyPair(config.key_bits, key_rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }

  ProtocolParams params;
  params.n = 3;
  params.d = 4;
  params.delta = 8;
  params.k = 3;
  params.key_bits = config.key_bits;
  params.sanitize = false;

  double base_qps = 0;
  for (int workers : {1, 2, 4, 8}) {
    ServicePoint point = DrivePoint(lsp, keys.value(), params, workers,
                                    clients, requests, config.seed);
    if (workers == 1) base_qps = point.qps;
    std::printf(
        "workers=%-3d qps=%-9.2f p50_ms=%-9.2f p99_ms=%-9.2f served=%-5llu "
        "errors=%-3llu speedup=%.2fx\n",
        workers, point.qps, point.p50_ms, point.p99_ms,
        static_cast<unsigned long long>(point.served),
        static_cast<unsigned long long>(point.errors),
        base_qps > 0 ? point.qps / base_qps : 0.0);
    if (const char* csv = std::getenv("PPGNN_BENCH_CSV"); csv != nullptr) {
      if (std::FILE* f = std::fopen(csv, "a"); f != nullptr) {
        std::fprintf(f, "service_qps,workers,%d,%.3f,%.3f,%.3f,%llu\n",
                     workers, point.qps, point.p50_ms, point.p99_ms,
                     static_cast<unsigned long long>(point.served));
        std::fclose(f);
      }
    }
  }
  return 0;
}
