// Command-line driver for one privacy-preserving kGNN query.
//
// Usage:
//   ppgnn_cli [options]
//     --db PATH            load POIs from a CSV ("x,y" or "id,x,y"); when
//                          absent, synthesizes a Sequoia-like database
//     --db-size N          synthetic database cardinality (default 62556)
//     --locations LIST     semicolon-separated "x,y" user locations
//                          (default: 4 random users)
//     --n N                group size when --locations is absent
//     --variant NAME       ppgnn | opt | naive        (default ppgnn)
//     --aggregate NAME     sum | max | min            (default sum)
//     --d N  --delta N  --k N  --theta0 X  --keybits N  --threads N
//     --no-sanitize        run the PPGNN-NAS relaxation
//     --dummies NAME       uniform | poi-density | nearby
//     --keys PATH          reuse a key pair from PATH (see --gen-keys)
//     --gen-keys PATH      generate a key pair, save to PATH, and exit
//     --seed N
//
// Serve mode (in-process LspService + closed-loop load generators):
//   ppgnn_cli --serve [--shards N] [--workers N] [--clients N]
//             [--requests N] [--queue N] [--deadline SECONDS]
//             [plus the options above]
//   Stands up the concurrent LspService front-end and drives it with
//   `--clients` closed-loop client threads issuing `--requests` queries
//   each, then prints throughput, the latency histogram summary and the
//   service counters. Each request encrypts under its own key-holder
//   Encryptor. After the timed run every decrypted answer is checked
//   against the plaintext reference; the exit code is nonzero on a
//   client error or on more wrong answers than the cluster reported
//   degraded merges (a shard with no live replica makes a merge inexact
//   by design). Answers to requests with dropped-out users have no
//   reference and are skipped.
//
//   --shards N           partition the POI space into N shards behind a
//                        scatter-gather coordinator (ShardedLspService).
//                        Answers are bit-identical to --shards 1; a dead
//                        shard degrades merges instead of failing
//                        queries (arm shard.link.<j> via --fail to see
//                        it). 1 = plain single-node service.
//
//   --replicas R         replicate every shard R-fold behind a health-
//                        monitored replica set (DESIGN.md section 14):
//                        failover + hedging keep answers exact when a
//                        single replica dies (arm
//                        shard.replica.<j>.<r>=error via --fail), and
//                        degraded merges only happen when a whole set
//                        is down. 1 = the unreplicated PR 7 layout.
//                        Applies to the --shards cluster (any N > 1).
//
// Overload resilience (serve mode): a request carrying a deadline is
// shed when the service's cost model predicts it cannot finish in time.
//   --wire-deadline-ms N stamp each query's deadline into the wire
//                        trailer (exercises end-to-end deadline
//                        propagation instead of the local budget)
//
// TCP transport (DESIGN.md section 16):
//   ppgnn_cli --listen PORT [--shards N] [--shard-index J]
//             [--workers N] [--db ... | --db-size N --seed S]
//   Serves slice J of the N-way partition over TCP (PORT 0 picks an
//   ephemeral port, printed on startup) until SIGINT/SIGTERM. Every
//   replica of shard J runs this same command; byte-identical answers
//   require every process to build the same database (same --db file or
//   same --db-size/--seed).
//
//   ppgnn_cli --serve --shards N --replicas R
//             --connect-shard HOST:PORT ...
//   Instead of in-process shard services, the coordinator dials one
//   listed endpoint per (shard, replica), shard-major: the (j, r)
//   endpoint is argument j*R + r. Requires exactly N*R --connect-shard
//   flags. The resilience ladder (retries, hedging, failover, health)
//   rides the sockets unchanged.
//
// Chaos knobs (serve mode):
//   --fail POINT=POLICY  arm a failpoint before serving; repeatable, and
//                        repeated specs *stack* — including on the same
//                        point, so one replica can be slow AND flaky:
//                        --fail shard.replica.0.0=delay:20
//                        --fail shard.replica.0.0=error,p=0.5,seed=3
//                        POLICY is <action>[:<arg>][,p=|seed=|skip=|
//                        every=|times=], e.g.
//                        --fail service.admit=drop,p=0.2,seed=7
//   --retry-budget-ms X  route client traffic through ResilientClient
//                        with an X-millisecond per-call retry budget
//                        (retries + backoff + hedging); prints client
//                        stats alongside the service counters.
//
// Prints the sanitized answer, the per-party costs, and the plaintext
// reference for verification.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ppgnn.h"

namespace {

using namespace ppgnn;

struct CliOptions {
  std::string db_path;
  std::string keys_path;
  std::string gen_keys_path;
  size_t db_size = kSequoiaSize;
  std::string locations;
  int n = 4;
  std::string variant = "ppgnn";
  std::string aggregate = "sum";
  std::string dummies = "uniform";
  ProtocolParams params;
  uint64_t seed = 2018;
  bool no_sanitize = false;
  // Serve mode.
  bool serve = false;
  int shards = 1;
  int replicas = 1;
  int workers = 4;
  int clients = 4;
  int requests_per_client = 8;
  size_t queue_capacity = 64;
  double deadline_seconds = 0.0;
  // TCP transport.
  int listen_port = -1;  ///< < 0 = not listening; 0 = ephemeral
  int shard_index = 0;
  std::vector<std::string> connect_shards;
  std::vector<std::string> fail_specs;
  double retry_budget_ms = 0.0;
  uint64_t wire_deadline_ms = 0;
};

void PrintUsageAndExit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--db PATH] [--db-size N] [--locations x,y;x,y...]\n"
               "          [--n N] [--variant ppgnn|opt|naive]\n"
               "          [--aggregate sum|max|min] [--d N] [--delta N]\n"
               "          [--k N] [--theta0 X] [--keybits N] [--threads N]\n"
               "          [--dummies uniform|poi-density|nearby]\n"
               "          [--keys PATH] [--gen-keys PATH]\n"
               "          [--no-sanitize] [--seed N]\n"
               "          [--listen PORT] [--shard-index J]\n"
               "          [--connect-shard HOST:PORT]...\n"
               "          [--serve] [--shards N] [--replicas R]\n"
               "          [--workers N] [--clients N]\n"
               "          [--requests N] [--queue N] [--deadline SECONDS]\n"
               "          [--fail POINT=POLICY]... [--retry-budget-ms X]\n"
               "          [--wire-deadline-ms N]\n",
               argv0);
  std::exit(2);
}

Result<std::vector<Point>> ParseLocations(const std::string& text) {
  std::vector<Point> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    std::string pair = text.substr(pos, end - pos);
    double x, y;
    if (std::sscanf(pair.c_str(), "%lf,%lf", &x, &y) != 2) {
      return Status::InvalidArgument("bad location: " + pair);
    }
    out.push_back({x, y});
    pos = end + 1;
  }
  if (out.empty()) return Status::InvalidArgument("no locations given");
  return out;
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions opts;
  opts.params.key_bits = 512;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) PrintUsageAndExit(argv[0]);
      return argv[++i];
    };
    if (flag == "--db") {
      opts.db_path = next();
    } else if (flag == "--keys") {
      opts.keys_path = next();
    } else if (flag == "--gen-keys") {
      opts.gen_keys_path = next();
    } else if (flag == "--db-size") {
      opts.db_size = static_cast<size_t>(std::atoll(next()));
    } else if (flag == "--locations") {
      opts.locations = next();
    } else if (flag == "--n") {
      opts.n = std::atoi(next());
    } else if (flag == "--variant") {
      opts.variant = next();
    } else if (flag == "--aggregate") {
      opts.aggregate = next();
    } else if (flag == "--dummies") {
      opts.dummies = next();
    } else if (flag == "--d") {
      opts.params.d = std::atoi(next());
    } else if (flag == "--delta") {
      opts.params.delta = std::atoi(next());
    } else if (flag == "--k") {
      opts.params.k = std::atoi(next());
    } else if (flag == "--theta0") {
      opts.params.theta0 = std::atof(next());
    } else if (flag == "--keybits") {
      opts.params.key_bits = std::atoi(next());
    } else if (flag == "--threads") {
      opts.params.lsp_threads = std::atoi(next());
    } else if (flag == "--seed") {
      opts.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (flag == "--no-sanitize") {
      opts.no_sanitize = true;
    } else if (flag == "--serve") {
      opts.serve = true;
    } else if (flag == "--shards") {
      opts.shards = std::atoi(next());
      if (opts.shards < 1)
        return Status::InvalidArgument("--shards must be >= 1");
    } else if (flag == "--replicas") {
      opts.replicas = std::atoi(next());
      if (opts.replicas < 1)
        return Status::InvalidArgument("--replicas must be >= 1");
    } else if (flag == "--workers") {
      opts.workers = std::atoi(next());
    } else if (flag == "--clients") {
      opts.clients = std::atoi(next());
    } else if (flag == "--requests") {
      opts.requests_per_client = std::atoi(next());
    } else if (flag == "--queue") {
      opts.queue_capacity = static_cast<size_t>(std::atoll(next()));
    } else if (flag == "--deadline") {
      opts.deadline_seconds = std::atof(next());
    } else if (flag == "--listen") {
      opts.listen_port = std::atoi(next());
      if (opts.listen_port < 0 || opts.listen_port > 65535)
        return Status::InvalidArgument("--listen PORT must be in [0, 65535]");
    } else if (flag == "--shard-index") {
      opts.shard_index = std::atoi(next());
      if (opts.shard_index < 0)
        return Status::InvalidArgument("--shard-index must be >= 0");
    } else if (flag == "--connect-shard") {
      opts.connect_shards.push_back(next());
    } else if (flag == "--fail") {
      opts.fail_specs.push_back(next());
    } else if (flag == "--retry-budget-ms") {
      opts.retry_budget_ms = std::atof(next());
    } else if (flag == "--wire-deadline-ms") {
      opts.wire_deadline_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (flag == "--help" || flag == "-h") {
      PrintUsageAndExit(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      PrintUsageAndExit(argv[0]);
    }
  }
  return opts;
}

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

// "HOST:PORT" -> (host, port). IPv4 / hostname only — the transport's
// TcpConnect resolves numeric IPv4 addresses.
Result<std::pair<std::string, uint16_t>> ParseEndpoint(
    const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument("bad endpoint (want HOST:PORT): " + text);
  }
  const int port = std::atoi(text.substr(colon + 1).c_str());
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in endpoint: " + text);
  }
  return std::make_pair(text.substr(0, colon), static_cast<uint16_t>(port));
}

// --listen mode: serve slice `--shard-index` of the `--shards`-way
// partition over TCP until SIGINT/SIGTERM. One process per replica.
int RunListenMode(const CliOptions& opts, std::vector<Poi> pois) {
  if (opts.shard_index >= opts.shards) {
    std::fprintf(stderr, "--shard-index %d out of range for --shards %d\n",
                 opts.shard_index, opts.shards);
    return 2;
  }
  auto slices = PartitionPoisForShards(std::move(pois), opts.shards);
  std::vector<Poi> slice =
      std::move(slices[static_cast<size_t>(opts.shard_index)]);
  std::printf("Shard %d/%d: %zu POIs\n", opts.shard_index, opts.shards,
              slice.size());

  LspDatabase db(std::move(slice));
  ServiceConfig service_config;
  service_config.workers = opts.workers;
  service_config.queue_capacity = opts.queue_capacity;
  service_config.lsp_threads = opts.params.lsp_threads;
  LspService service(db, service_config);

  TcpServerConfig server_config;
  server_config.port = static_cast<uint16_t>(opts.listen_port);
  TcpShardServer server(service, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("Listening on 127.0.0.1:%u (%d workers); Ctrl-C to stop\n",
              server.port(), opts.workers);
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("Stopping: %s\n", server.Stats().ToString().c_str());
  server.Shutdown(/*drain_deadline_seconds=*/5.0);
  service.Shutdown();
  return 0;
}

// The plaintext reference check: `pois` must be ReferenceAnswer's POIs
// for `group`, up to the wire format's coordinate quantization.
bool MatchesReference(const ProtocolParams& params,
                      const std::vector<Point>& group, const LspDatabase& lsp,
                      const std::vector<Point>& pois) {
  Rng ref_rng(0);
  const std::vector<RankedPoi> reference =
      ReferenceAnswer(params, group, lsp, ref_rng);
  bool match = reference.size() == pois.size();
  for (size_t i = 0; match && i < reference.size(); ++i) {
    match = std::abs(reference[i].poi.location.x - pois[i].x) < 1e-8 &&
            std::abs(reference[i].poi.location.y - pois[i].y) < 1e-8;
  }
  return match;
}

// Stands up an LspService over `lsp` and drives it with closed-loop
// client threads, each running the coordinator side of Algorithm 1 via
// BuildServiceRequest. Returns a process exit code.
int RunServeMode(const CliOptions& opts, const std::vector<Poi>& pois,
                 const LspDatabase& lsp, Variant variant,
                 const KeyPair& keys) {
  ServiceConfig config;
  config.workers = opts.workers;
  config.queue_capacity = opts.queue_capacity;
  config.default_deadline_seconds = opts.deadline_seconds;
  config.lsp_threads = opts.params.lsp_threads;
  config.sanitize = opts.params.sanitize;

  const bool layered = variant == Variant::kPpgnnOpt;

  // --shards N > 1 swaps the single-node service for a scatter-gather
  // cluster; the client loop only ever talks to the front-end, which has
  // the same Submit/Call surface either way.
  std::unique_ptr<LspService> single;
  std::unique_ptr<ShardedLspService> cluster;
  if (opts.shards > 1 || !opts.connect_shards.empty()) {
    ShardClusterConfig cluster_config;
    cluster_config.shards = opts.shards;
    cluster_config.replicas = opts.replicas;
    cluster_config.front = config;
    cluster_config.shard.workers = opts.workers;
    cluster_config.link_policy.seed = opts.seed ^ 0x5a4dull;
    cluster_config.background_prober = opts.replicas > 1;
    if (!opts.connect_shards.empty()) {
      // Remote shard tier: one endpoint per (shard, replica), shard-major.
      const size_t want = static_cast<size_t>(opts.shards) *
                          static_cast<size_t>(opts.replicas);
      if (opts.connect_shards.size() != want) {
        std::fprintf(stderr,
                     "--connect-shard: got %zu endpoints, need %zu "
                     "(--shards %d x --replicas %d, shard-major)\n",
                     opts.connect_shards.size(), want, opts.shards,
                     opts.replicas);
        return 2;
      }
      auto endpoints = std::make_shared<
          std::vector<std::pair<std::string, uint16_t>>>();
      for (const std::string& spec : opts.connect_shards) {
        auto parsed = ParseEndpoint(spec);
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
          return 2;
        }
        endpoints->push_back(std::move(parsed).value());
      }
      const int replicas = opts.replicas;
      cluster_config.link_factory = [endpoints, replicas](int shard,
                                                          int replica) {
        const auto& endpoint =
            (*endpoints)[static_cast<size_t>(shard * replicas + replica)];
        TcpLinkConfig link;
        link.host = endpoint.first;
        link.port = endpoint.second;
        return std::make_unique<TcpLink>(link);
      };
      std::printf(
          "Dialing %zu remote shard servers (every server must hold the "
          "matching slice of the same database)\n",
          endpoints->size());
    }
    cluster =
        std::make_unique<ShardedLspService>(pois, std::move(cluster_config));
    std::printf("Cluster: %d shards x %d replicas over %zu POIs (",
                opts.shards, opts.replicas, pois.size());
    for (int j = 0; j < cluster->shards(); ++j) {
      std::printf("%s%zu", j > 0 ? ", " : "", cluster->shard_size(j));
    }
    std::printf(" per shard)\n");
  } else {
    single = std::make_unique<LspService>(lsp, config);
  }
  LspService& service = cluster != nullptr ? cluster->front() : *single;

  for (const std::string& spec : opts.fail_specs) {
    // Stacking (not replacing) semantics: repeated --fail flags compose,
    // even on the same point.
    Status armed = FailpointAddFromSpec(spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "--fail %s: %s\n", spec.c_str(),
                   armed.ToString().c_str());
      return 2;
    }
    std::printf("Armed failpoint: %s\n", spec.c_str());
  }

  RetryPolicy retry_policy;
  retry_policy.total_budget_seconds = opts.retry_budget_ms / 1e3;
  retry_policy.hedge = true;
  retry_policy.seed = opts.seed ^ 0xc1a05u;
  ResilientClient resilient(service, retry_policy);
  const bool use_resilient = opts.retry_budget_ms > 0;

  std::printf(
      "Serving: %d workers, queue=%zu, deadline=%s, %d clients x %d "
      "requests (lsp_threads=%d)%s\n"
      "Admission: bounded queue + cost gate, wire_deadline=%llums\n",
      opts.workers, opts.queue_capacity,
      opts.deadline_seconds > 0 ? std::to_string(opts.deadline_seconds).c_str()
                                : "none",
      opts.clients, opts.requests_per_client, opts.params.lsp_threads,
      use_resilient ? ", resilient client" : "",
      static_cast<unsigned long long>(opts.wire_deadline_ms));

  std::atomic<uint64_t> answers{0}, service_errors{0}, client_errors{0};
  // (group, decrypted answer) per client, checked after the timed run.
  std::vector<std::vector<std::pair<std::vector<Point>, std::vector<Point>>>>
      answered(static_cast<size_t>(opts.clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(opts.clients));
  for (int c = 0; c < opts.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(opts.seed * 7919 + static_cast<uint64_t>(c));
      Decryptor dec(keys.pub, keys.sec);
      for (int i = 0; i < opts.requests_per_client; ++i) {
        std::vector<Point> group;
        for (int u = 0; u < opts.params.n; ++u) {
          group.push_back({rng.NextDouble(), rng.NextDouble()});
        }
        RequestWireOptions wire;
        wire.deadline_ms = opts.wire_deadline_ms;
        auto request =
            BuildServiceRequest(variant, opts.params, group, keys, rng, wire);
        if (!request.ok()) {
          std::fprintf(stderr, "client %d: %s\n", c,
                       request.status().ToString().c_str());
          client_errors.fetch_add(1);
          continue;
        }
        const bool dropout = request->degraded_users > 0;
        std::vector<uint8_t> frame;
        if (use_resilient) {
          frame = resilient.Call(std::move(request).value()).frame;
        } else {
          frame = service.Call(std::move(request).value());
        }
        auto reply = ParseServedReply(frame, keys, dec, layered);
        if (!reply.ok()) {
          std::fprintf(stderr, "client %d: transport garbage: %s\n", c,
                       reply.status().ToString().c_str());
          client_errors.fetch_add(1);
        } else if (reply->ok) {
          answers.fetch_add(1);
          if (!dropout) {
            answered[static_cast<size_t>(c)].emplace_back(
                std::move(group), std::move(reply->pois));
          }
        } else {
          service_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (cluster != nullptr) {
    cluster->Shutdown();
  } else {
    single->Shutdown();
  }

  const uint64_t total = answers.load() + service_errors.load();
  std::printf("\n%llu replies in %.2f s => %.2f queries/s\n",
              static_cast<unsigned long long>(total), elapsed,
              elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0);
  std::printf("answers=%llu service_errors=%llu client_errors=%llu\n",
              static_cast<unsigned long long>(answers.load()),
              static_cast<unsigned long long>(service_errors.load()),
              static_cast<unsigned long long>(client_errors.load()));
  const ServiceStats stats =
      cluster != nullptr ? cluster->Stats() : single->Stats();
  std::printf("%s\n", stats.ToString().c_str());
  if (use_resilient) {
    std::printf("%s\n", resilient.Stats().ToString().c_str());
  }
  FailpointClearAll();

  uint64_t checked = 0;
  uint64_t wrong = 0;
  for (const auto& client_answers : answered) {
    for (const auto& [group, pois] : client_answers) {
      ++checked;
      if (!MatchesReference(opts.params, group, lsp, pois)) ++wrong;
    }
  }
  const bool reference_ok = wrong <= stats.degraded_shards;
  std::printf(
      "Plaintext reference check: %s (%llu answers checked, %llu wrong, "
      "%llu degraded merges)\n",
      reference_ok ? "PASS" : "FAIL", static_cast<unsigned long long>(checked),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(stats.degraded_shards));
  return client_errors.load() == 0 && reference_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts_or = ParseArgs(argc, argv);
  if (!opts_or.ok()) {
    std::fprintf(stderr, "%s\n", opts_or.status().ToString().c_str());
    return 2;
  }
  CliOptions opts = std::move(opts_or).value();

  // --- key generation mode ---
  if (!opts.gen_keys_path.empty()) {
    Rng rng(opts.seed);
    auto keys = GenerateKeyPair(opts.params.key_bits, rng);
    if (!keys.ok()) {
      std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
      return 1;
    }
    Status saved = SaveKeyPair(opts.gen_keys_path, keys.value());
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("Wrote a %d-bit key pair to %s (protect this file: it "
                "holds the secret key).\n",
                opts.params.key_bits, opts.gen_keys_path.c_str());
    return 0;
  }

  // --- database ---
  std::vector<Poi> pois;
  if (!opts.db_path.empty()) {
    auto loaded = LoadCsv(opts.db_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", opts.db_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    pois = std::move(loaded).value();
    std::printf("Loaded %zu POIs from %s\n", pois.size(),
                opts.db_path.c_str());
  } else {
    pois = GenerateSequoiaLike(opts.db_size, opts.seed);
    std::printf("Synthesized %zu Sequoia-like POIs (seed %llu)\n",
                pois.size(), static_cast<unsigned long long>(opts.seed));
  }
  // --listen needs only the POI slice — no keys, no group, no query.
  if (opts.listen_port >= 0) {
    return RunListenMode(opts, std::move(pois));
  }

  // Serve mode may need the raw POI list again (sharded clusters build
  // one database per slice), so the database takes a copy.
  LspDatabase lsp(pois);

  // --- group ---
  Rng rng(opts.seed + 1);
  std::vector<Point> group;
  if (!opts.locations.empty()) {
    auto parsed = ParseLocations(opts.locations);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    group = std::move(parsed).value();
  } else {
    for (int i = 0; i < opts.n; ++i) {
      group.push_back({rng.NextDouble(), rng.NextDouble()});
    }
  }
  opts.params.n = static_cast<int>(group.size());
  opts.params.sanitize = !opts.no_sanitize;

  // --- enums ---
  auto aggregate = AggregateKindFromString(opts.aggregate);
  if (!aggregate.ok()) {
    std::fprintf(stderr, "%s\n", aggregate.status().ToString().c_str());
    return 2;
  }
  opts.params.aggregate = aggregate.value();
  Variant variant;
  if (opts.variant == "ppgnn") {
    variant = Variant::kPpgnn;
  } else if (opts.variant == "opt") {
    variant = Variant::kPpgnnOpt;
  } else if (opts.variant == "naive") {
    variant = Variant::kNaive;
  } else {
    std::fprintf(stderr, "unknown variant: %s\n", opts.variant.c_str());
    return 2;
  }

  PoiDensityDummyGenerator density(lsp.pois(), 32);
  NearbyDummyGenerator nearby(0.05);
  if (opts.dummies == "poi-density") {
    opts.params.dummy_generator = &density;
  } else if (opts.dummies == "nearby") {
    opts.params.dummy_generator = &nearby;
  } else if (opts.dummies != "uniform") {
    std::fprintf(stderr, "unknown dummy policy: %s\n", opts.dummies.c_str());
    return 2;
  }

  std::printf(
      "Query: %s, n=%d, d=%d, delta=%d, k=%d, theta0=%.3f, F=%s, %d-bit "
      "keys, dummies=%s%s\n",
      VariantToString(variant), opts.params.n, opts.params.d,
      opts.params.delta, opts.params.k, opts.params.theta0,
      AggregateKindToString(opts.params.aggregate), opts.params.key_bits,
      opts.dummies.c_str(), opts.params.sanitize ? "" : " [NAS]");

  KeyPair loaded_keys;
  const KeyPair* fixed_keys = nullptr;
  if (!opts.keys_path.empty()) {
    auto keys = LoadKeyPair(opts.keys_path);
    if (!keys.ok()) {
      std::fprintf(stderr, "loading keys: %s\n",
                   keys.status().ToString().c_str());
      return 1;
    }
    loaded_keys = std::move(keys).value();
    if (loaded_keys.pub.key_bits != opts.params.key_bits) {
      std::printf("(using the key file's %d-bit modulus, overriding "
                  "--keybits %d)\n",
                  loaded_keys.pub.key_bits, opts.params.key_bits);
      opts.params.key_bits = loaded_keys.pub.key_bits;
    }
    fixed_keys = &loaded_keys;
  }

  if (opts.serve) {
    if (fixed_keys == nullptr) {
      auto keys = GenerateKeyPair(opts.params.key_bits, rng);
      if (!keys.ok()) {
        std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
        return 1;
      }
      loaded_keys = std::move(keys).value();
      fixed_keys = &loaded_keys;
    }
    return RunServeMode(opts, pois, lsp, variant, *fixed_keys);
  }

  auto outcome = RunQuery(variant, opts.params, group, lsp, rng, fixed_keys);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("\nAnswer (%zu POIs):\n", outcome->pois.size());
  for (size_t i = 0; i < outcome->pois.size(); ++i) {
    std::printf("  #%zu (%.6f, %.6f)  F=%.6f\n", i + 1, outcome->pois[i].x,
                outcome->pois[i].y,
                AggregateCost(opts.params.aggregate, outcome->pois[i], group));
  }
  std::printf("\nCosts: %s\n", outcome->costs.ToString().c_str());
  std::printf(
      "delta'=%llu, m=%zu, omega=%llu, sanitation: %llu samples / %llu "
      "tests (%.1f ms)\n",
      static_cast<unsigned long long>(outcome->info.delta_prime),
      outcome->info.answer_width_m,
      static_cast<unsigned long long>(outcome->info.omega),
      static_cast<unsigned long long>(outcome->info.sanitize_samples),
      static_cast<unsigned long long>(outcome->info.sanitize_tests),
      outcome->info.sanitize_seconds * 1e3);

  const bool match = MatchesReference(opts.params, group, lsp, outcome->pois);
  std::printf("Plaintext reference check: %s\n", match ? "PASS" : "FAIL");
  return match ? 0 : 1;
}
