// perfbench: the repository benchmark, one workload per invocation.
//
//   perfbench --workload <paper_ppgnn|paper_opt|cluster_tcp_nas>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--report <file>] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics through the one-call entry
// points (RunQuery, or the cluster front). --trace 1 is a separate run
// that re-drives every query step by step with spans around each layer
// call and reports per-layer metrics. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; --report receives the
// same metrics with sample counts, the deterministic counters and the
// workload config. perfbench/README.md says why each workload exists.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bigint/fixedbase.h"
#include "bigint/montgomery.h"
#include "common/bytes.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "net/cost.h"
#include "net/transport/fleet.h"
#include "net/transport/tcp_link.h"
#include "net/transport/tcp_server.h"
#include "service/shard_coordinator.h"
#include "service/workload.h"
#include "spatial/dataset.h"
#include "steps.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace ppgnn;

// Query ids: measured queries count up from 0; warm-up and key material
// draw from ranges no measured query reaches.
constexpr uint64_t kWarmupBase = 1ULL << 40;
constexpr uint64_t kKeyBase = 1ULL << 41;
constexpr uint64_t kUntracedKeyBase = 1ULL << 42;
constexpr uint64_t kInputBase = 1ULL << 43;
// Like the paper's fixed dataset and query set, the POIs and the pool of
// queries (group locations, positions, dummies) do not depend on the seed;
// the seed draws the measured queries' keys and the order the pool is
// visited in.
constexpr uint64_t kDatasetSeed = 2018;
constexpr uint64_t kGroupSeed = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string report_path;
  std::string spans_path;
};

struct Workload {
  Variant variant = Variant::kPpgnn;
  bool cluster = false;
  ProtocolParams params;
  size_t db_size = 62556;
  int shards = 4;
  int replicas = 2;
  int clients = 1;
  int front_workers = 2;
  int shard_workers = 2;
  int setup_repeats = 5;
  int warmup_queries = 1;  ///< per client, inside set-up
  /// Size of the group pool; the first this many query ids visit every
  /// group once, and their work counts are the reported counters.
  int pool_size = 8;
  int fixed_queries = 0;   ///< smoke: run exactly this many, ignore --seconds
};

bool MakeWorkload(const Options& o, Workload* w) {
  // Paper defaults (Table 3): n=8, d=25, delta=100 (delta'=101), k=8,
  // theta0=0.05, F=sum, |D|=62,556.
  w->params.n = 8;
  w->params.d = 25;
  w->params.delta = 100;
  w->params.k = 8;
  w->params.theta0 = 0.05;
  w->params.lsp_threads = 1;
  if (o.workload == "paper_ppgnn" || o.workload == "paper_opt") {
    w->variant =
        o.workload == "paper_opt" ? Variant::kPpgnnOpt : Variant::kPpgnn;
    w->params.key_bits = 1024;
  } else if (o.workload == "cluster_tcp_nas") {
    w->cluster = true;
    w->params.key_bits = 512;
    w->params.sanitize = false;
    w->clients = 2;
    w->warmup_queries = 3;
    w->pool_size = 64;
  } else {
    return false;
  }
  if (o.smoke) {
    w->params.key_bits = 256;
    w->db_size = 4000;
    w->setup_repeats = 2;
    w->warmup_queries = 1;
    w->fixed_queries = w->cluster ? 4 : 3;
    w->pool_size = w->fixed_queries;
  }
  return true;
}

Rng QueryRng(uint64_t seed, uint64_t query_id) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + query_id + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

/// Which entry of the fixed group pool query `query_id` uses: the pool is
/// visited in a seed-rotated order.
uint64_t GroupIndex(const Workload& w, uint64_t seed, uint64_t query_id) {
  return (query_id + seed) % static_cast<uint64_t>(w.pool_size);
}

/// The real user locations of query `query_id`.
std::vector<Point> Group(const Workload& w, uint64_t seed, uint64_t query_id) {
  Rng rng = QueryRng(kGroupSeed, GroupIndex(w, seed, query_id));
  std::vector<Point> out(static_cast<size_t>(w.params.n));
  for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
  return out;
}

/// The protocol randomness (positions, dummies, blinding) of query
/// `query_id`. It depends on the group only, so every visit of a group
/// repeats the same work, in every run; keys are drawn per visit.
Rng InputRng(const Workload& w, uint64_t seed, uint64_t query_id) {
  return QueryRng(kGroupSeed, kInputBase + GroupIndex(w, seed, query_id));
}

/// Moves the calling thread to the `i`-th CPU it may run on (cyclically).
/// Host contention differs from core to core, so a sequential client that
/// visits every core samples all of them instead of whichever core the
/// scheduler would keep it on.
void RotateCpu(uint64_t i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// The decoded answer against the plaintext reference, which is
/// sanitized where sanitation applies (coordinates travel quantized).
bool AnswerMatches(const ProtocolParams& params,
                   const std::vector<Point>& group, const LspDatabase& db,
                   const std::vector<Point>& pois) {
  Rng unused(0);
  const std::vector<RankedPoi> ref = ReferenceAnswer(params, group, db, unused);
  if (ref.size() != pois.size()) return false;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::abs(ref[i].poi.location.x - pois[i].x) > 1e-8 ||
        std::abs(ref[i].poi.location.y - pois[i].y) > 1e-8)
      return false;
  }
  return true;
}

std::vector<uint8_t> CallLink(ServiceLink& link, ServiceRequest request) {
  auto promise = std::make_shared<std::promise<std::vector<uint8_t>>>();
  std::future<std::vector<uint8_t>> reply = promise->get_future();
  // One request, one callback, whether or not Submit admits it.
  (void)link.Submit(std::move(request), [promise](std::vector<uint8_t> frame) {
    promise->set_value(std::move(frame));
  });
  return reply.get();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< operations that returned an error
  uint64_t wrong = 0;   ///< answers that differ from the reference
  std::vector<Metric> metrics;
  std::map<std::string, double> counters;  ///< exact, seed-determined
  std::map<std::string, double> extra;     ///< diagnostics, report only
  /// Per measured query: group, wall ms, user ms, LSP ms, end (s into run).
  std::vector<std::vector<double>> series;
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Problem(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// Work counts summed over the counted query ids, reported per query.
struct Counts {
  uint64_t queries = 0;
  double comm_bytes = 0, pois_returned = 0;
  double delta_prime = 0, samples = 0, tests = 0, sanitized_pois = 0;
  double nodes = 0, encrypts = 0, ops = 0, contexts = 0;

  void AddLsp(const LspCounts& c) {
    delta_prime += static_cast<double>(c.delta_prime);
    samples += static_cast<double>(c.sanitize_samples);
    tests += static_cast<double>(c.sanitize_tests);
    sanitized_pois += static_cast<double>(c.sanitized_pois);
    nodes += static_cast<double>(c.nodes_visited);
    ops += static_cast<double>(c.homomorphic_ops);
  }
  double Per(double total) const {
    return queries == 0 ? 0.0 : total / static_cast<double>(queries);
  }
};

/// One completed query of the measured loop.
struct Sample {
  uint64_t group = 0;  ///< index into the group pool
  double wall_ms = 0, user_ms = 0, lsp_ms = 0;
  int64_t end_ns = 0;
};

/// Which repetition of a pool query stands for it: the 90th percentile of
/// its visits in the run (see AddEndToEnd).
constexpr double kRepetitionQuantile = 0.9;

/// Per pool group, the kRepetitionQuantile of `field` over its visits.
std::vector<double> PerGroup(const std::vector<Sample>& samples,
                             double Sample::*field) {
  std::map<uint64_t, std::vector<double>> visits;
  for (const Sample& s : samples) visits[s.group].push_back(s.*field);
  std::vector<double> out;
  for (const auto& [group, values] : visits)
    out.push_back(Quantile(values, kRepetitionQuantile));
  return out;
}

/// Host contention slows every query at once, wall time and thread CPU
/// alike, by up to about 2x, in phases of seconds to minutes. Such phases
/// reach into nearly every run, while runs without any quiet moment are
/// common, so each pool query is summarised by a high percentile of its
/// visits (kRepetitionQuantile), which a phase mix moves least; the
/// percentiles are then taken over the pool's queries. Throughput is the
/// closed loop's, by Little's law: clients / mean query latency, over the
/// same per-query latencies.
void AddEndToEnd(Report* r, const std::vector<double>& setup_s,
                 const std::vector<Sample>& samples, int clients,
                 int64_t start_ns, std::optional<double> lsp_ms_mean,
                 const Counts& counts) {
  const std::vector<double> wall = PerGroup(samples, &Sample::wall_ms);
  r->Add("setup_s", Quantile(setup_s, kRepetitionQuantile), "s",
         setup_s.size());
  r->Add("query_ms_p50", Median(wall), "ms", samples.size());
  r->Add("query_ms_p90", Quantile(wall, 0.9), "ms", samples.size());
  r->Add("user_cpu_ms_p50", Median(PerGroup(samples, &Sample::user_ms)), "ms",
         samples.size());
  r->Add("lsp_cpu_ms_p50",
         lsp_ms_mean ? *lsp_ms_mean
                     : Median(PerGroup(samples, &Sample::lsp_ms)),
         "ms", samples.size());
  r->Add("comm_bytes", counts.Per(counts.comm_bytes), "bytes", counts.queries);
  const double mean_ms = Sum(wall) / static_cast<double>(wall.size());
  r->Add("qps", mean_ms > 0 ? clients * 1e3 / mean_ms : 0.0, "1/s",
         samples.size());
  r->Add("pois_returned_mean", counts.Per(counts.pois_returned), "count",
         counts.queries);
  const double bad = static_cast<double>(r->failed + r->wrong);
  r->Add("success_rate",
         r->attempted == 0
             ? 0.0
             : 1.0 - bad / static_cast<double>(r->attempted),
         "ratio", r->attempted);
  r->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  r->counters["comm_bytes"] = counts.Per(counts.comm_bytes);
  r->counters["pois_returned_mean"] = counts.Per(counts.pois_returned);
  r->extra["groups"] = static_cast<double>(wall.size());
  for (const Sample& s : samples)
    r->series.push_back({static_cast<double>(s.group), s.wall_ms, s.user_ms,
                         s.lsp_ms, Seconds(start_ns, s.end_ns)});
  std::vector<double> raw;
  for (const Sample& s : samples) raw.push_back(s.wall_ms);
  r->extra["query_ms_p50_per_query"] = Median(raw);
  r->extra["query_ms_p90_per_query"] = Quantile(raw, 0.9);
}

/// Service and transport activity over the measured window.
struct ServiceWindow {
  double queue_wait_ms = 0, execute_ms = 0, shard_execute_ms = 0;
  double hedges = 0, failovers = 0, leg_failures = 0, rejected = 0;
  double dials = 0, io_errors = 0, pooled_reuses = 0, link_submitted = 0;
  double server_connections = 0;
};

double WindowMeanMs(const LatencySummary& before, const LatencySummary& after) {
  const double n =
      static_cast<double>(after.count) - static_cast<double>(before.count);
  if (n <= 0) return 0.0;
  return 1e3 *
         (after.mean_seconds * static_cast<double>(after.count) -
          before.mean_seconds * static_cast<double>(before.count)) /
         n;
}

/// Per-layer metrics from spans, counters, legs and service stats.
void AddPerLayer(Report* r, const std::vector<const Trace*>& traces,
                 const Counts& c, const std::vector<Leg>& legs,
                 double queries_in_window, const ServiceWindow& sw,
                 const std::vector<double>& keygen_ms, double overhead_ratio,
                 double table_bytes) {
  SelfTimes self;
  std::map<uint64_t, double> coverage;
  for (const Trace* t : traces) {
    AccumulateSelfTimes(*t, &self);
    for (const auto& [q, share] : ChildCoverage(*t, "lsp")) coverage[q] = share;
  }
  auto span_ms = [&](const char* metric, const char* span) {
    std::vector<double> per_query;
    for (const auto& [q, names] : self) {
      auto it = names.find(span);
      if (it != names.end())
        per_query.push_back(static_cast<double>(it->second) * 1e-6);
    }
    r->Add(metric, Median(per_query), "ms", per_query.size());
  };
  auto counter = [&](const char* metric, double value, const char* unit) {
    r->Add(metric, value, unit, c.queries);
    r->counters[metric] = value;
  };
  std::vector<double> cover;
  for (const auto& [q, share] : coverage) cover.push_back(share);

  // Coordinator side.
  span_ms("core.plan_ms", "core.plan");
  span_ms("core.indicator_ms", "core.indicator");
  span_ms("core.upload_ms", "core.upload");
  span_ms("core.answer_decode_ms", "core.answer_decode");
  // Crypto and bigint.
  r->Add("crypto.keygen_ms", Median(keygen_ms), "ms", keygen_ms.size());
  span_ms("crypto.first_encrypt_ms", "crypto.first_encrypt");
  counter("crypto.encrypt_count", c.Per(c.encrypts), "count");
  span_ms("crypto.decrypt_ms", "crypto.decrypt");
  span_ms("crypto.pack_ms", "crypto.pack");
  span_ms("crypto.select_ms", "crypto.select");
  counter("crypto.homomorphic_ops", c.Per(c.ops), "count");
  counter("bigint.montgomery_contexts", c.Per(c.contexts), "count");
  r->Add("bigint.fixedbase_table_bytes", table_bytes, "bytes", 1);
  // LSP side.
  span_ms("core.decode_ms", "core.decode");
  span_ms("core.candidate_ms", "core.candidate");
  counter("core.delta_prime", c.Per(c.delta_prime), "count");
  span_ms("core.answer_encode_ms", "core.answer_encode");
  span_ms("core.sanitize_ms", "core.sanitize");
  counter("core.sanitize_samples", c.Per(c.samples), "count");
  counter("core.sanitize_tests", c.Per(c.tests), "count");
  counter("core.sanitize_samples_per_poi",
          c.sanitized_pois == 0 ? 0.0 : c.samples / c.sanitized_pois, "ratio");
  r->Add("core.lsp_span_coverage", Median(cover), "ratio", cover.size());
  span_ms("spatial.kgnn_ms", "spatial.kgnn");
  counter("spatial.nodes_visited", c.Per(c.nodes), "count");
  // Service.
  const double per_q = queries_in_window > 0 ? 1.0 / queries_in_window : 0.0;
  const size_t nq = static_cast<size_t>(queries_in_window);
  r->Add("service.queue_wait_ms_mean", sw.queue_wait_ms, "ms", nq);
  r->Add("service.execute_ms_mean", sw.execute_ms, "ms", nq);
  r->Add("service.shard_execute_ms_mean", sw.shard_execute_ms, "ms",
         legs.size());
  r->Add("service.legs_per_query", static_cast<double>(legs.size()) * per_q,
         "per_query", nq);
  r->Add("service.hedges_launched", sw.hedges * per_q, "per_query", nq);
  r->Add("service.failovers", sw.failovers * per_q, "per_query", nq);
  r->Add("service.leg_failures", sw.leg_failures * per_q, "per_query", nq);
  r->Add("service.rejected", sw.rejected * per_q, "per_query", nq);
  // Transport.
  std::vector<double> leg_ms;
  double leg_bytes = 0;
  for (const Leg& leg : legs) {
    leg_ms.push_back(Seconds(leg.start_ns, leg.end_ns) * 1e3);
    leg_bytes += static_cast<double>(leg.request_bytes + leg.response_bytes);
  }
  const double mean_leg =
      leg_ms.empty() ? 0.0 : Sum(leg_ms) / static_cast<double>(leg_ms.size());
  r->Add("net.transport.leg_ms_p50", Median(leg_ms), "ms", leg_ms.size());
  r->Add("net.transport.overhead_ms_mean", mean_leg - sw.shard_execute_ms, "ms",
         leg_ms.size());
  r->Add("net.transport.leg_bytes_per_query", leg_bytes * per_q, "bytes", nq);
  r->Add("net.transport.dials", sw.dials, "count", 1);
  r->Add("net.transport.pooled_reuse_ratio",
         sw.link_submitted > 0 ? sw.pooled_reuses / sw.link_submitted : 0.0,
         "ratio", static_cast<size_t>(sw.link_submitted));
  r->Add("net.transport.io_errors", sw.io_errors, "count", 1);
  r->extra["net.transport.server_connections"] = sw.server_connections;
  r->Add("trace.overhead_ratio", overhead_ratio, "ratio", 1);
}

void WriteSpans(const std::string& path,
                const std::vector<const Trace*>& traces) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t t = 0; t < traces.size(); ++t) {
    for (const Span& s : traces[t]->spans()) {
      std::fprintf(f,
                   "{\"trace\":%zu,\"query\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   t, static_cast<unsigned long long>(s.query), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  std::fclose(f);
}

bool KeepGoing(const Workload& w, uint64_t query_id, int64_t deadline_ns) {
  if (w.fixed_queries > 0)
    return query_id < static_cast<uint64_t>(w.fixed_queries);
  return query_id < static_cast<uint64_t>(w.pool_size) ||
         NowNs() < deadline_ns;
}

// ---------------------------------------------------------------- paper

Result<std::unique_ptr<LspDatabase>> SetupPaper(const Workload& w,
                                                uint64_t seed) {
  auto db = std::make_unique<LspDatabase>(
      GenerateSequoiaLike(w.db_size, kDatasetSeed));
  for (int i = 0; i < w.warmup_queries; ++i) {
    const uint64_t q = kWarmupBase + static_cast<uint64_t>(i);
    // A fixed warm-up key: prime search time varies from key to key.
    Rng key_rng = QueryRng(kGroupSeed, q);
    Rng rng = InputRng(w, seed, q);
    const std::vector<Point> group = Group(w, seed, q);
    PPGNN_ASSIGN_OR_RETURN(KeyPair keys,
                           GenerateKeyPair(w.params.key_bits, key_rng));
    PPGNN_ASSIGN_OR_RETURN(
        QueryOutcome outcome,
        RunQuery(w.variant, w.params, group, *db, rng, &keys));
    if (!AnswerMatches(w.params, group, *db, outcome.pois))
      return Status::Internal("warm-up answer differs from ReferenceAnswer");
  }
  return db;
}

void RunPaperTimed(const Options& o, const Workload& w, const LspDatabase& db,
                   const std::vector<double>& setup_s, Report* r) {
  std::vector<Sample> samples;
  std::vector<double> keygen_ms;
  Counts counts;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t q = 0; KeepGoing(w, q, deadline); ++q) {
    Rng key_rng = QueryRng(o.seed, q);
    Rng rng = InputRng(w, o.seed, q);
    const std::vector<Point> group = Group(w, o.seed, q);
    RotateCpu(q);
    ++r->attempted;
    const int64_t k0 = NowNs();
    Result<KeyPair> keys = GenerateKeyPair(w.params.key_bits, key_rng);
    if (!keys.ok()) {
      ++r->failed;
      r->Problem("keygen: " + keys.status().ToString());
      continue;
    }
    keygen_ms.push_back(Seconds(k0, NowNs()) * 1e3);
    const int64_t t0 = NowNs();
    Result<QueryOutcome> outcome =
        RunQuery(w.variant, w.params, group, db, rng, &keys.value());
    const int64_t t1 = NowNs();
    if (!outcome.ok()) {
      ++r->failed;
      r->Problem("RunQuery: " + outcome.status().ToString());
      continue;
    }
    samples.push_back({GroupIndex(w, o.seed, q), Seconds(t0, t1) * 1e3,
                       outcome->costs.user_seconds * 1e3,
                       outcome->costs.lsp_seconds * 1e3, t1});
    if (q < static_cast<uint64_t>(w.pool_size)) {
      ++counts.queries;
      counts.comm_bytes += static_cast<double>(outcome->costs.TotalCommBytes());
      counts.pois_returned += static_cast<double>(outcome->info.pois_returned);
    }
    if (!AnswerMatches(w.params, group, db, outcome->pois)) {
      ++r->wrong;
      r->Problem("query " + std::to_string(q) +
                 ": answer differs from ReferenceAnswer");
    }
  }
  AddEndToEnd(r, setup_s, samples, 1, start, std::nullopt, counts);
  r->extra["crypto.keygen_ms_p50"] = Median(keygen_ms);
}

void RunPaperTraced(const Options& o, const Workload& w, const LspDatabase& db,
                    Report* r) {
  const bool opt = w.variant == Variant::kPpgnnOpt;
  // The same query bytes are also served by LspService behind a loopback
  // TCP server, through the benchmark's timed link: that measures the
  // service and transport layers for the single-node shape and checks the
  // served frame against the step-by-step answer.
  ServiceConfig service_config;
  service_config.workers = 1;
  service_config.sanitize = w.params.sanitize;
  LspService service(db, service_config);
  TcpShardServer server(service, TcpServerConfig{});
  if (Status s = server.Start(); !s.ok()) {
    r->Problem("tcp server: " + s.ToString());
    return;
  }
  TcpLinkConfig link_config;
  link_config.port = server.port();
  auto tcp_owned = std::make_unique<TcpLink>(link_config);
  TcpLink* tcp = tcp_owned.get();
  LegLog legs;
  TimedLink link(std::move(tcp_owned), &legs);
  if (Status s = link.Probe(1.0); !s.ok()) r->Problem("probe: " + s.ToString());

  const ServiceStats service_before = service.Stats();
  const TcpLinkStats tcp_before = tcp->Stats();
  const TcpServerStats server_before = server.Stats();
  legs.SetRecording(true);

  Trace trace;
  Counts counts;
  std::vector<double> keygen_ms, traced_ms, untraced_ms;
  uint64_t probes = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t q = 0; KeepGoing(w, q, deadline); ++q) {
    Rng key_rng = QueryRng(o.seed, q);
    Rng rng = InputRng(w, o.seed, q);
    const std::vector<Point> group = Group(w, o.seed, q);
    ++r->attempted;
    const int64_t k0 = NowNs();
    Result<KeyPair> keys = [&] {
      ScopedSpan span(&trace, "crypto.keygen", q);
      return GenerateKeyPair(w.params.key_bits, key_rng);
    }();
    keygen_ms.push_back(Seconds(k0, NowNs()) * 1e3);
    if (!keys.ok()) {
      ++r->failed;
      r->Problem("keygen: " + keys.status().ToString());
      continue;
    }
    Rng untraced_rng = rng;
    Rng check_rng = rng;

    LspCounts lsp_counts;
    const uint64_t contexts_before = MontgomeryContext::created_count();
    const int64_t t0 = NowNs();
    Result<BuiltQuery> built = Status::Internal("not run");
    Result<std::vector<uint8_t>> answer = Status::Internal("not run");
    Result<std::vector<Point>> pois = Status::Internal("not run");
    {
      ScopedSpan root(&trace, "query", q);
      built = BuildQuery(w.variant, w.params, group, keys.value(), nullptr, rng,
                         &trace, q);
      if (built.ok())
        answer = RunLsp(db, built->query_bytes, built->upload_bytes,
                        w.params.sanitize, &trace, q, &lsp_counts);
      if (answer.ok())
        pois = DecryptAnswer(answer.value(), keys.value(), nullptr, opt,
                             &trace, q);
    }
    const int64_t t1 = NowNs();
    const uint64_t contexts_after = MontgomeryContext::created_count();

    // The untraced twin: the same query through RunQuery, under its own
    // key pair so it shares no fixed-base table with the traced pass.
    Rng twin_key_rng = QueryRng(o.seed, kUntracedKeyBase + q);
    Result<KeyPair> twin_keys =
        GenerateKeyPair(w.params.key_bits, twin_key_rng);
    const int64_t u0 = NowNs();
    Result<QueryOutcome> outcome =
        twin_keys.ok() ? RunQuery(w.variant, w.params, group, db, untraced_rng,
                                  &twin_keys.value())
                       : Result<QueryOutcome>(twin_keys.status());
    const int64_t u1 = NowNs();
    if (!outcome.ok() || !pois.ok()) {
      ++r->failed;
      r->Problem("query " + std::to_string(q) + ": " +
                 (outcome.ok() ? pois.status() : outcome.status()).ToString());
      continue;
    }
    untraced_ms.push_back(Seconds(u0, u1) * 1e3);
    traced_ms.push_back(Seconds(t0, t1) * 1e3);

    // The step-by-step request must be BuildServiceRequest's byte for
    // byte, and its answer must equal RunQuery's, LspHandleQuery's and the
    // frame LspService serves over TCP.
    bool same = pois.value() == outcome->pois;
    Result<ServiceRequest> expected = BuildServiceRequest(
        w.variant, w.params, group, keys.value(), check_rng);
    same = same && expected.ok() && expected->query == built->query_bytes &&
           expected->uploads == built->upload_bytes;
    Result<std::vector<uint8_t>> direct =
        LspHandleQuery(db, built->query_bytes, built->upload_bytes,
                       TestConfig{}, w.params.sanitize, 1);
    same = same && direct.ok() && direct.value() == answer.value();
    ServiceRequest request;
    request.query = built->query_bytes;
    request.uploads = built->upload_bytes;
    request.idempotency_key = q + 1;
    Result<ResponseFrame> served =
        ResponseFrame::Decode(CallLink(link, std::move(request)));
    ++probes;
    same = same && served.ok() && !served->is_error &&
           served->answer == answer.value();
    if (!same) {
      ++r->wrong;
      r->Problem("query " + std::to_string(q) +
                 ": step-by-step bytes differ from "
                 "BuildServiceRequest/RunQuery/LspHandleQuery/served frame");
    }
    if (!AnswerMatches(w.params, group, db, pois.value())) {
      ++r->wrong;
      r->Problem("query " + std::to_string(q) +
                 ": answer differs from ReferenceAnswer");
    }
    if (q < static_cast<uint64_t>(w.pool_size)) {
      ++counts.queries;
      counts.AddLsp(lsp_counts);
      counts.encrypts += static_cast<double>(built->encrypts);
      counts.ops += static_cast<double>(built->homomorphic_ops);
      counts.contexts += static_cast<double>(contexts_after - contexts_before);
      counts.comm_bytes += static_cast<double>(outcome->costs.TotalCommBytes());
      counts.pois_returned += static_cast<double>(outcome->info.pois_returned);
    }
  }
  legs.SetRecording(false);

  const ServiceStats service_after = service.Stats();
  const TcpLinkStats tcp_after = tcp->Stats();
  ServiceWindow sw;
  sw.queue_wait_ms =
      WindowMeanMs(service_before.queue_wait, service_after.queue_wait);
  sw.execute_ms = WindowMeanMs(service_before.execute, service_after.execute);
  sw.shard_execute_ms = sw.execute_ms;  // the single node is the one shard
  sw.rejected =
      static_cast<double>(service_after.rejected - service_before.rejected);
  sw.dials = static_cast<double>(tcp_after.dials - tcp_before.dials);
  sw.io_errors =
      static_cast<double>(tcp_after.io_errors - tcp_before.io_errors);
  sw.pooled_reuses =
      static_cast<double>(tcp_after.pooled_reuses - tcp_before.pooled_reuses);
  sw.link_submitted =
      static_cast<double>(tcp_after.submitted - tcp_before.submitted);
  sw.server_connections =
      static_cast<double>(server.Stats().connections_accepted -
                          server_before.connections_accepted);
  if (service_after.accepted + service_after.rejected != probes ||
      service_after.abandoned_executing != 0) {
    r->Problem(
        "service accounting: accepted + rejected != submitted, or work "
        "abandoned");
  }
  link.Close();
  server.Shutdown();

  const double overhead = Median(untraced_ms) > 0
                              ? Median(traced_ms) / Median(untraced_ms) - 1.0
                              : 0.0;
  AddPerLayer(r, {&trace}, counts, legs.Take(), static_cast<double>(probes),
              sw, keygen_ms, overhead,
              static_cast<double>(SharedFixedBaseRegistryStats().table_bytes));
  r->extra["trace.traced_query_ms_p50"] = Median(traced_ms);
  r->extra["trace.untraced_query_ms_p50"] = Median(untraced_ms);
  WriteSpans(o.spans_path, {&trace});
}

int RunPaper(const Options& o, const Workload& w, Report* r) {
  std::vector<double> setup_s;
  std::unique_ptr<LspDatabase> db;
  for (int i = 0; i < (o.trace ? 1 : w.setup_repeats); ++i) {
    db.reset();
    RotateCpu(static_cast<uint64_t>(i));
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<LspDatabase>> made = SetupPaper(w, o.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    db = std::move(made).value();
    setup_s.push_back(Seconds(t0, NowNs()));
  }
  if (o.trace) {
    RunPaperTraced(o, w, *db, r);
  } else {
    RunPaperTimed(o, w, *db, setup_s, r);
  }
  return 0;
}

// -------------------------------------------------------------- cluster

struct Client {
  KeyPair keys;
  std::unique_ptr<Encryptor> enc;  ///< long-lived: fixed-base tables shared
  std::unique_ptr<Decryptor> dec;
};

/// One query as the cluster saw it, kept for counted ids.
struct ServedQuery {
  std::vector<uint8_t> query;
  std::vector<std::vector<uint8_t>> uploads;
  std::vector<uint8_t> answer;
  uint64_t encrypts = 0;
  uint64_t ops = 0;
  uint64_t comm_bytes = 0;
  uint64_t pois = 0;
};

struct ClientRun {
  std::vector<Sample> samples;
  std::vector<double> traced_ms, untraced_ms;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  double cpu_seconds = 0;
  std::map<uint64_t, ServedQuery> served;  ///< counted ids only
  std::vector<std::string> problems;
  Trace trace;
};

struct Cluster {
  std::unique_ptr<LspDatabase> oracle;  ///< single node: references, replay
  std::unique_ptr<LoopbackShardFleet> fleet;
  std::unique_ptr<LegLog> legs;  ///< outlives the cluster's link callbacks
  std::vector<TcpLink*> tcp_links;
  std::unique_ptr<ShardedLspService> cluster;
  std::vector<Client> clients;
  std::atomic<uint64_t> submitted{0};

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    if (cluster) cluster->Shutdown();
    cluster.reset();
    if (fleet) fleet->Shutdown(5.0);
  }
};

void ClientLoop(Cluster& cl, int c, const Workload& w, const Options& o,
                bool warmup, int64_t deadline_ns, ClientRun* out) {
  Client& client = cl.clients[static_cast<size_t>(c)];
  const double cpu_start = ThreadCpuSeconds();
  const uint64_t clients = static_cast<uint64_t>(w.clients);
  for (uint64_t i = 0;; ++i) {
    const uint64_t q =
        warmup ? kWarmupBase + static_cast<uint64_t>(c) * 1000 + i
               : static_cast<uint64_t>(c) + clients * i;
    if (warmup ? i >= static_cast<uint64_t>(w.warmup_queries)
               : !KeepGoing(w, q, deadline_ns))
      break;
    const bool traced = o.trace && !warmup && i % 2 == 1;
    Trace* trace = traced ? &out->trace : nullptr;
    Rng rng = InputRng(w, o.seed, q);
    const std::vector<Point> group = Group(w, o.seed, q);
    ++out->attempted;

    const int64_t t0 = NowNs();
    const double c0 = ThreadCpuSeconds();
    std::optional<ScopedSpan> root;
    if (traced) root.emplace(trace, "query", q);
    const uint64_t ops_before = client.enc->op_count();
    const Encryptor::BlindingStats blinding_before =
        client.enc->blinding_stats();
    ServiceRequest request;
    if (traced) {
      Result<BuiltQuery> built =
          BuildQuery(w.variant, w.params, group, client.keys,
                     client.enc.get(), rng, trace, q);
      if (built.ok()) {
        request.query = std::move(built->query_bytes);
        request.uploads = std::move(built->upload_bytes);
      }
    } else {
      Result<ServiceRequest> built = BuildServiceRequest(
          w.variant, w.params, group, client.keys, rng, {}, client.enc.get());
      if (built.ok()) request = std::move(built).value();
    }
    const Encryptor::BlindingStats blinding_after =
        client.enc->blinding_stats();
    const uint64_t ops = client.enc->op_count() - ops_before;
    if (request.query.empty()) {
      ++out->failed;
      out->problems.push_back("request build failed");
      continue;
    }
    request.idempotency_key = q + 1;
    const double c1 = ThreadCpuSeconds();
    std::vector<uint8_t> frame_bytes;
    {
      ScopedSpan call(trace, "service.call", q);
      cl.submitted.fetch_add(1, std::memory_order_relaxed);
      frame_bytes = cl.cluster->Call(request);
    }
    const double c2 = ThreadCpuSeconds();
    Result<ResponseFrame> frame = ResponseFrame::Decode(frame_bytes);
    Result<std::vector<Point>> pois = Status::Internal("error frame");
    if (traced) {
      if (frame.ok() && !frame->is_error)
        pois = DecryptAnswer(frame->answer, client.keys, client.dec.get(),
                             false, trace, q);
    } else {
      Result<ServedReply> reply =
          ParseServedReply(frame_bytes, client.keys, *client.dec, false);
      if (reply.ok() && reply->ok) pois = std::move(reply->pois);
    }
    root.reset();
    const double c3 = ThreadCpuSeconds();
    const int64_t t1 = NowNs();
    if (!pois.ok()) {
      ++out->failed;
      out->problems.push_back("query " + std::to_string(q) + ": " +
                              pois.status().ToString());
      continue;
    }
    const double ms = Seconds(t0, t1) * 1e3;
    out->samples.push_back(
        {GroupIndex(w, o.seed, q), ms, (c1 - c0 + c3 - c2) * 1e3, 0.0, t1});
    (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
    if (!warmup && q < static_cast<uint64_t>(w.pool_size)) {
      ServedQuery& s = out->served[q];
      s.encrypts = (blinding_after.pool_hits + blinding_after.pool_misses) -
                   (blinding_before.pool_hits + blinding_before.pool_misses);
      s.ops = ops;
      s.pois = pois->size();
      // Position broadcast: one varint per other user (positions <= d).
      ByteWriter pos;
      pos.PutVarint(static_cast<uint64_t>(w.params.d));
      s.comm_bytes = request.query.size() + frame->answer.size() +
                     pos.size() * static_cast<uint64_t>(w.params.n - 1) +
                     AnswerBroadcastBytes(pois.value(), w.params.n);
      for (const auto& u : request.uploads) s.comm_bytes += u.size();
      s.query = std::move(request.query);
      s.uploads = std::move(request.uploads);
      s.answer = frame->answer;
    }
    if (!AnswerMatches(w.params, group, *cl.oracle, pois.value())) {
      ++out->wrong;
      out->problems.push_back("query " + std::to_string(q) +
                              ": answer differs from ReferenceAnswer");
    }
  }
  out->cpu_seconds = ThreadCpuSeconds() - cpu_start;
}

/// Runs every client's loop on its own thread and waits for all.
std::vector<ClientRun> RunClients(Cluster& cl, const Workload& w,
                                  const Options& o, bool warmup,
                                  int64_t deadline_ns) {
  std::vector<ClientRun> runs(static_cast<size_t>(w.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back(ClientLoop, std::ref(cl), c, std::cref(w),
                         std::cref(o), warmup, deadline_ns,
                         &runs[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  return runs;
}

Result<std::unique_ptr<Cluster>> SetupCluster(
    const Workload& w, const Options& o, std::vector<double>* keygen_ms) {
  auto cl = std::make_unique<Cluster>();
  std::vector<Poi> pois = GenerateSequoiaLike(w.db_size, kDatasetSeed);
  cl->oracle = std::make_unique<LspDatabase>(pois);

  LoopbackFleetConfig fleet_config;
  fleet_config.shards = w.shards;
  fleet_config.replicas = w.replicas;
  fleet_config.shard_service.workers = w.shard_workers;
  fleet_config.shard_service.sanitize = false;
  cl->fleet = std::make_unique<LoopbackShardFleet>(pois, fleet_config);
  PPGNN_RETURN_IF_ERROR(cl->fleet->Start());

  ShardClusterConfig config;
  config.shards = w.shards;
  config.replicas = w.replicas;
  config.front.workers = w.front_workers;
  config.front.sanitize = false;
  config.link_policy.seed = 0x5a4d;
  auto factory = cl->fleet->LinkFactory();
  if (o.trace) {
    cl->legs = std::make_unique<LegLog>();
    Cluster* raw = cl.get();
    // Called from the cluster constructor, on this thread.
    config.link_factory = [raw, factory](int shard, int replica)
        -> std::unique_ptr<ServiceLink> {
      std::unique_ptr<ServiceLink> inner = factory(shard, replica);
      raw->tcp_links.push_back(dynamic_cast<TcpLink*>(inner.get()));
      return std::make_unique<TimedLink>(std::move(inner), raw->legs.get());
    };
  } else {
    config.link_factory = factory;
  }
  cl->cluster =
      std::make_unique<ShardedLspService>(std::move(pois), std::move(config));

  for (int c = 0; c < w.clients; ++c) {
    Rng rng = QueryRng(o.seed, kKeyBase + static_cast<uint64_t>(c));
    const int64_t k0 = NowNs();
    PPGNN_ASSIGN_OR_RETURN(KeyPair keys,
                           GenerateKeyPair(w.params.key_bits, rng));
    keygen_ms->push_back(Seconds(k0, NowNs()) * 1e3);
    Client client;
    client.enc = std::make_unique<Encryptor>(keys);
    client.dec = std::make_unique<Decryptor>(keys.pub, keys.sec);
    client.keys = std::move(keys);
    cl->clients.push_back(std::move(client));
  }
  // Warm-up: fixed-base tables, page faults and pooled TCP dials, with
  // both clients at once so every link opens as many connections as the
  // measured loop needs.
  for (const ClientRun& run : RunClients(*cl, w, o, /*warmup=*/true, 0)) {
    if (run.failed + run.wrong > 0)
      return Status::Internal(
          "warm-up query failed: " +
          (run.problems.empty() ? std::string() : run.problems[0]));
  }
  return cl;
}

int RunCluster(const Options& o, const Workload& w, Report* r) {
  std::vector<double> setup_s, keygen_ms;
  std::unique_ptr<Cluster> cl;
  for (int i = 0; i < (o.trace ? 1 : w.setup_repeats); ++i) {
    cl.reset();
    keygen_ms.clear();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<Cluster>> made = SetupCluster(w, o, &keygen_ms);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    cl = std::move(made).value();
    setup_s.push_back(Seconds(t0, NowNs()));
  }

  // Window snapshots for the traced run's service/transport deltas.
  const ServiceStats front_before = cl->cluster->Stats();
  std::vector<ServiceStats> shard_before;
  std::vector<ReplicaSetStats> sets_before;
  std::vector<TcpLinkStats> links_before;
  uint64_t conns_before = 0;
  for (int s = 0; s < w.shards; ++s) {
    sets_before.push_back(cl->cluster->replica_set(s).Stats());
    for (int rep = 0; rep < w.replicas; ++rep) {
      shard_before.push_back(cl->fleet->service(s, rep).Stats());
      conns_before += cl->fleet->server(s, rep).Stats().connections_accepted;
    }
  }
  for (TcpLink* link : cl->tcp_links) links_before.push_back(link->Stats());
  if (cl->legs) cl->legs->SetRecording(true);

  const uint64_t contexts_before = MontgomeryContext::created_count();
  const double proc_cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  std::vector<ClientRun> runs =
      RunClients(*cl, w, o, /*warmup=*/false,
                 start + static_cast<int64_t>(o.seconds * 1e9));
  const double proc_cpu = ProcessCpuSeconds() - proc_cpu0;
  const uint64_t contexts =
      MontgomeryContext::created_count() - contexts_before;
  if (cl->legs) cl->legs->SetRecording(false);

  std::vector<Sample> samples;
  std::vector<double> traced_ms, untraced_ms;
  double client_cpu = 0;
  std::map<uint64_t, ServedQuery> served;
  for (ClientRun& run : runs) {
    r->attempted += run.attempted;
    r->failed += run.failed;
    r->wrong += run.wrong;
    for (const std::string& p : run.problems) r->Problem(p);
    samples.insert(samples.end(), run.samples.begin(), run.samples.end());
    traced_ms.insert(traced_ms.end(), run.traced_ms.begin(),
                     run.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), run.untraced_ms.begin(),
                       run.untraced_ms.end());
    client_cpu += run.cpu_seconds;
    served.merge(run.served);
  }
  const double completed = static_cast<double>(samples.size());

  Counts counts;
  for (const auto& [q, s] : served) {
    ++counts.queries;
    counts.comm_bytes += static_cast<double>(s.comm_bytes);
    counts.pois_returned += static_cast<double>(s.pois);
    counts.encrypts += static_cast<double>(s.encrypts);
    counts.ops += static_cast<double>(s.ops);
  }

  // Invariants: every submitted query was accepted or rejected, and no
  // admitted work was abandoned, at the front or on any replica.
  const ServiceStats front_after = cl->cluster->Stats();
  if (front_after.accepted + front_after.rejected != cl->submitted.load())
    r->Problem("front: accepted + rejected != submitted");
  uint64_t abandoned = front_after.abandoned_executing;
  for (int s = 0; s < w.shards; ++s)
    for (int rep = 0; rep < w.replicas; ++rep)
      abandoned += cl->fleet->service(s, rep).Stats().abandoned_executing;
  if (abandoned != 0) r->Problem("work abandoned after it started");

  if (!o.trace) {
    const double lsp_ms =
        completed > 0 ? (proc_cpu - client_cpu) * 1e3 / completed : 0;
    AddEndToEnd(r, setup_s, samples, w.clients, start, lsp_ms, counts);
    return 0;
  }

  // Traced run: the LSP sub-layers of the counted queries, replayed step
  // by step on the single-node database. The replayed answer must equal
  // the cluster's byte for byte.
  Trace replay;
  for (const auto& [q, s] : served) {
    LspCounts lsp_counts;
    Result<std::vector<uint8_t>> answer =
        RunLsp(*cl->oracle, s.query, s.uploads, w.params.sanitize, &replay, q,
               &lsp_counts);
    if (!answer.ok() || answer.value() != s.answer) {
      ++r->wrong;
      r->Problem("query " + std::to_string(q) +
                 ": cluster answer differs from the single-node pipeline");
    }
    counts.AddLsp(lsp_counts);
  }
  // Contexts are process-wide, so they are counted over the window.
  counts.contexts =
      completed > 0
          ? contexts * static_cast<double>(counts.queries) / completed
          : 0;

  ServiceWindow sw;
  sw.queue_wait_ms =
      WindowMeanMs(front_before.queue_wait, front_after.queue_wait);
  sw.execute_ms = WindowMeanMs(front_before.execute, front_after.execute);
  sw.rejected =
      static_cast<double>(front_after.rejected - front_before.rejected);
  sw.failovers = static_cast<double>(front_after.replica_failovers -
                                     front_before.replica_failovers);
  double shard_exec_total = 0, shard_exec_count = 0, conns_after = 0;
  for (int s = 0; s < w.shards; ++s) {
    const ReplicaSetStats set = cl->cluster->replica_set(s).Stats();
    const ReplicaSetStats& set0 = sets_before[static_cast<size_t>(s)];
    sw.hedges +=
        static_cast<double>(set.hedges_launched - set0.hedges_launched);
    for (size_t rep = 0; rep < set.replicas.size(); ++rep) {
      sw.leg_failures += static_cast<double>(set.replicas[rep].leg_failures -
                                             set0.replicas[rep].leg_failures);
    }
    for (int rep = 0; rep < w.replicas; ++rep) {
      const ServiceStats now = cl->fleet->service(s, rep).Stats();
      const ServiceStats& was =
          shard_before[static_cast<size_t>(s * w.replicas + rep)];
      const double n =
          static_cast<double>(now.execute.count - was.execute.count);
      shard_exec_total += n * WindowMeanMs(was.execute, now.execute);
      shard_exec_count += n;
      sw.rejected += static_cast<double>(now.rejected - was.rejected);
      conns_after += static_cast<double>(
          cl->fleet->server(s, rep).Stats().connections_accepted);
    }
  }
  sw.shard_execute_ms =
      shard_exec_count > 0 ? shard_exec_total / shard_exec_count : 0;
  sw.server_connections = conns_after - static_cast<double>(conns_before);
  for (size_t i = 0; i < cl->tcp_links.size(); ++i) {
    const TcpLinkStats now = cl->tcp_links[i]->Stats();
    sw.dials += static_cast<double>(now.dials - links_before[i].dials);
    sw.io_errors +=
        static_cast<double>(now.io_errors - links_before[i].io_errors);
    sw.pooled_reuses +=
        static_cast<double>(now.pooled_reuses - links_before[i].pooled_reuses);
    sw.link_submitted +=
        static_cast<double>(now.submitted - links_before[i].submitted);
  }

  // Join every leg to the query that caused it.
  std::map<uint64_t, uint64_t> leg_owner;
  // Measured ids are c + clients * i; one client may run ahead.
  for (uint64_t q = 0; q < 2 * r->attempted + 2; ++q)
    for (int s = 0; s < w.shards; ++s)
      leg_owner[ShardLegKey(q + 1, static_cast<uint64_t>(s))] = q;
  std::vector<Leg> legs = cl->legs->Take();
  Trace leg_trace;
  size_t unowned = 0;
  for (const Leg& leg : legs) {
    auto it = leg_owner.find(leg.key);
    if (it == leg_owner.end()) {
      ++unowned;
      continue;
    }
    Span span;
    span.name = "net.transport.leg";
    span.start_ns = leg.start_ns;
    span.end_ns = leg.end_ns;
    span.query = it->second;
    leg_trace.Add(span);
  }
  r->extra["net.transport.unattributed_legs"] = static_cast<double>(unowned);

  std::vector<const Trace*> traces;
  for (const ClientRun& run : runs) traces.push_back(&run.trace);
  traces.push_back(&replay);
  traces.push_back(&leg_trace);
  const double overhead = Median(untraced_ms) > 0
                              ? Median(traced_ms) / Median(untraced_ms) - 1.0
                              : 0.0;
  size_t table_bytes = SharedFixedBaseRegistryStats().table_bytes;
  for (const Client& c : cl->clients)
    table_bytes += c.enc->blinding_stats().table_bytes;
  AddPerLayer(r, traces, counts, legs, completed, sw, keygen_ms, overhead,
              static_cast<double>(table_bytes));
  r->extra["trace.traced_query_ms_p50"] = Median(traced_ms);
  r->extra["trace.untraced_query_ms_p50"] = Median(untraced_ms);
  WriteSpans(o.spans_path, traces);
  return 0;
}

// --------------------------------------------------------------- output

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ResultLine(const Report& r) {
  std::string s = "{\"correct\": ";
  s += r.correct && r.failed == 0 && r.wrong == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed + r.wrong);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}}";
}

void WriteReport(const std::string& path, const Options& o, const Workload& w,
                 const Report& r) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"config\": {\"workload\": \"%s\", \"seed\": %llu, "
               "\"seconds\": %s, \"trace\": %d, \"smoke\": %d, "
               "\"variant\": \"%s\", \"n\": %d, \"d\": %d, \"delta\": %d, "
               "\"k\": %d, \"theta0\": %s, "
               "\"key_bits\": %d, \"sanitize\": %d, \"db_size\": %zu, "
               "\"shards\": %d, \"replicas\": %d, \"clients\": %d, "
               "\"front_workers\": %d, \"shard_workers\": %d, "
               "\"setup_repeats\": %d, \"warmup_queries\": %d, "
               "\"pool_size\": %d, \"fixed_queries\": %d},\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               Num(o.seconds).c_str(), o.trace ? 1 : 0, o.smoke ? 1 : 0,
               VariantToString(w.variant), w.params.n, w.params.d,
               w.params.delta, w.params.k, Num(w.params.theta0).c_str(),
               w.params.key_bits, w.params.sanitize ? 1 : 0, w.db_size,
               w.cluster ? w.shards : 1, w.cluster ? w.replicas : 1, w.clients,
               w.front_workers, w.shard_workers,
               o.trace ? 1 : w.setup_repeats, w.warmup_queries, w.pool_size,
               w.fixed_queries);
  std::fprintf(f, "  \"metrics\": {");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                 "\"samples\": %zu}",
                 i ? "," : "", m.name.c_str(), Num(m.value).c_str(),
                 m.unit.c_str(), m.samples);
  }
  auto write_map = [f](const char* key,
                       const std::map<std::string, double>& m) {
    std::fprintf(f, "},\n  \"%s\": {", key);
    bool first = true;
    for (const auto& [name, value] : m) {
      std::fprintf(f, "%s\n    \"%s\": %s", first ? "" : ",", name.c_str(),
                   Num(value).c_str());
      first = false;
    }
  };
  write_map("counters", r.counters);
  write_map("extra", r.extra);
  std::fprintf(f, "},\n  \"series\": [");
  for (size_t i = 0; i < r.series.size(); ++i) {
    std::fprintf(f, "%s\n    [", i ? "," : "");
    for (size_t j = 0; j < r.series[i].size(); ++j)
      std::fprintf(f, "%s%s", j ? ", " : "", Num(r.series[i][j]).c_str());
    std::fprintf(f, "]");
  }
  std::fprintf(f, "\n  ], \"problems\": [");
  for (size_t i = 0; i < r.problems.size(); ++i) {
    std::string p;
    for (char ch : r.problems[i]) {
      if (ch == '"' || ch == '\\') p += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) p += ch;
    }
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", p.c_str());
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<paper_ppgnn|paper_opt|cluster_tcp_nas> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--report <file>] "
               "[--spans <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--report" && has_value) {
      o.report_path = argv[++i];
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!MakeWorkload(o, &w) || !(o.seconds > 0)) return Usage();
  Report r;
  const int rc = w.cluster ? RunCluster(o, w, &r) : RunPaper(o, w, &r);
  if (rc != 0) return rc;
  WriteReport(o.report_path, o, w, r);
  std::printf("%s\n", ResultLine(r).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
