// Ablation benches for the design choices called out in DESIGN.md:
//
//   A1  Wald's SPRT vs Eqn 16 in the sanitation test — on the same
//       candidates, the LSP's sequential test against the paper's Z-test
//       on all N_H samples: samples drawn, verdicts, their agreement, and
//       the answer lengths each rule would return.
//   A2  Dummy-generation policy vs a Bayesian prior-equipped LSP
//       adversary — how much Privacy I really depends on dummy quality.
//   A3  Parallel LSP candidate processing — wall-clock speedup at equal
//       total work (the reported LSP *cost* is invariant by design).
//   A4  Euclidean vs road-network black box — LSP cost and answer
//       divergence when the metric changes under the same protocol.
//   A5  Dataset density vs sanitized answer length — explains the Fig 7
//       level difference vs the paper.

#include <chrono>
#include <thread>

#include "bench_util.h"

using namespace ppgnn;
using namespace ppgnn::bench;

namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AblationSanitationRule(const LspDatabase& lsp,
                            const BenchConfig& config) {
  std::printf("\n-- A1: Wald's SPRT vs Eqn 16 on N_H samples --\n");
  constexpr int kUsers = 8, kPois = 8, kQueries = 20;
  const TestConfig test;
  Rng rng(config.seed);
  for (double theta0 : {0.01, 0.05, 0.1}) {
    auto sanitizer = ValueOrDie(AnswerSanitizer::Create(theta0, test));
    const uint64_t n_h = sanitizer.sample_size();
    SanitizeStats sprt;
    uint64_t agree = 0, sprt_safe = 0, eqn16_safe = 0;
    uint64_t sprt_pois = 0, eqn16_pois = 0;
    int same_length = 0;
    for (int q = 0; q < kQueries; ++q) {
      const auto group = RandomGroup(kUsers, rng);
      const auto answer = lsp.solver().Query(group, kPois, AggregateKind::kSum);
      std::vector<Point> points;
      for (const RankedPoi& rp : answer) points.push_back(rp.poi.location);
      Rng mc(1000 + q);
      // Every (prefix, target) pair is tested under both rules. Each
      // rule's answer is the longest prefix whose every extension step
      // passed for every target, as Sanitize returns it.
      size_t sprt_len = 1, eqn16_len = 1;
      for (size_t len = 2; len <= points.size(); ++len) {
        const std::vector<Point> prefix(points.begin(),
                                        points.begin() + len);
        bool sprt_all = true, eqn16_all = true;
        for (int target = 0; target < kUsers; ++target) {
          std::vector<Point> colluders;
          for (int u = 0; u < kUsers; ++u) {
            if (u != target) colluders.push_back(group[u]);
          }
          const bool by_sprt = sanitizer.PrefixSafeForTarget(
              colluders, prefix, AggregateKind::kSum, mc, &sprt);
          const InequalityAttack attack(colluders, prefix,
                                        AggregateKind::kSum);
          const bool by_eqn16 =
              RejectsH0(attack.CountSatisfied(mc, n_h, len), n_h, theta0,
                        test.gamma);
          agree += by_sprt == by_eqn16 ? 1 : 0;
          sprt_safe += by_sprt ? 1 : 0;
          eqn16_safe += by_eqn16 ? 1 : 0;
          sprt_all = sprt_all && by_sprt;
          eqn16_all = eqn16_all && by_eqn16;
        }
        if (sprt_all && sprt_len == len - 1) sprt_len = len;
        if (eqn16_all && eqn16_len == len - 1) eqn16_len = len;
      }
      sprt_pois += sprt_len;
      eqn16_pois += eqn16_len;
      same_length += sprt_len == eqn16_len ? 1 : 0;
    }
    const uint64_t tests = sprt.tests_run;
    std::printf(
        "theta0=%-5.2f N_H=%-6llu %llu tests (%d queries x %d prefixes x %d "
        "targets)\n"
        "  SPRT:   %-10llu samples (%6.0f per test)  safe %-4llu  POIs "
        "returned %llu\n"
        "  Eqn 16: %-10llu samples (%6llu per test)  safe %-4llu  POIs "
        "returned %llu\n"
        "  verdicts agree on %.1f%% of tests; same answer length on %d/%d "
        "queries; the SPRT draws %.1fx fewer samples\n",
        theta0, static_cast<unsigned long long>(n_h),
        static_cast<unsigned long long>(tests), kQueries, kPois - 1, kUsers,
        static_cast<unsigned long long>(sprt.samples_drawn),
        static_cast<double>(sprt.samples_drawn) / static_cast<double>(tests),
        static_cast<unsigned long long>(sprt_safe),
        static_cast<unsigned long long>(sprt_pois),
        static_cast<unsigned long long>(tests * n_h),
        static_cast<unsigned long long>(n_h),
        static_cast<unsigned long long>(eqn16_safe),
        static_cast<unsigned long long>(eqn16_pois),
        100.0 * static_cast<double>(agree) / static_cast<double>(tests),
        same_length, kQueries,
        static_cast<double>(tests * n_h) /
            static_cast<double>(sprt.samples_drawn));
  }
}

void AblationDummyPolicies(const LspDatabase& lsp, const BenchConfig& config) {
  std::printf(
      "\n-- A2: dummy policy vs a Bayesian adversary with the POI prior --\n");
  PoiDensityDummyGenerator density(lsp.pois(), 32);
  UniformDummyGenerator uniform;
  NearbyDummyGenerator nearby(0.05);
  const DummyGenerator* policies[] = {&uniform, &density, &nearby};
  const int d = 25, trials = 2000;
  for (const DummyGenerator* policy : policies) {
    Rng rng(config.seed + 99);
    int hits = 0;
    for (int t = 0; t < trials; ++t) {
      // Users live where POIs are dense.
      Point real = lsp.pois()[rng.NextBelow(lsp.pois().size())].location;
      std::vector<Point> set(d);
      for (Point& p : set) p = policy->Generate(real, rng);
      size_t real_pos = rng.NextBelow(d);
      set[real_pos] = real;
      size_t guess = 0;
      double best = -1;
      for (size_t i = 0; i < set.size(); ++i) {
        double mass = density.CellMass(set[i]);
        if (mass > best) {
          best = mass;
          guess = i;
        }
      }
      if (guess == real_pos) ++hits;
    }
    std::printf(
        "%-12s adversary identifies the real location %5.1f%% of the time "
        "(ideal Privacy I: %.1f%%)\n",
        policy->name(), 100.0 * hits / trials, 100.0 / d);
  }
}

void AblationParallelLsp(const LspDatabase& lsp, const BenchConfig& config) {
  std::printf("\n-- A3: parallel LSP candidate processing (wall clock) --\n");
  std::printf(
      "(host has %u hardware threads; speedup is bounded by that and by the "
      "serial user-side share of the wall time)\n",
      std::thread::hardware_concurrency());
  ProtocolParams params;
  params.key_bits = config.key_bits;  // defaults otherwise: n=8, delta=100
  double base_wall = 0;
  for (int threads : {1, 2, 4, 8}) {
    params.lsp_threads = threads;
    Rng rng(config.seed + 7);
    auto group = RandomGroup(params.n, rng);
    double t0 = WallSeconds();
    auto outcome = RunQuery(Variant::kPpgnn, params, group, lsp, rng);
    double wall = WallSeconds() - t0;
    if (!outcome.ok()) {
      std::printf("threads=%d ERROR %s\n", threads,
                  outcome.status().ToString().c_str());
      return;
    }
    if (threads == 1) base_wall = wall;
    std::printf(
        "threads=%-3d wall=%-8.2fms lsp_cost=%-8.2fms (total work) "
        "speedup x%.2f\n",
        threads, wall * 1e3, outcome->costs.lsp_seconds * 1e3,
        base_wall / wall);
  }
}

void AblationRoadMetric(const BenchConfig& config) {
  std::printf("\n-- A4: Euclidean vs road-network kGNN black box --\n");
  Rng net_rng(config.seed + 5);
  RoadNetwork roads = RoadNetwork::BuildGrid(32, 32, net_rng, 0.3, 0.3);
  LspDatabase euclid(GenerateSequoiaLike(10000, config.seed));
  LspDatabase road(GenerateSequoiaLike(10000, config.seed));
  RoadDistanceOracle oracle(&roads);
  road.SetSolver(std::make_unique<RoadGnnSolver>(&roads, &road.pois()));
  road.SetDistanceOracle(&oracle);

  ProtocolParams params;
  params.n = 4;
  params.delta = 50;
  params.key_bits = config.key_bits;
  int divergent = 0;
  CostReport euclid_costs, road_costs;
  const int queries = std::max(config.queries, 3);
  Rng rng(config.seed + 6);
  for (int q = 0; q < queries; ++q) {
    auto group = RandomGroup(params.n, rng);
    Rng r1(q), r2(q);
    auto a = RunQuery(Variant::kPpgnn, params, group, euclid, r1);
    auto b = RunQuery(Variant::kPpgnn, params, group, road, r2);
    if (!a.ok() || !b.ok()) {
      std::printf("ERROR: %s / %s\n", a.status().ToString().c_str(),
                  b.status().ToString().c_str());
      return;
    }
    euclid_costs += a->costs;
    road_costs += b->costs;
    if (a->pois.empty() || b->pois.empty() || !(a->pois[0] == b->pois[0]))
      ++divergent;
  }
  std::printf(
      "euclidean: lsp=%.2fms    road: lsp=%.2fms   top-1 answers differ in "
      "%d/%d queries\n",
      euclid_costs.DividedBy(queries).lsp_seconds * 1e3,
      road_costs.DividedBy(queries).lsp_seconds * 1e3, divergent, queries);
}

void AblationDatasetSkew(const BenchConfig& config) {
  // Investigates the Fig 7 deviation (we saturate at ~3 POIs where the
  // paper reports ~4). Finding: spatial SKEW does not matter (uniform
  // and clustered give identical lengths), but absolute answer DENSITY
  // does — with fewer POIs the top-k are farther apart, each inequality
  // cuts a larger region, and longer prefixes survive the theta0 test.
  std::printf(
      "\n-- A5: dataset skew vs sanitized answer length (k=8, n=8, "
      "theta0=0.01) --\n");
  struct Shape {
    const char* name;
    std::vector<Poi> pois;
  };
  Shape shapes[] = {
      {"uniform-62k", GenerateUniform(config.db_size, config.seed)},
      {"clustered-62k", GenerateSequoiaLike(config.db_size, config.seed)},
      {"clustered-5k", GenerateSequoiaLike(5000, config.seed)},
      {"clustered-500", GenerateSequoiaLike(500, config.seed)},
  };
  for (Shape& shape : shapes) {
    LspDatabase lsp(std::move(shape.pois));
    ProtocolParams params;
    params.theta0 = 0.01;
    double total = 0;
    const int queries = 20;
    Rng rng(config.seed + 11);
    for (int q = 0; q < queries; ++q) {
      auto group = RandomGroup(8, rng);
      Rng ref(0);
      total += static_cast<double>(
          ReferenceAnswer(params, group, lsp, ref).size());
    }
    std::printf("%-10s avg POIs returned: %.2f of k=8\n", shape.name,
                total / queries);
  }
}

}  // namespace

int main() {
  BenchConfig config;
  LspDatabase lsp(GenerateSequoiaLike(config.db_size, config.seed));
  PrintHeader("Design-choice ablations", config);
  AblationSanitationRule(lsp, config);
  AblationDummyPolicies(lsp, config);
  AblationParallelLsp(lsp, config);
  AblationRoadMetric(config);
  AblationDatasetSkew(config);
  return 0;
}
