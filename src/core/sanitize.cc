#include "core/sanitize.h"

#include <algorithm>

#include "core/attack.h"

namespace ppgnn {
namespace {

constexpr Rect kDataSpace{0.0, 0.0, 1.0, 1.0};

// One (prefix, target) test on a fresh `test`. Each block is as long as
// the test can run without deciding before its last sample, so it draws
// exactly the samples, and leaves `rng` exactly where, feeding one
// Satisfies(SamplePoint(rng)) at a time to AddSample would.
bool RegionExceedsTheta0(SequentialProportionTest test,
                         const InequalityAttack& attack, size_t prefix_len,
                         Rng& rng, SanitizeStats* stats) {
  if (stats != nullptr) ++stats->tests_run;
  while (const uint64_t block = test.Lookahead()) {
    test.AddBatch(block, attack.CountSatisfied(rng, block, prefix_len));
    if (stats != nullptr) stats->samples_drawn += block;
  }
  // Rejecting H0 proves the solution region exceeds theta0: safe.
  return test.CurrentVerdict() == SequentialProportionTest::Verdict::kReject;
}

}  // namespace

Result<AnswerSanitizer> AnswerSanitizer::Create(double theta0,
                                                const TestConfig& config) {
  PPGNN_ASSIGN_OR_RETURN(uint64_t n_h, RequiredSampleSize(theta0, config));
  return AnswerSanitizer(theta0, config, n_h);
}

bool AnswerSanitizer::PrefixSafeForTarget(
    const std::vector<Point>& colluders,
    const std::vector<Point>& prefix_points, AggregateKind kind, Rng& rng,
    SanitizeStats* stats, const DistanceOracle* oracle) const {
  InequalityAttack attack(colluders, prefix_points, kind, kDataSpace, oracle);
  return RegionExceedsTheta0(
      SequentialProportionTest(sample_size_, theta0_, config_), attack,
      prefix_points.size(), rng, stats);
}

std::vector<RankedPoi> AnswerSanitizer::Sanitize(
    const std::vector<RankedPoi>& answer, const std::vector<Point>& locations,
    AggregateKind kind, Rng& rng, SanitizeStats* stats,
    const DistanceOracle* oracle) const {
  const size_t n = locations.size();
  if (n <= 1 || answer.size() <= 1) return answer;

  std::vector<Point> answer_points;
  answer_points.reserve(answer.size());
  for (const RankedPoi& rp : answer) answer_points.push_back(rp.poi.location);

  // The colluder partials depend only on (POI, target), so one attack per
  // target over the whole answer serves every prefix length.
  std::vector<InequalityAttack> attacks;
  attacks.reserve(n);
  std::vector<Point> colluders;
  for (size_t target = 0; target < n; ++target) {
    colluders.clear();
    for (size_t u = 0; u < n; ++u) {
      if (u != target) colluders.push_back(locations[u]);
    }
    attacks.emplace_back(colluders, answer_points, kind, kDataSpace, oracle);
  }

  const SequentialProportionTest fresh(sample_size_, theta0_, config_);
  // The length-1 prefix carries no inequalities; extend while the next
  // prefix is safe for every target, testing targets in user order.
  size_t safe_len = 1;
  while (safe_len < answer.size() &&
         std::all_of(attacks.begin(), attacks.end(),
                     [&](const InequalityAttack& attack) {
                       return RegionExceedsTheta0(fresh, attack, safe_len + 1,
                                                  rng, stats);
                     })) {
    ++safe_len;
  }
  return std::vector<RankedPoi>(answer.begin(),
                                answer.begin() + static_cast<long>(safe_len));
}

}  // namespace ppgnn
