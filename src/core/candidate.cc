#include "core/candidate.h"

#include <numeric>

namespace ppgnn {
namespace {

Status ValidateSets(const PartitionPlan& plan,
                    const std::vector<LocationSet>& location_sets) {
  const int n = static_cast<int>(location_sets.size());
  int n_total = std::accumulate(plan.n_bar.begin(), plan.n_bar.end(), 0);
  if (n_total != n)
    return Status::InvalidArgument("plan subgroup sizes do not sum to n");
  const size_t d = static_cast<size_t>(
      std::accumulate(plan.d_bar.begin(), plan.d_bar.end(), 0));
  for (const LocationSet& set : location_sets) {
    if (set.size() != d)
      return Status::InvalidArgument("location set size != sum(d_bar)");
  }
  return Status::OK();
}

// Builds the candidate query for segment `seg` (1-based) and combination
// code `code` in [0, d_seg^alpha): digit j (most significant first) is the
// 0-based position of subgroup j+1 within the segment.
std::vector<Point> BuildCandidate(const PartitionPlan& plan,
                                  const std::vector<LocationSet>& sets,
                                  const std::vector<int>& subgroup_of_user,
                                  int seg, uint64_t code) {
  const int d_seg = plan.d_bar[seg - 1];
  const int offset0 = plan.SegmentOffset(seg) - 1;  // 0-based segment start
  // Decode per-subgroup positions.
  std::vector<int> pos0(plan.alpha);  // 0-based within segment
  for (int j = plan.alpha - 1; j >= 0; --j) {
    pos0[j] = static_cast<int>(code % static_cast<uint64_t>(d_seg));
    code /= static_cast<uint64_t>(d_seg);
  }
  std::vector<Point> candidate(sets.size());
  for (size_t u = 0; u < sets.size(); ++u) {
    candidate[u] = sets[u][offset0 + pos0[subgroup_of_user[u]]];
  }
  return candidate;
}

}  // namespace

std::vector<int> SubgroupOfUser(const PartitionPlan& plan) {
  std::vector<int> out;
  for (size_t j = 0; j < plan.n_bar.size(); ++j) {
    for (int c = 0; c < plan.n_bar[j]; ++c) out.push_back(static_cast<int>(j));
  }
  return out;
}

Result<std::vector<std::vector<Point>>> GenerateCandidateQueries(
    const PartitionPlan& plan, const std::vector<LocationSet>& location_sets,
    Deadline deadline) {
  PPGNN_RETURN_IF_ERROR(ValidateSets(plan, location_sets));
  std::vector<int> subgroup = SubgroupOfUser(plan);
  std::vector<std::vector<Point>> out;
  out.reserve(plan.delta_prime);
  for (int seg = 1; seg <= plan.beta(); ++seg) {
    uint64_t combos = 1;
    for (int j = 0; j < plan.alpha; ++j)
      combos *= static_cast<uint64_t>(plan.d_bar[seg - 1]);
    for (uint64_t code = 0; code < combos; ++code) {
      // Check coarsely: a clock read per 64 candidates is invisible next
      // to the per-candidate vector construction.
      if ((out.size() & 63) == 0 && Expired(deadline)) {
        return Status::DeadlineExceeded(
            "candidate expansion abandoned past deadline");
      }
      out.push_back(BuildCandidate(plan, location_sets, subgroup, seg, code));
    }
  }
  return out;
}

Result<std::vector<Point>> CandidateQueryAt(
    const PartitionPlan& plan, const std::vector<LocationSet>& location_sets,
    uint64_t qi) {
  PPGNN_RETURN_IF_ERROR(ValidateSets(plan, location_sets));
  if (qi < 1 || qi > plan.delta_prime)
    return Status::OutOfRange("candidate query index out of range");
  uint64_t remaining = qi - 1;
  for (int seg = 1; seg <= plan.beta(); ++seg) {
    uint64_t combos = 1;
    for (int j = 0; j < plan.alpha; ++j)
      combos *= static_cast<uint64_t>(plan.d_bar[seg - 1]);
    if (remaining < combos) {
      std::vector<int> subgroup = SubgroupOfUser(plan);
      return BuildCandidate(plan, location_sets, subgroup, seg, remaining);
    }
    remaining -= combos;
  }
  return Status::Internal("candidate index not located");
}

}  // namespace ppgnn
