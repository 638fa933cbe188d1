// Candidate-query generation on the LSP side (Section 4.1 of the paper).
//
// Given every user's location set L_i (all of size d) and the partition
// plan {n_bar, d_bar}, LSP forms, for each segment, the cartesian product
// over subgroups of the segment's positions, yielding
// delta' = sum_i d_bar[i]^alpha candidate queries in the lexicographic
// order of (segment, subgroup-1 position, ..., subgroup-alpha position).
// The list index of the real query equals Eqn 12's QueryIndex.

#ifndef PPGNN_CORE_CANDIDATE_H_
#define PPGNN_CORE_CANDIDATE_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/partition.h"
#include "geo/point.h"

namespace ppgnn {

/// One user's location set: exactly d locations, the real one hidden at an
/// agreed position.
using LocationSet = std::vector<Point>;

/// Maps user index (0-based) to subgroup index (0-based) under the plan.
std::vector<int> SubgroupOfUser(const PartitionPlan& plan);

/// Enumerates all candidate queries in candidate-list order. Each inner
/// vector has one location per user, in user order. Validates that every
/// location set has size sum(d_bar). `deadline` is checked every 64
/// candidates during expansion (delta' can reach the millions under
/// adversarial plans); once it has passed the call returns
/// DeadlineExceeded instead of finishing the enumeration.
Result<std::vector<std::vector<Point>>> GenerateCandidateQueries(
    const PartitionPlan& plan, const std::vector<LocationSet>& location_sets,
    Deadline deadline = kNoDeadline);

/// Reconstructs the single candidate query at 1-based index `qi` without
/// materializing the whole list (used by tests and by attack tooling).
Result<std::vector<Point>> CandidateQueryAt(
    const PartitionPlan& plan, const std::vector<LocationSet>& location_sets,
    uint64_t qi);

}  // namespace ppgnn

#endif  // PPGNN_CORE_CANDIDATE_H_
