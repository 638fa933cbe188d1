// Protocol parameter bundle (Table 3 of the paper) shared by all PPGNN
// variants.

#ifndef PPGNN_CORE_PARAMS_H_
#define PPGNN_CORE_PARAMS_H_

#include "common/status.h"
#include "core/dummy.h"
#include "geo/aggregate.h"
#include "stats/hypothesis.h"

namespace ppgnn {

/// Parameters of one privacy-preserving kGNN query. Defaults follow the
/// paper's defaults for the group scenario (Table 3) except key_bits,
/// which callers choose (the paper uses 1024; tests use smaller keys).
struct ProtocolParams {
  int n = 8;             ///< group size (>= 1)
  int d = 25;            ///< Privacy I anonymity parameter (> 1)
  int delta = 100;       ///< Privacy II parameter (>= d); ignored when n == 1
  int k = 8;             ///< POIs to retrieve (>= 1)
  double theta0 = 0.05;  ///< Privacy IV parameter, fraction of space in (0,1]
  int key_bits = 1024;   ///< Paillier modulus bits (even, >= 128)
  AggregateKind aggregate = AggregateKind::kSum;
  TestConfig test;       ///< gamma / eta / phi for answer sanitation
  /// When false, skips answer sanitation entirely — the PPGNN-NAS variant
  /// of Section 8.3.2 (Privacy IV only under no-collusion).
  bool sanitize = true;
  /// Dummy-location policy for the users' location sets; null means
  /// uniform over the unit square. Must outlive the query.
  const DummyGenerator* dummy_generator = nullptr;
  /// Worker threads for the LSP's per-candidate processing (kGNN +
  /// sanitation + encoding). The reported LSP cost is total CPU work, so
  /// it is invariant to this knob; wall-clock time is not (see
  /// bench_ablation_parallel_lsp).
  int lsp_threads = 1;

  /// The effective Privacy II parameter: delta for groups, d for n == 1
  /// (Section 3: delta = d in the single-user case).
  int EffectiveDelta() const { return n == 1 ? d : delta; }

  Status Validate() const;
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_PARAMS_H_
