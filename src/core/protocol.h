// End-to-end PPGNN protocol simulation (Algorithms 1-2 plus answer
// decryption), covering the paper's three our-side variants:
//
//   * kPpgnn    — Section 4.2: d-sized location sets, partition-based
//                 candidate generation, single-phase private selection.
//   * kPpgnnOpt — Section 6: same, but the indicator vector is factorized
//                 into [v1] (eps_1) and [[v2]] (eps_2) and the LSP runs a
//                 two-phase selection.
//   * kNaive    — Section 4 opening: delta-sized location sets with all
//                 real locations at one shared position; no partitioning.
//
// PPGNN-NAS (Section 8.3.2) is any variant with params.sanitize = false.
// The n = 1 single-user protocol of Section 3 is the same machinery with
// n = 1 (delta := d, no Privacy IV, no intra-group messages).
//
// Each side of the protocol is implemented once, as wire-level steps:
// the users' side of Algorithm 1 is CoordinatorBuildQuery and
// CoordinatorDecryptAnswer, the LSP's Algorithm 2 is LspDecodeCandidates
// and LspAnswerCandidates. RunQuery and the service load generators
// (service/workload.h) call the same coordinator steps; LspHandleQuery and
// the sharded front call the same LSP steps.
//
// RunQuery runs the three parties (users, coordinator, LSP) in-process;
// every message is genuinely serialized so communication costs are
// wire-exact, and computation is charged to the owning party via
// thread-CPU timers.

#ifndef PPGNN_CORE_PROTOCOL_H_
#define PPGNN_CORE_PROTOCOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/params.h"
#include "core/sanitize.h"
#include "core/wire.h"
#include "crypto/paillier.h"
#include "geo/distance_oracle.h"
#include "net/cost.h"
#include "spatial/gnn.h"
#include "spatial/rtree.h"

namespace ppgnn {

enum class Variant {
  kPpgnn,
  kPpgnnOpt,
  kNaive,
};

const char* VariantToString(Variant variant);

/// The LSP's state: the POI database with its spatial index and plaintext
/// kGNN engine. Build once, share across queries (thread-compatible).
///
/// The kGNN engine is the protocol's pluggable "black box": the default
/// is Euclidean MBM, but any GnnSolver (e.g. the road-network engine, or
/// a meeting-location-determination algorithm) can be swapped in with
/// SetSolver. When a non-Euclidean solver is installed, also install the
/// matching DistanceOracle so the answer sanitation attacks under the
/// same metric the answers were ranked by.
class LspDatabase {
 public:
  explicit LspDatabase(std::vector<Poi> pois);

  const RTree& tree() const { return tree_; }
  const std::vector<Poi>& pois() const { return tree_.pois(); }
  const GnnSolver& solver() const { return *solver_; }

  /// Replaces the plaintext kGNN engine. The solver may reference
  /// this->pois() (the vector is stable for the database's lifetime).
  void SetSolver(std::unique_ptr<GnnSolver> solver) {
    solver_ = std::move(solver);
  }

  /// Metric used by answer sanitation; null means Euclidean. The oracle
  /// must outlive the database.
  void SetDistanceOracle(const DistanceOracle* oracle) { oracle_ = oracle; }
  const DistanceOracle* distance_oracle() const { return oracle_; }

  /// Dynamic updates — the operational advantage the paper claims over
  /// pre-computation schemes like APNN: the next query simply sees the
  /// new database, with nothing to rebuild. (A custom solver installed
  /// via SetSolver that snapshots the POIs, e.g. RoadGnnSolver, must be
  /// re-created after updates; the default MBM engine reads the tree
  /// directly and needs nothing.)
  void InsertPoi(const Poi& poi) { tree_.Insert(poi); }
  bool DeletePoi(uint32_t poi_id) { return tree_.Delete(poi_id); }

 private:
  RTree tree_;
  std::unique_ptr<GnnSolver> solver_;
  const DistanceOracle* oracle_ = nullptr;
};

/// Per-query instrumentation beyond the three headline costs.
struct QueryInstrumentation {
  uint64_t delta_prime = 0;      ///< candidate queries generated by LSP
  uint64_t omega = 0;            ///< OPT block count (0 otherwise)
  size_t answer_width_m = 0;     ///< packed integers per answer
  size_t pois_returned = 0;      ///< answer length after sanitation
  uint64_t sanitize_samples = 0; ///< Monte-Carlo samples drawn by LSP
  uint64_t sanitize_tests = 0;   ///< Z-tests run by LSP
  double sanitize_seconds = 0.0; ///< portion of LSP time spent sanitizing
  /// CPU seconds burnt by spawned LSP worker threads (lsp_threads > 1);
  /// already included in costs.lsp_seconds.
  double lsp_parallel_seconds = 0.0;
  /// Users that dropped out of the round and were replaced with a
  /// synthetic size-d dummy set by the coordinator (wire shape unchanged).
  uint64_t degraded_users = 0;
};

struct QueryOutcome {
  /// The sanitized ranked answer as decoded by the users (coordinates in
  /// the unit square, quantized to 32-bit fixed point by the wire format).
  std::vector<Point> pois;
  CostReport costs;
  QueryInstrumentation info;
};

/// Runs one privacy-preserving query for the given real user locations:
/// the timed keys with the users' key-holder Encryptor and Decryptor,
/// then the timed CoordinatorBuildQuery, LspHandleQuery and the timed
/// CoordinatorDecryptAnswer. `fixed_keys`, when non-null, skips per-query
/// key generation (useful in tests; the paper's cost model generates keys
/// per query, which is what happens when it is null).
[[nodiscard]] Result<QueryOutcome> RunQuery(Variant variant, const ProtocolParams& params,
                              const std::vector<Point>& real_locations,
                              const LspDatabase& lsp, Rng& rng,
                              const KeyPair* fixed_keys = nullptr);

/// Optional wire-version-2 fields stamped into the encoded QueryMessage
/// (zero = absent, producing byte-identical version-1 frames). Setting
/// them here — rather than on a ServiceRequest — exercises the real
/// end-to-end path: encoded into the query trailer, peeked by admission,
/// honored by the server.
struct RequestWireOptions {
  uint64_t deadline_ms = 0;
  uint64_t idempotency_key = 0;
};

/// What the coordinator sends for one query (Algorithm 1).
struct CoordinatorQuery {
  std::vector<uint8_t> query;                 ///< QueryMessage bytes
  std::vector<std::vector<uint8_t>> uploads;  ///< location sets, user order
  /// The pos_j message to each of users 1..n-1 (user 0 coordinates).
  std::vector<std::vector<uint8_t>> positions;
  /// The coordinator's share: omega, answer_width_m and degraded_users.
  QueryInstrumentation info;
};

/// The users' side of Algorithm 1 up to the LSP: the partition plan (the
/// flat delta-sized segment for Naive), the Eqn 11 segment draw, one
/// position per subgroup, the encrypted indicator under enc's key (the
/// [v1]/[[v2]] factorization for OPT, with omega sized from that key),
/// the pos_j messages and every user's location set with its dummies.
/// Draws from `rng` in that order: segment, positions, indicator, uploads.
/// A `user.upload` failpoint drop replaces that user's set with dummies
/// around a random anchor (info.degraded_users).
[[nodiscard]] Result<CoordinatorQuery> CoordinatorBuildQuery(
    Variant variant, const ProtocolParams& params,
    const std::vector<Point>& real_locations, const Encryptor& enc, Rng& rng,
    const RequestWireOptions& wire = {});

/// The users' side of the answer: decodes the AnswerMessage under `pk`,
/// decrypts every ciphertext (`layered` = PPGNN-OPT's DecryptLayered) and
/// unpacks the POIs with pk's PoiCodec.
[[nodiscard]] Result<std::vector<Point>> CoordinatorDecryptAnswer(
    const std::vector<uint8_t>& answer_bytes, const PublicKey& pk,
    const Decryptor& dec, bool layered);

/// Wire-level LSP entry point — what a network-facing LSP daemon would
/// call per request. Decodes the query message and the users' location
/// set uploads, runs Algorithm 2 (candidate generation, kGNN, answer
/// sanitation, private selection), and returns the encoded encrypted
/// answer. `sanitize` is forced off for single-user queries internally.
/// It is LspDecodeCandidates, then LspAnswerCandidates over lsp.solver().
///
/// `cancel`, when non-null, is a cooperative abort flag polled between
/// candidates (and around the selection phase): once it reads true the
/// query is abandoned with StatusCode::kDeadlineExceeded. The LspService
/// deadline monitor flips it when a request overruns its budget.
[[nodiscard]] Result<std::vector<uint8_t>> LspHandleQuery(
    const LspDatabase& lsp, const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes,
    const TestConfig& test_config = TestConfig{}, bool sanitize = true,
    int lsp_threads = 1, QueryInstrumentation* info = nullptr,
    const std::atomic<bool>* cancel = nullptr);

/// Algorithm 2 up to the kGNN: the decoded query, its delta' candidate
/// queries (GenerateCandidateQueries order, one location per user) and
/// the answer sanitizer sized for the query's theta0.
struct LspCandidates {
  QueryMessage query;
  std::vector<std::vector<Point>> candidates;
  /// Set when the answers are sanitized: sanitation is on and the query
  /// has more than one location set.
  std::optional<AnswerSanitizer> sanitizer;
};

/// The LSP's decode step: decodes the query and the uploads, fires the
/// `lsp.process` failpoint, sizes the sanitizer (Eqn 17, under
/// `test_config`) when the group's answers are sanitized, and generates
/// the candidate queries. A theta0 Eqn 17 cannot size fails here with
/// InvalidArgument, before any kGNN or shard leg runs. Sets
/// info.delta_prime.
[[nodiscard]] Result<LspCandidates> LspDecodeCandidates(
    const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes,
    const TestConfig& test_config, bool sanitize, QueryInstrumentation& info,
    const std::atomic<bool>* cancel = nullptr);

/// The kGNN black box of Algorithm 2: the ranked top-k answer of
/// candidate `index` (`candidate` is request.candidates[index]). Called
/// once per candidate, from up to lsp_threads workers at once.
using KgnnSource = std::function<std::vector<RankedPoi>(
    size_t index, const std::vector<Point>& candidate)>;

/// The LSP's answer step, shared by the single node and the sharded front
/// so their answers are byte-identical by construction. `lsp_threads`
/// workers take each candidate's answer from `kgnn`, sanitize it with
/// request.sanitizer when set, under `oracle` (the metric it was ranked
/// by; null = Euclidean), and pack it; then the private selection runs
/// and the AnswerMessage is encoded. Adds the sanitation counters and
/// lsp_parallel_seconds to `info`.
[[nodiscard]] Result<std::vector<uint8_t>> LspAnswerCandidates(
    const LspCandidates& request, const KgnnSource& kgnn,
    const DistanceOracle* oracle, int lsp_threads, QueryInstrumentation& info,
    const std::atomic<bool>* cancel = nullptr);

/// Shard-side entry point for the scatter-gather cluster: decodes a
/// ShardQueryMessage (plaintext candidate queries over this shard's POI
/// slice), runs the kGNN per candidate, and returns the encoded
/// ShardAnswerMessage. No crypto, no sanitation — both stay at the
/// coordinator, which merges per-shard top-k lists and hands them to
/// LspAnswerCandidates as its kGNN source, so the encrypted answer shape
/// matches the single-node path exactly. `cancel` semantics match
/// LspHandleQuery.
[[nodiscard]] Result<std::vector<uint8_t>> LspHandleShardQuery(
    const LspDatabase& lsp, const std::vector<uint8_t>& query_bytes,
    QueryInstrumentation* info = nullptr,
    const std::atomic<bool>* cancel = nullptr);

/// Deterministic per-candidate seed for the sanitation Monte-Carlo:
/// order-independent in candidate processing and reproducible by the
/// plaintext reference.
uint64_t LspSanitizeSeed(const std::vector<Point>& locations, int k);

/// The plaintext reference: what the sanitized kGNN answer for the real
/// locations should be. RunQuery must reproduce exactly this (up to the
/// 32-bit coordinate quantization of the wire format). The sanitation
/// Monte-Carlo draws from its own per-query seed (LspSanitizeSeed), not
/// from `rng`. When the answer is sanitized but params.theta0 admits no
/// Eqn 17 sample size under params.test, the answer is empty: the LSP
/// refuses such a query, and Validate rejects it.
std::vector<RankedPoi> ReferenceAnswer(const ProtocolParams& params,
                                       const std::vector<Point>& real_locations,
                                       const LspDatabase& lsp, Rng& rng);

}  // namespace ppgnn

#endif  // PPGNN_CORE_PROTOCOL_H_
