#include "core/protocol.h"

#include <algorithm>
#include <optional>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "core/candidate.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "core/sanitize.h"
#include "core/selection.h"
#include "core/wire.h"
#include "crypto/poi_codec.h"

namespace ppgnn {

const char* VariantToString(Variant variant) {
  switch (variant) {
    case Variant::kPpgnn:
      return "PPGNN";
    case Variant::kPpgnnOpt:
      return "PPGNN-OPT";
    case Variant::kNaive:
      return "Naive";
  }
  return "unknown";
}

LspDatabase::LspDatabase(std::vector<Poi> pois)
    : tree_(RTree::Build(std::move(pois))),
      solver_(std::make_unique<MbmGnnSolver>(&tree_)) {}

/// FNV mix over (k, quantized coords): order-dependent within one
/// candidate's location list but independent of candidate *processing*
/// order, so the sanitized answer is the same whichever worker — or
/// whichever node of the sharded cluster — handles the candidate.
uint64_t LspSanitizeSeed(const std::vector<Point>& locations, int k) {
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(k);
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const Point& p : locations) {
    mix(QuantizeCoord(p.x));
    mix(QuantizeCoord(p.y));
  }
  return h;
}

namespace {

/// Round-trips a point through the 8-byte wire format (the paper
/// transmits 8 bytes per location/POI). The plaintext reference applies
/// the same quantization so results compare bit-exactly with the
/// protocol, whose locations genuinely travel through the wire codecs.
Point QuantizePoint(const Point& p) {
  return {DequantizeCoord(QuantizeCoord(p.x)),
          DequantizeCoord(QuantizeCoord(p.y))};
}

struct Plan {
  PartitionPlan partition;
  int set_size = 0;  // d for PPGNN/OPT, delta for Naive
};

Result<Plan> MakePlan(Variant variant, const ProtocolParams& params) {
  Plan plan;
  if (variant == Variant::kNaive) {
    if (params.n == 1) {
      return Status::InvalidArgument(
          "the Naive variant is defined for group queries (n > 1)");
    }
    plan.partition.alpha = 1;
    plan.partition.n_bar = {params.n};
    plan.partition.d_bar = {params.delta};
    plan.partition.delta_prime = static_cast<uint64_t>(params.delta);
    plan.set_size = params.delta;
  } else {
    PPGNN_ASSIGN_OR_RETURN(
        plan.partition,
        SolvePartition(params.n, params.d, params.EffectiveDelta()));
    plan.set_size = params.d;
  }
  return plan;
}

}  // namespace

Result<LspCandidates> LspDecodeCandidates(
    const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes,
    const TestConfig& test_config, bool sanitize, QueryInstrumentation& info,
    const std::atomic<bool>* cancel) {
  LspCandidates out;
  PPGNN_ASSIGN_OR_RETURN(out.query, QueryMessage::Decode(query_bytes));
  info.delta_prime = out.query.plan.delta_prime;
  // Reassemble the location sets in user order.
  std::vector<LocationSet> sets(upload_bytes.size());
  for (const auto& bytes : upload_bytes) {
    PPGNN_ASSIGN_OR_RETURN(LocationSetMessage msg,
                           LocationSetMessage::Decode(bytes));
    if (msg.user_id >= sets.size())
      return Status::ProtocolError("upload from unknown user id");
    sets[msg.user_id] = std::move(msg.locations);
  }
  PPGNN_RETURN_IF_ERROR(FailpointCheck("lsp.process"));
  if (sanitize && sets.size() > 1) {
    PPGNN_ASSIGN_OR_RETURN(out.sanitizer, AnswerSanitizer::Create(
                                              out.query.theta0, test_config));
  }
  PPGNN_ASSIGN_OR_RETURN(out.candidates,
                         GenerateCandidateQueries(out.query.plan, sets, cancel));
  return out;
}

/// Candidate processing (kGNN + sanitation + encoding) fans out over
/// `lsp_threads` workers; the per-candidate sanitation seed keeps results
/// identical regardless of the thread count.
Result<std::vector<uint8_t>> LspAnswerCandidates(
    const LspCandidates& request, const KgnnSource& kgnn,
    const DistanceOracle* oracle, int lsp_threads, QueryInstrumentation& info,
    const std::atomic<bool>* cancel) {
  const QueryMessage& query = request.query;
  const std::vector<std::vector<Point>>& candidates = request.candidates;

  // Built once per query, up front: the Encryptor derives the per-level
  // Montgomery contexts at construction and the selection workers below
  // share them read-only — no hot-path context derivation.
  Encryptor enc(query.pk);

  const std::optional<AnswerSanitizer>& sanitizer = request.sanitizer;
  PoiCodec codec(query.pk.key_bits);
  const size_t m = codec.IntsNeeded(static_cast<size_t>(query.k));
  AnswerMatrix matrix;
  matrix.columns.resize(candidates.size());

  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(lsp_threads, 1)),
      std::max<size_t>(candidates.size(), 1)));
  std::vector<Status> worker_status(workers, Status::OK());
  std::vector<SanitizeStats> worker_stats(workers);
  std::vector<double> worker_sanitize_seconds(workers, 0.0);

  FanOut(workers, &info.lsp_parallel_seconds, [&](int worker) {
    for (size_t i = static_cast<size_t>(worker); i < candidates.size();
         i += static_cast<size_t>(workers)) {
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        worker_status[worker] =
            Status::DeadlineExceeded("lsp: query abandoned past deadline");
        break;
      }
      if (Status s = FailpointCheck("lsp.candidate"); !s.ok()) {
        worker_status[worker] = std::move(s);
        break;
      }
      const std::vector<Point>& candidate = candidates[i];
      std::vector<RankedPoi> answer = kgnn(i, candidate);
      if (sanitizer.has_value()) {
        double t0 = ThreadCpuSeconds();
        Rng candidate_rng(LspSanitizeSeed(candidate, query.k));
        answer = sanitizer->Sanitize(answer, candidate, query.aggregate,
                                     candidate_rng, &worker_stats[worker],
                                     oracle);
        worker_sanitize_seconds[worker] += ThreadCpuSeconds() - t0;
      }
      std::vector<Point> points;
      points.reserve(answer.size());
      for (const RankedPoi& rp : answer) points.push_back(rp.poi.location);
      Result<std::vector<BigInt>> column = codec.Encode(points, m);
      if (!column.ok()) {
        worker_status[worker] = column.status();
        break;
      }
      matrix.columns[i] = std::move(column).value();
    }
  });
  for (int w = 0; w < workers; ++w) {
    PPGNN_RETURN_IF_ERROR(worker_status[w]);
    info.sanitize_seconds += worker_sanitize_seconds[w];
    info.sanitize_samples += worker_stats[w].samples_drawn;
    info.sanitize_tests += worker_stats[w].tests_run;
  }

  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return Status::DeadlineExceeded("lsp: query abandoned before selection");
  }
  PPGNN_RETURN_IF_ERROR(FailpointCheck("lsp.select"));
  AnswerMessage out;
  if (query.is_opt) {
    PPGNN_ASSIGN_OR_RETURN(
        out.ciphertexts,
        PrivateSelectTwoPhase(enc, matrix, query.opt_indicator, lsp_threads,
                              &info.lsp_parallel_seconds, cancel));
  } else {
    PPGNN_ASSIGN_OR_RETURN(
        out.ciphertexts,
        PrivateSelect(enc, matrix, query.indicator, lsp_threads,
                      &info.lsp_parallel_seconds, cancel));
  }
  return out.Encode(query.pk);
}

Status ProtocolParams::Validate() const {
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (d < 2) return Status::InvalidArgument("d must be > 1 (Privacy I)");
  if (n > 1 && delta < d)
    return Status::InvalidArgument("delta must be >= d (Privacy II)");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (theta0 <= 0.0 || theta0 > 1.0)
    return Status::InvalidArgument("theta0 must lie in (0, 1]");
  // The LSP sizes every Z-test by Eqn 17 and refuses a theta0 it cannot
  // size, so refuse it here, before the users encrypt anything.
  if (n > 1 && sanitize) {
    PPGNN_RETURN_IF_ERROR(RequiredSampleSize(theta0, test).status());
  }
  if (key_bits < 128 || key_bits % 2 != 0)
    return Status::InvalidArgument("key_bits must be even and >= 128");
  if (lsp_threads < 1 || lsp_threads > 256)
    return Status::InvalidArgument("lsp_threads must lie in [1, 256]");
  return Status::OK();
}

Result<std::vector<uint8_t>> LspHandleQuery(
    const LspDatabase& lsp, const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes,
    const TestConfig& test_config, bool sanitize, int lsp_threads,
    QueryInstrumentation* info, const std::atomic<bool>* cancel) {
  QueryInstrumentation local_info;
  if (info == nullptr) info = &local_info;
  PPGNN_ASSIGN_OR_RETURN(LspCandidates request,
                         LspDecodeCandidates(query_bytes, upload_bytes,
                                             test_config, sanitize, *info,
                                             cancel));
  const int k = request.query.k;
  const AggregateKind aggregate = request.query.aggregate;
  return LspAnswerCandidates(
      request,
      [&lsp, k, aggregate](size_t, const std::vector<Point>& candidate) {
        return lsp.solver().Query(candidate, k, aggregate);
      },
      lsp.distance_oracle(), lsp_threads, *info, cancel);
}

Result<std::vector<uint8_t>> LspHandleShardQuery(
    const LspDatabase& lsp, const std::vector<uint8_t>& query_bytes,
    QueryInstrumentation* info, const std::atomic<bool>* cancel) {
  QueryInstrumentation local_info;
  if (info == nullptr) info = &local_info;
  PPGNN_RETURN_IF_ERROR(FailpointCheck("lsp.process"));
  PPGNN_ASSIGN_OR_RETURN(ShardQueryMessage query,
                         ShardQueryMessage::Decode(query_bytes));
  info->delta_prime = query.candidates.size();
  ShardAnswerMessage answer;
  answer.candidates.reserve(query.candidates.size());
  for (const ShardQueryMessage::Candidate& candidate : query.candidates) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return Status::DeadlineExceeded("lsp: shard query abandoned");
    }
    PPGNN_RETURN_IF_ERROR(FailpointCheck("lsp.candidate"));
    std::vector<RankedPoi> ranked =
        lsp.solver().Query(candidate.locations, query.k, query.aggregate);
    ShardAnswerMessage::CandidateResult result;
    result.index = candidate.index;
    result.results.reserve(ranked.size());
    for (const RankedPoi& rp : ranked) {
      ShardAnswerMessage::Ranked out;
      out.poi_id = rp.poi.id;
      out.location = rp.poi.location;
      out.cost = rp.cost;
      result.results.push_back(out);
    }
    answer.candidates.push_back(std::move(result));
  }
  return answer.Encode();
}

std::vector<RankedPoi> ReferenceAnswer(const ProtocolParams& params,
                                       const std::vector<Point>& real_locations,
                                       const LspDatabase& lsp, Rng&) {
  std::vector<Point> quantized;
  quantized.reserve(real_locations.size());
  for (const Point& p : real_locations) quantized.push_back(QuantizePoint(p));
  std::vector<RankedPoi> answer =
      lsp.solver().Query(quantized, params.k, params.aggregate);
  if (params.sanitize && params.n > 1) {
    auto sanitizer = AnswerSanitizer::Create(params.theta0, params.test);
    if (!sanitizer.ok()) return {};
    Rng rng(LspSanitizeSeed(quantized, params.k));
    answer = sanitizer->Sanitize(answer, quantized, params.aggregate, rng,
                                 nullptr, lsp.distance_oracle());
  }
  return answer;
}

Result<CoordinatorQuery> CoordinatorBuildQuery(
    Variant variant, const ProtocolParams& params,
    const std::vector<Point>& real_locations, const Encryptor& enc, Rng& rng,
    const RequestWireOptions& wire) {
  PPGNN_RETURN_IF_ERROR(params.Validate());
  if (real_locations.size() != static_cast<size_t>(params.n))
    return Status::InvalidArgument("real_locations.size() != n");
  PPGNN_ASSIGN_OR_RETURN(Plan plan, MakePlan(variant, params));
  const PartitionPlan& pp = plan.partition;

  // Segment chosen with probability d_bar[i] / d (Eqn 11), then one
  // position per subgroup inside it.
  int seg = 1;
  const int64_t pick = rng.NextInRange(1, plan.set_size);
  int64_t acc = 0;
  for (int i = 1; i <= pp.beta(); ++i) {
    acc += pp.d_bar[i - 1];
    if (pick <= acc) {
      seg = i;
      break;
    }
  }
  std::vector<int> x(pp.alpha);    // 1-based position within the segment
  std::vector<int> pos(pp.alpha);  // 1-based absolute position
  for (int j = 0; j < pp.alpha; ++j) {
    x[j] = static_cast<int>(rng.NextInRange(1, pp.d_bar[seg - 1]));
    pos[j] = pp.SegmentOffset(seg) - 1 + x[j];
  }
  const uint64_t qi = QueryIndex(pp, seg, x);

  // The encrypted indicator. The answer width comes from enc's key: the
  // LSP packs the answer under the key the query carries.
  CoordinatorQuery out;
  const PublicKey& pk = enc.public_key();
  out.info.answer_width_m =
      PoiCodec(pk.key_bits).IntsNeeded(static_cast<size_t>(params.k));
  QueryMessage query;
  query.k = params.k;
  query.theta0 = params.theta0;
  query.aggregate = params.aggregate;
  query.plan = pp;
  query.pk = pk;
  query.deadline_ms = wire.deadline_ms;
  query.idempotency_key = wire.idempotency_key;
  if (variant == Variant::kPpgnnOpt) {
    query.is_opt = true;
    out.info.omega = ChooseOmega(pp.delta_prime, out.info.answer_width_m);
    PPGNN_ASSIGN_OR_RETURN(
        query.opt_indicator,
        EncryptOptIndicator(enc, qi, pp.delta_prime, out.info.omega, rng));
  } else {
    PPGNN_ASSIGN_OR_RETURN(query.indicator,
                           EncryptIndicator(enc, qi, pp.delta_prime, rng));
  }
  PPGNN_ASSIGN_OR_RETURN(out.query, query.Encode());

  // pos_j to every non-coordinator user, then every user's location set.
  const std::vector<int> subgroup = SubgroupOfUser(pp);
  for (int u = 1; u < params.n; ++u) {
    ByteWriter w;
    w.PutVarint(static_cast<uint64_t>(pos[subgroup[u]]));
    out.positions.push_back(w.Release());
  }
  const DummyGenerator& dummies = params.dummy_generator != nullptr
                                      ? *params.dummy_generator
                                      : UniformDummies();
  out.uploads.reserve(static_cast<size_t>(params.n));
  for (int u = 0; u < params.n; ++u) {
    LocationSetMessage msg;
    msg.user_id = static_cast<uint32_t>(u);
    msg.locations.resize(static_cast<size_t>(plan.set_size));
    if (FailpointDrop("user.upload")) {
      // Dropout degradation: the user never delivered its set, so the
      // coordinator substitutes a synthetic one around a random anchor
      // (it does not know the dropped user's location). Same d points,
      // same wire bytes per slot — the LSP's view is shape-identical.
      const Point anchor{rng.NextDouble(), rng.NextDouble()};
      for (Point& p : msg.locations) {
        p = dummies.Generate(anchor, rng);
      }
      out.info.degraded_users++;
    } else {
      for (Point& p : msg.locations) {
        p = dummies.Generate(real_locations[u], rng);
      }
      msg.locations[pos[subgroup[u]] - 1] = real_locations[u];
    }
    out.uploads.push_back(msg.Encode());
  }
  return out;
}

Result<std::vector<Point>> CoordinatorDecryptAnswer(
    const std::vector<uint8_t>& answer_bytes, const PublicKey& pk,
    const Decryptor& dec, bool layered) {
  PPGNN_ASSIGN_OR_RETURN(AnswerMessage answer,
                         AnswerMessage::Decode(answer_bytes, pk));
  std::vector<BigInt> plain;
  plain.reserve(answer.ciphertexts.size());
  for (const Ciphertext& ct : answer.ciphertexts) {
    PPGNN_ASSIGN_OR_RETURN(BigInt value, layered ? dec.DecryptLayered(ct)
                                                 : dec.Decrypt(ct));
    plain.push_back(std::move(value));
  }
  return PoiCodec(pk.key_bits).Decode(plain);
}

Result<QueryOutcome> RunQuery(Variant variant, const ProtocolParams& params,
                              const std::vector<Point>& real_locations,
                              const LspDatabase& lsp, Rng& rng,
                              const KeyPair* fixed_keys) {
  PPGNN_RETURN_IF_ERROR(params.Validate());
  CostTracker tracker;

  // ===== Coordinator: keys =====
  // The users generate the key pair and keep p and q, so they encrypt as
  // key holders (reduced-exponent CRT blinding) and decrypt with CRT.
  // Both contexts' set-up is user work, timed with the keys.
  KeyPair keys;
  std::optional<Encryptor> enc;
  std::optional<Decryptor> dec;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    if (fixed_keys != nullptr) {
      keys = *fixed_keys;
    } else {
      PPGNN_ASSIGN_OR_RETURN(keys, GenerateKeyPair(params.key_bits, rng));
    }
    enc.emplace(keys);
    dec.emplace(keys.pub, keys.sec);
  }

  // ===== Coordinator (Algorithm 1): query, pos_j, location sets =====
  CoordinatorQuery request;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    PPGNN_ASSIGN_OR_RETURN(
        request,
        CoordinatorBuildQuery(variant, params, real_locations, *enc, rng));
  }
  for (const std::vector<uint8_t>& message : request.positions) {
    tracker.RecordSend(Link::kUserToUser, message.size());
  }
  tracker.RecordSend(Link::kUserToLsp, request.query.size());
  for (const std::vector<uint8_t>& upload : request.uploads) {
    tracker.RecordSend(Link::kUserToLsp, upload.size());
  }

  // ===== LSP (Algorithm 2), through the wire-level entry point =====
  QueryInstrumentation info = request.info;
  std::vector<uint8_t> answer_bytes;
  {
    ScopedTimer timer(&tracker, Party::kLsp);
    PPGNN_ASSIGN_OR_RETURN(
        answer_bytes,
        LspHandleQuery(lsp, request.query, request.uploads, params.test,
                       params.sanitize, params.lsp_threads, &info));
  }
  // Work done by spawned LSP workers isn't visible to the main thread's
  // CPU timer; charge it explicitly so LSP cost = total compute.
  tracker.RecordCompute(Party::kLsp, info.lsp_parallel_seconds);
  tracker.RecordSend(Link::kLspToUser, answer_bytes.size());

  // ===== Coordinator: decrypt, then broadcast to the other users =====
  AnswerBroadcast broadcast;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    PPGNN_ASSIGN_OR_RETURN(
        broadcast.pois,
        CoordinatorDecryptAnswer(answer_bytes, keys.pub, *dec,
                                 variant == Variant::kPpgnnOpt));
  }
  info.pois_returned = broadcast.pois.size();
  if (params.n > 1) {
    std::vector<uint8_t> broadcast_bytes = broadcast.Encode();
    for (int u = 1; u < params.n; ++u) {
      tracker.RecordSend(Link::kUserToUser, broadcast_bytes.size());
    }
  }

  QueryOutcome outcome;
  outcome.pois = std::move(broadcast.pois);
  outcome.costs = tracker.report();
  outcome.info = info;
  return outcome;
}

}  // namespace ppgnn
