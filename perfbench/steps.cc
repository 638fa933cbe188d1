#include "steps.h"

#include <optional>

#include "core/candidate.h"
#include "core/dummy.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "core/sanitize.h"
#include "core/selection.h"
#include "core/wire.h"
#include "crypto/poi_codec.h"
#include "spatial/gnn.h"

namespace perfbench {

using namespace ppgnn;

Result<BuiltQuery> BuildQuery(Variant variant, const ProtocolParams& params,
                              const std::vector<Point>& group,
                              const KeyPair& keys, const Encryptor* encryptor,
                              Rng& rng, Trace* trace, uint64_t query_id) {
  if (variant == Variant::kNaive)
    return Status::InvalidArgument("the benchmark drives PPGNN and OPT only");
  BuiltQuery out;

  // Plan: solved partition, segment with probability d_bar[i] / d, one
  // position per subgroup (Eqns 11-12).
  PartitionPlan plan;
  std::vector<int> pos;
  uint64_t qi = 0;
  {
    ScopedSpan span(trace, "core.plan", query_id);
    PPGNN_ASSIGN_OR_RETURN(
        plan, SolvePartition(params.n, params.d, params.EffectiveDelta()));
    int seg = 1;
    const int64_t pick = rng.NextInRange(1, params.d);
    int64_t acc = 0;
    for (int i = 1; i <= plan.beta(); ++i) {
      acc += plan.d_bar[i - 1];
      if (pick <= acc) {
        seg = i;
        break;
      }
    }
    std::vector<int> x(plan.alpha);
    pos.resize(plan.alpha);
    for (int j = 0; j < plan.alpha; ++j) {
      x[j] = static_cast<int>(rng.NextInRange(1, plan.d_bar[seg - 1]));
      pos[j] = plan.SegmentOffset(seg) - 1 + x[j];
    }
    qi = QueryIndex(plan, seg, x);
  }

  QueryMessage query;
  query.k = params.k;
  query.theta0 = params.theta0;
  query.aggregate = params.aggregate;
  query.plan = plan;
  query.pk = keys.pub;
  {
    ScopedSpan span(trace, "core.indicator", query_id);
    std::optional<Encryptor> own;
    const Encryptor* enc = encryptor;
    if (enc == nullptr) {
      ScopedSpan first(trace, "crypto.first_encrypt", query_id);
      enc = &own.emplace(keys.pub);
    }
    const uint64_t ops_before = enc->op_count();
    bool first_at_level[3] = {true, true, true};
    auto encrypt = [&](uint64_t bit, int level) -> Result<Ciphertext> {
      ++out.encrypts;
      if (!first_at_level[level]) return enc->Encrypt(BigInt(bit), rng, level);
      first_at_level[level] = false;
      ScopedSpan first(trace, "crypto.first_encrypt", query_id);
      return enc->Encrypt(BigInt(bit), rng, level);
    };
    if (variant == Variant::kPpgnnOpt) {
      query.is_opt = true;
      OptIndicator& ind = query.opt_indicator;
      const PoiCodec codec(params.key_bits);
      ind.omega = ChooseOmega(plan.delta_prime,
                              codec.IntsNeeded(static_cast<size_t>(params.k)));
      ind.block_size = (plan.delta_prime + ind.omega - 1) / ind.omega;
      const uint64_t block = (qi - 1) / ind.block_size;
      const uint64_t offset = (qi - 1) % ind.block_size;
      for (uint64_t i = 0; i < ind.block_size; ++i) {
        PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, encrypt(i == offset ? 1 : 0, 1));
        ind.v1.push_back(std::move(ct));
      }
      for (uint64_t b = 0; b < ind.omega; ++b) {
        PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, encrypt(b == block ? 1 : 0, 2));
        ind.v2.push_back(std::move(ct));
      }
    } else {
      for (uint64_t i = 1; i <= plan.delta_prime; ++i) {
        PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, encrypt(i == qi ? 1 : 0, 1));
        query.indicator.push_back(std::move(ct));
      }
    }
    out.homomorphic_ops = enc->op_count() - ops_before;
  }

  {
    ScopedSpan span(trace, "core.upload", query_id);
    PPGNN_ASSIGN_OR_RETURN(out.query_bytes, query.Encode());
    const std::vector<int> subgroup = SubgroupOfUser(plan);
    const DummyGenerator& dummies = params.dummy_generator != nullptr
                                        ? *params.dummy_generator
                                        : UniformDummies();
    for (int u = 0; u < params.n; ++u) {
      LocationSetMessage msg;
      msg.user_id = static_cast<uint32_t>(u);
      msg.locations.resize(static_cast<size_t>(params.d));
      for (Point& p : msg.locations) p = dummies.Generate(group[u], rng);
      msg.locations[pos[subgroup[u]] - 1] = group[u];
      out.upload_bytes.push_back(msg.Encode());
    }
  }
  return out;
}

Result<std::vector<uint8_t>> RunLsp(
    const LspDatabase& db, const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes, bool sanitize,
    Trace* trace, uint64_t query_id, LspCounts* counts) {
  ScopedSpan lsp(trace, "lsp", query_id);
  QueryMessage query;
  std::vector<LocationSet> sets(upload_bytes.size());
  {
    ScopedSpan span(trace, "core.decode", query_id);
    PPGNN_ASSIGN_OR_RETURN(query, QueryMessage::Decode(query_bytes));
    for (const std::vector<uint8_t>& bytes : upload_bytes) {
      PPGNN_ASSIGN_OR_RETURN(LocationSetMessage msg,
                             LocationSetMessage::Decode(bytes));
      if (msg.user_id >= sets.size())
        return Status::ProtocolError("upload from unknown user id");
      sets[msg.user_id] = std::move(msg.locations);
    }
  }
  counts->delta_prime = query.plan.delta_prime;

  std::vector<std::vector<Point>> candidates;
  {
    ScopedSpan span(trace, "core.candidate", query_id);
    PPGNN_ASSIGN_OR_RETURN(candidates,
                           GenerateCandidateQueries(query.plan, sets));
  }

  // LspHandleQuery never sanitizes a single-user query.
  const bool effective_sanitize = sanitize && upload_bytes.size() > 1;
  Result<AnswerSanitizer> sanitizer = Status::FailedPrecondition("unused");
  if (effective_sanitize) {
    ScopedSpan span(trace, "core.sanitize", query_id);
    sanitizer = AnswerSanitizer::Create(query.theta0, TestConfig{});
    PPGNN_RETURN_IF_ERROR(sanitizer.status());
  }
  std::optional<PoiCodec> codec;
  size_t m = 0;
  {
    ScopedSpan span(trace, "crypto.pack", query_id);
    m = codec.emplace(query.pk.key_bits)
            .IntsNeeded(static_cast<size_t>(query.k));
  }

  const auto* mbm = dynamic_cast<const MbmGnnSolver*>(&db.solver());
  AnswerMatrix matrix;
  matrix.columns.resize(candidates.size());
  SanitizeStats stats;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::vector<Point>& candidate = candidates[i];
    std::vector<RankedPoi> answer;
    {
      ScopedSpan span(trace, "spatial.kgnn", query_id);
      answer = db.solver().Query(candidate, query.k, query.aggregate);
    }
    if (mbm != nullptr) counts->nodes_visited += mbm->last_nodes_visited();
    {
      // Spanned even when sanitation is off, so the bypass is measured.
      ScopedSpan span(trace, "core.sanitize", query_id);
      if (effective_sanitize) {
        Rng candidate_rng(LspSanitizeSeed(candidate, query.k));
        answer = sanitizer->Sanitize(answer, candidate, query.aggregate,
                                     candidate_rng, &stats,
                                     db.distance_oracle());
      }
    }
    counts->sanitized_pois += answer.size();
    {
      ScopedSpan span(trace, "crypto.pack", query_id);
      std::vector<Point> points;
      points.reserve(answer.size());
      for (const RankedPoi& rp : answer) points.push_back(rp.poi.location);
      PPGNN_ASSIGN_OR_RETURN(matrix.columns[i], codec->Encode(points, m));
    }
  }
  counts->sanitize_samples += stats.samples_drawn;
  counts->sanitize_tests += stats.tests_run;

  AnswerMessage out;
  {
    ScopedSpan span(trace, "crypto.select", query_id);
    const Encryptor enc(query.pk);
    if (query.is_opt) {
      PPGNN_ASSIGN_OR_RETURN(
          out.ciphertexts,
          PrivateSelectTwoPhase(enc, matrix, query.opt_indicator, 1));
    } else {
      PPGNN_ASSIGN_OR_RETURN(out.ciphertexts,
                             PrivateSelect(enc, matrix, query.indicator, 1));
    }
    counts->homomorphic_ops += enc.op_count();
  }
  ScopedSpan span(trace, "core.answer_encode", query_id);
  return out.Encode(query.pk);
}

Result<std::vector<Point>> DecryptAnswer(
    const std::vector<uint8_t>& answer_bytes, const KeyPair& keys,
    const Decryptor* decryptor, bool layered, Trace* trace,
    uint64_t query_id) {
  AnswerMessage received;
  {
    ScopedSpan span(trace, "core.answer_decode", query_id);
    PPGNN_ASSIGN_OR_RETURN(received,
                           AnswerMessage::Decode(answer_bytes, keys.pub));
  }
  std::vector<BigInt> plain;
  {
    ScopedSpan span(trace, "crypto.decrypt", query_id);
    std::optional<Decryptor> own;
    const Decryptor& dec =
        decryptor != nullptr ? *decryptor : own.emplace(keys.pub, keys.sec);
    plain.reserve(received.ciphertexts.size());
    for (const Ciphertext& ct : received.ciphertexts) {
      PPGNN_ASSIGN_OR_RETURN(BigInt value, layered ? dec.DecryptLayered(ct)
                                                   : dec.Decrypt(ct));
      plain.push_back(std::move(value));
    }
  }
  ScopedSpan span(trace, "core.answer_decode", query_id);
  return PoiCodec(keys.pub.key_bits).Decode(plain);
}

uint64_t AnswerBroadcastBytes(const std::vector<Point>& pois, int n) {
  if (n <= 1) return 0;
  AnswerBroadcast broadcast;
  broadcast.pois = pois;
  return broadcast.Encode().size() * static_cast<uint64_t>(n - 1);
}

bool TimedLink::Submit(ServiceRequest request, Callback done) {
  Leg leg;
  leg.key = request.idempotency_key;
  leg.request_bytes = request.query.size();
  for (const std::vector<uint8_t>& upload : request.uploads)
    leg.request_bytes += upload.size();
  leg.start_ns = NowNs();
  LegLog* log = log_;
  return inner_->Submit(
      std::move(request),
      [log, leg, done = std::move(done)](std::vector<uint8_t> frame) mutable {
        leg.end_ns = NowNs();
        leg.response_bytes = frame.size();
        log->Record(leg);
        done(std::move(frame));
      });
}

uint64_t ShardLegKey(uint64_t query_key, uint64_t shard) {
  uint64_t z = query_key + 0x9e3779b97f4a7c15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
