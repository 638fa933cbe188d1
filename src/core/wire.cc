#include "core/wire.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "common/failpoint.h"
#include "crypto/poi_codec.h"

namespace ppgnn {
namespace {

constexpr uint8_t kIndicatorPlain = 0;
constexpr uint8_t kIndicatorOpt = 1;

/// Leading byte of shard-link messages. A QueryMessage's first varint is
/// k >= 1 and an AnswerMessage's first varint is its count >= 1, so 0x00
/// is unreachable as the first byte of either — one endpoint can carry
/// both the encrypted protocol and the plaintext shard fan-out.
constexpr uint8_t kShardMagic = 0x00;

constexpr uint8_t kFrameAnswer = 0;
constexpr uint8_t kFrameError = 1;
// Frame header: 1 tag byte + 4 CRC bytes.
constexpr size_t kFrameHeaderBytes = 5;

/// CRC32 (IEEE 802.3 polynomial) of the frame payload. Integrity only —
/// an *adversarial* LSP can forge it trivially; it exists so random
/// transit corruption is a clean decode error instead of garbage POIs.
uint32_t Crc32(const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WrapFrame(uint8_t tag, const uint8_t* payload,
                               size_t len) {
  std::vector<uint8_t> out;
  out.reserve(len + kFrameHeaderBytes);
  out.push_back(tag);
  const uint32_t crc = Crc32(payload, len);
  out.push_back(static_cast<uint8_t>(crc));
  out.push_back(static_cast<uint8_t>(crc >> 8));
  out.push_back(static_cast<uint8_t>(crc >> 16));
  out.push_back(static_cast<uint8_t>(crc >> 24));
  out.insert(out.end(), payload, payload + len);
  return out;
}

Status AppendCiphertext(ByteWriter& w, const Ciphertext& ct,
                        const PublicKey& pk) {
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         ct.value.ToBytesPadded(ct.ByteSize(pk)));
  w.PutBytes(bytes);
  return Status::OK();
}

Result<Ciphertext> ReadCiphertext(ByteReader& r, const PublicKey& pk,
                                  int level) {
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, r.GetBytes());
  if (bytes.size() != pk.CiphertextBytes(level))
    return Status::InvalidArgument("ciphertext width mismatch on wire");
  Ciphertext ct;
  ct.value = BigInt::FromBytes(bytes);
  ct.level = level;
  return ct;
}

void WritePoint(ByteWriter& w, const Point& p) {
  w.PutU32(QuantizeCoord(p.x));
  w.PutU32(QuantizeCoord(p.y));
}

Result<Point> ReadPoint(ByteReader& r) {
  PPGNN_ASSIGN_OR_RETURN(uint32_t x, r.GetU32());
  PPGNN_ASSIGN_OR_RETURN(uint32_t y, r.GetU32());
  return Point{DequantizeCoord(x), DequantizeCoord(y)};
}

/// delta' = sum_i d_bar[i]^alpha, with every multiply and add checked
/// against kMaxWireDeltaPrime. Wrapping arithmetic here was exploitable:
/// alpha can be large and d_bar is attacker-controlled, so an unchecked
/// product can wrap delta' small enough to match a short indicator while
/// the true candidate enumeration is astronomically large.
Result<uint64_t> CheckedPlanDeltaPrime(const PartitionPlan& plan) {
  uint64_t total = 0;
  for (int db : plan.d_bar) {
    const uint64_t base = static_cast<uint64_t>(db);
    uint64_t term = 1;
    for (int i = 0; i < plan.alpha; ++i) {
      if (base != 0 && term > kMaxWireDeltaPrime / base)
        return Status::InvalidArgument("wire: delta' exceeds hard ceiling");
      term *= base;
    }
    if (total > kMaxWireDeltaPrime - term)
      return Status::InvalidArgument("wire: delta' exceeds hard ceiling");
    total += term;
  }
  return total;
}

/// Marks the start of the optional deadline/idempotency trailer. A
/// version-1 frame ends right after the indicator; the tag keeps a
/// truncated-or-corrupted trailer from silently parsing as absent.
constexpr uint8_t kQueryTrailerTag = 0x51;

/// Reads the optional trailer at the current position. AtEnd means a
/// version-1 frame: both fields stay zero.
Status ReadQueryTrailer(ByteReader& r, uint64_t* deadline_ms,
                        uint64_t* idempotency_key) {
  if (r.AtEnd()) return Status::OK();
  PPGNN_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  if (tag != kQueryTrailerTag)
    return Status::InvalidArgument("wire: unknown query trailer tag");
  PPGNN_ASSIGN_OR_RETURN(*deadline_ms, r.GetVarint());
  if (*deadline_ms > kMaxWireMillis)
    return Status::InvalidArgument("wire: deadline_ms out of range");
  PPGNN_ASSIGN_OR_RETURN(*idempotency_key, r.GetU64());
  if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> QueryMessage::Encode() const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.query.encode"));
  ByteWriter w;
  w.PutVarint(static_cast<uint64_t>(k));
  w.PutDouble(theta0);
  w.PutU8(static_cast<uint8_t>(aggregate));
  w.PutVarint(static_cast<uint64_t>(plan.alpha));
  for (int nb : plan.n_bar) w.PutVarint(static_cast<uint64_t>(nb));
  w.PutVarint(static_cast<uint64_t>(plan.beta()));
  for (int db : plan.d_bar) w.PutVarint(static_cast<uint64_t>(db));
  // key_bits travels explicitly: reconstructing it from the modulus byte
  // count over-reports by up to 7 bits whenever key_bits is not a multiple
  // of 8, which desynchronizes CostModel bucketing across shard hops.
  if (static_cast<uint64_t>(pk.key_bits) < kMinWireKeyBits ||
      static_cast<uint64_t>(pk.key_bits) > kMaxWireKeyBits) {
    return Status::InvalidArgument("wire: key_bits out of range");
  }
  w.PutVarint(static_cast<uint64_t>(pk.key_bits));
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> pk_bytes,
                         pk.n.ToBytesPadded(pk.ByteSize()));
  w.PutBytes(pk_bytes);
  if (is_opt) {
    w.PutU8(kIndicatorOpt);
    w.PutVarint(opt_indicator.omega);
    w.PutVarint(opt_indicator.block_size);
    for (const Ciphertext& ct : opt_indicator.v1) {
      PPGNN_RETURN_IF_ERROR(AppendCiphertext(w, ct, pk));
    }
    for (const Ciphertext& ct : opt_indicator.v2) {
      PPGNN_RETURN_IF_ERROR(AppendCiphertext(w, ct, pk));
    }
  } else {
    w.PutU8(kIndicatorPlain);
    w.PutVarint(indicator.size());
    for (const Ciphertext& ct : indicator) {
      PPGNN_RETURN_IF_ERROR(AppendCiphertext(w, ct, pk));
    }
  }
  if (deadline_ms != 0 || idempotency_key != 0) {
    if (deadline_ms > kMaxWireMillis)
      return Status::InvalidArgument("wire: deadline_ms out of range");
    w.PutU8(kQueryTrailerTag);
    w.PutVarint(deadline_ms);
    w.PutU64(idempotency_key);
  }
  return w.Release();
}

namespace {

/// Reads `count` level-`level` ciphertexts into `out`; with `out` null it
/// length-checks them without copying a body.
Status ReadCiphertexts(ByteReader& r, const PublicKey& pk, int level,
                       uint64_t count, std::vector<Ciphertext>* out) {
  for (uint64_t i = 0; i < count; ++i) {
    if (out != nullptr) {
      PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, ReadCiphertext(r, pk, level));
      out->push_back(std::move(ct));
      continue;
    }
    PPGNN_ASSIGN_OR_RETURN(uint64_t len, r.SkipBytes());
    if (len != pk.CiphertextBytes(level))
      return Status::InvalidArgument("ciphertext width mismatch on wire");
  }
  return Status::OK();
}

/// The one QueryMessage parser, behind both Decode and PeekQueryHeader.
/// With `bodies` false the indicator ciphertexts are length-checked but
/// left out of the result, so a peek stays O(indicator count), never
/// O(ciphertext bytes), and fails exactly when a full decode would.
Result<QueryMessage> ReadQuery(const std::vector<uint8_t>& bytes,
                               bool bodies) {
  ByteReader r(bytes);
  QueryMessage msg;
  PPGNN_ASSIGN_OR_RETURN(uint64_t k64, r.GetVarint());
  if (k64 < 1 || k64 > kMaxWireK)
    return Status::InvalidArgument("wire: k out of range");
  msg.k = static_cast<int>(k64);
  PPGNN_ASSIGN_OR_RETURN(msg.theta0, r.GetDouble());
  // ProtocolParams::Validate's range, negated so a NaN fails it too.
  if (!(msg.theta0 > 0.0 && msg.theta0 <= 1.0))
    return Status::InvalidArgument("wire: theta0 out of range");
  PPGNN_ASSIGN_OR_RETURN(uint8_t agg, r.GetU8());
  if (agg > static_cast<uint8_t>(AggregateKind::kMin))
    return Status::InvalidArgument("wire: bad aggregate kind");
  msg.aggregate = static_cast<AggregateKind>(agg);

  PPGNN_ASSIGN_OR_RETURN(uint64_t alpha, r.GetVarint());
  if (alpha < 1 || alpha > 4096)
    return Status::InvalidArgument("wire: bad alpha");
  msg.plan.alpha = static_cast<int>(alpha);
  for (uint64_t j = 0; j < alpha; ++j) {
    PPGNN_ASSIGN_OR_RETURN(uint64_t nb, r.GetVarint());
    if (nb < 1 || nb > kMaxWireSubgroupSize)
      return Status::InvalidArgument("wire: subgroup size out of range");
    msg.plan.n_bar.push_back(static_cast<int>(nb));
  }
  PPGNN_ASSIGN_OR_RETURN(uint64_t beta, r.GetVarint());
  if (beta < 1 || beta > 1 << 20)
    return Status::InvalidArgument("wire: bad beta");
  for (uint64_t i = 0; i < beta; ++i) {
    PPGNN_ASSIGN_OR_RETURN(uint64_t db, r.GetVarint());
    if (db < 1 || db > kMaxWireSegmentSize)
      return Status::InvalidArgument("wire: segment size out of range");
    msg.plan.d_bar.push_back(static_cast<int>(db));
  }
  PPGNN_ASSIGN_OR_RETURN(msg.plan.delta_prime,
                         CheckedPlanDeltaPrime(msg.plan));

  PPGNN_ASSIGN_OR_RETURN(uint64_t key_bits, r.GetVarint());
  if (key_bits < kMinWireKeyBits || key_bits > kMaxWireKeyBits)
    return Status::InvalidArgument("wire: key_bits out of range");
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> pk_bytes, r.GetBytes());
  if (pk_bytes.size() != (key_bits + 7) / 8)
    return Status::InvalidArgument("wire: bad public key width");
  msg.pk.n = BigInt::FromBytes(pk_bytes);
  msg.pk.key_bits = static_cast<int>(key_bits);
  if (msg.pk.n.BitLength() != msg.pk.key_bits)
    return Status::InvalidArgument("wire: public key not full-width");
  // Paillier's Montgomery arithmetic needs an odd N (crypto/paillier.h).
  if (!msg.pk.n.IsOdd())
    return Status::InvalidArgument("wire: public key N is even");

  PPGNN_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind == kIndicatorOpt) {
    msg.is_opt = true;
    PPGNN_ASSIGN_OR_RETURN(msg.opt_indicator.omega, r.GetVarint());
    PPGNN_ASSIGN_OR_RETURN(msg.opt_indicator.block_size, r.GetVarint());
    // Bounding both factors to the delta' ceiling keeps the product well
    // inside 64 bits, so the shape comparison below cannot wrap.
    if (msg.opt_indicator.omega < 1 ||
        msg.opt_indicator.omega > kMaxWireDeltaPrime ||
        msg.opt_indicator.block_size < 1 ||
        msg.opt_indicator.block_size > kMaxWireDeltaPrime ||
        msg.opt_indicator.omega * msg.opt_indicator.block_size <
            msg.plan.delta_prime) {
      return Status::InvalidArgument("wire: OPT indicator shape invalid");
    }
    PPGNN_RETURN_IF_ERROR(
        ReadCiphertexts(r, msg.pk, 1, msg.opt_indicator.block_size,
                        bodies ? &msg.opt_indicator.v1 : nullptr));
    PPGNN_RETURN_IF_ERROR(
        ReadCiphertexts(r, msg.pk, 2, msg.opt_indicator.omega,
                        bodies ? &msg.opt_indicator.v2 : nullptr));
  } else if (kind == kIndicatorPlain) {
    PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    if (count != msg.plan.delta_prime)
      return Status::InvalidArgument("wire: indicator length != delta'");
    PPGNN_RETURN_IF_ERROR(ReadCiphertexts(r, msg.pk, 1, count,
                                          bodies ? &msg.indicator : nullptr));
  } else {
    return Status::InvalidArgument("wire: unknown indicator kind");
  }
  PPGNN_RETURN_IF_ERROR(
      ReadQueryTrailer(r, &msg.deadline_ms, &msg.idempotency_key));
  return msg;
}

}  // namespace

Result<QueryMessage> QueryMessage::Decode(const std::vector<uint8_t>& bytes) {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.query.decode"));
  return ReadQuery(bytes, /*bodies=*/true);
}

bool IsShardQuery(const std::vector<uint8_t>& bytes) {
  return !bytes.empty() && bytes[0] == kShardMagic;
}

Result<std::vector<uint8_t>> ShardQueryMessage::Encode() const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.shard.encode"));
  if (k < 1 || static_cast<uint64_t>(k) > kMaxWireK)
    return Status::InvalidArgument("wire: k out of range");
  if (candidates.empty() || candidates.size() > kMaxWireDeltaPrime)
    return Status::InvalidArgument("wire: candidate count out of range");
  ByteWriter w;
  w.PutU8(kShardMagic);
  w.PutVarint(static_cast<uint64_t>(k));
  w.PutU8(static_cast<uint8_t>(aggregate));
  w.PutVarint(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (c.index > kMaxWireDeltaPrime)
      return Status::InvalidArgument("wire: candidate index out of range");
    if (i > 0 && c.index <= candidates[i - 1].index)
      return Status::InvalidArgument("wire: candidate indices not ascending");
    if (c.locations.empty() || c.locations.size() > kMaxWireSubgroupSize)
      return Status::InvalidArgument("wire: candidate size out of range");
    w.PutVarint(c.index);
    w.PutVarint(c.locations.size());
    // Raw IEEE doubles, not the 8-byte quantization: the shard's solver
    // must see the exact values the coordinator's own solver would.
    for (const Point& p : c.locations) {
      w.PutDouble(p.x);
      w.PutDouble(p.y);
    }
  }
  if (deadline_ms != 0 || idempotency_key != 0) {
    if (deadline_ms > kMaxWireMillis)
      return Status::InvalidArgument("wire: deadline_ms out of range");
    w.PutU8(kQueryTrailerTag);
    w.PutVarint(deadline_ms);
    w.PutU64(idempotency_key);
  }
  return w.Release();
}

namespace {

/// ShardQueryMessage::Decode without its failpoint, so an admission peek
/// is not counted as a decode.
Result<ShardQueryMessage> ReadShardQuery(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  ShardQueryMessage msg;
  PPGNN_ASSIGN_OR_RETURN(uint8_t magic, r.GetU8());
  if (magic != kShardMagic)
    return Status::InvalidArgument("wire: missing shard magic");
  PPGNN_ASSIGN_OR_RETURN(uint64_t k64, r.GetVarint());
  if (k64 < 1 || k64 > kMaxWireK)
    return Status::InvalidArgument("wire: k out of range");
  msg.k = static_cast<int>(k64);
  PPGNN_ASSIGN_OR_RETURN(uint8_t agg, r.GetU8());
  if (agg > static_cast<uint8_t>(AggregateKind::kMin))
    return Status::InvalidArgument("wire: bad aggregate kind");
  msg.aggregate = static_cast<AggregateKind>(agg);
  PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count < 1 || count > kMaxWireDeltaPrime)
    return Status::InvalidArgument("wire: candidate count out of range");
  msg.candidates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ShardQueryMessage::Candidate c;
    PPGNN_ASSIGN_OR_RETURN(c.index, r.GetVarint());
    if (c.index > kMaxWireDeltaPrime)
      return Status::InvalidArgument("wire: candidate index out of range");
    if (!msg.candidates.empty() && c.index <= msg.candidates.back().index)
      return Status::InvalidArgument("wire: candidate indices not ascending");
    PPGNN_ASSIGN_OR_RETURN(uint64_t pts, r.GetVarint());
    if (pts < 1 || pts > kMaxWireSubgroupSize)
      return Status::InvalidArgument("wire: candidate size out of range");
    c.locations.reserve(pts);
    for (uint64_t j = 0; j < pts; ++j) {
      Point p;
      PPGNN_ASSIGN_OR_RETURN(p.x, r.GetDouble());
      PPGNN_ASSIGN_OR_RETURN(p.y, r.GetDouble());
      if (!std::isfinite(p.x) || !std::isfinite(p.y))
        return Status::InvalidArgument("wire: non-finite candidate location");
      c.locations.push_back(p);
    }
    msg.candidates.push_back(std::move(c));
  }
  PPGNN_RETURN_IF_ERROR(
      ReadQueryTrailer(r, &msg.deadline_ms, &msg.idempotency_key));
  return msg;
}

}  // namespace

Result<ShardQueryMessage> ShardQueryMessage::Decode(
    const std::vector<uint8_t>& bytes) {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.shard.decode"));
  return ReadShardQuery(bytes);
}

Result<QueryWireHeader> PeekQueryHeader(const std::vector<uint8_t>& bytes) {
  QueryWireHeader header;
  if (IsShardQuery(bytes)) {
    // Plaintext shard fan-out: expose k and the shipped candidate count so
    // queueing/dedup still work, but leave key material zeroed — the
    // crypto-calibrated cost model must not price this request.
    PPGNN_ASSIGN_OR_RETURN(ShardQueryMessage shard, ReadShardQuery(bytes));
    header.is_shard = true;
    header.k = shard.k;
    header.delta_prime = shard.candidates.size();
    header.deadline_ms = shard.deadline_ms;
    header.idempotency_key = shard.idempotency_key;
    return header;
  }
  PPGNN_ASSIGN_OR_RETURN(QueryMessage query,
                         ReadQuery(bytes, /*bodies=*/false));
  header.k = query.k;
  header.delta_prime = query.plan.delta_prime;
  header.key_bits = query.pk.key_bits;
  header.is_opt = query.is_opt;
  header.omega = query.opt_indicator.omega;
  header.deadline_ms = query.deadline_ms;
  header.idempotency_key = query.idempotency_key;
  return header;
}

Result<std::vector<uint8_t>> ShardAnswerMessage::Encode() const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.shard.encode"));
  if (candidates.empty() || candidates.size() > kMaxWireDeltaPrime)
    return Status::InvalidArgument("wire: candidate count out of range");
  ByteWriter w;
  w.PutU8(kShardMagic);
  w.PutVarint(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidateResult& c = candidates[i];
    if (c.index > kMaxWireDeltaPrime)
      return Status::InvalidArgument("wire: candidate index out of range");
    if (i > 0 && c.index <= candidates[i - 1].index)
      return Status::InvalidArgument("wire: candidate indices not ascending");
    if (c.results.size() > kMaxWireK)
      return Status::InvalidArgument("wire: result count out of range");
    w.PutVarint(c.index);
    w.PutVarint(c.results.size());
    for (const Ranked& rk : c.results) {
      w.PutU32(rk.poi_id);
      w.PutDouble(rk.location.x);
      w.PutDouble(rk.location.y);
      w.PutDouble(rk.cost);
    }
  }
  return w.Release();
}

Result<ShardAnswerMessage> ShardAnswerMessage::Decode(
    const std::vector<uint8_t>& bytes) {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.shard.decode"));
  ByteReader r(bytes);
  ShardAnswerMessage msg;
  PPGNN_ASSIGN_OR_RETURN(uint8_t magic, r.GetU8());
  if (magic != kShardMagic)
    return Status::InvalidArgument("wire: missing shard magic");
  PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count < 1 || count > kMaxWireDeltaPrime)
    return Status::InvalidArgument("wire: candidate count out of range");
  msg.candidates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CandidateResult c;
    PPGNN_ASSIGN_OR_RETURN(c.index, r.GetVarint());
    if (c.index > kMaxWireDeltaPrime)
      return Status::InvalidArgument("wire: candidate index out of range");
    // A repeated index would merge two lists into one candidate's top-k
    // and could count a POI twice there; ascending order rules it out.
    if (!msg.candidates.empty() && c.index <= msg.candidates.back().index)
      return Status::InvalidArgument("wire: candidate indices not ascending");
    PPGNN_ASSIGN_OR_RETURN(uint64_t results, r.GetVarint());
    if (results > kMaxWireK)
      return Status::InvalidArgument("wire: result count out of range");
    c.results.reserve(results);
    std::unordered_set<uint32_t> seen_ids;
    for (uint64_t j = 0; j < results; ++j) {
      Ranked rk;
      PPGNN_ASSIGN_OR_RETURN(rk.poi_id, r.GetU32());
      PPGNN_ASSIGN_OR_RETURN(rk.location.x, r.GetDouble());
      PPGNN_ASSIGN_OR_RETURN(rk.location.y, r.GetDouble());
      PPGNN_ASSIGN_OR_RETURN(rk.cost, r.GetDouble());
      // A NaN cost would break the strict-weak-ordering contract of the
      // coordinator's merge sort; reject it at the trust boundary.
      if (!std::isfinite(rk.location.x) || !std::isfinite(rk.location.y) ||
          !std::isfinite(rk.cost)) {
        return Status::InvalidArgument("wire: non-finite shard result");
      }
      // The solver emits each candidate's list strictly ascending by
      // (cost, poi id) with distinct ids; a replica violating either is
      // buggy or corrupted, and letting it through would let one bad
      // replica poison the exact cross-shard merge. Strict (cost, id)
      // ascent is checked pairwise; id uniqueness needs its own pass
      // because a duplicate id may legally ascend by cost.
      if (!c.results.empty()) {
        const Ranked& prev = c.results.back();
        if (rk.cost < prev.cost ||
            (rk.cost == prev.cost && rk.poi_id <= prev.poi_id)) {
          return Status::InvalidArgument(
              "wire: shard results out of (cost, id) order");
        }
      }
      if (!seen_ids.insert(rk.poi_id).second)
        return Status::InvalidArgument("wire: duplicate shard result id");
      c.results.push_back(rk);
    }
    msg.candidates.push_back(std::move(c));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  return msg;
}

std::vector<uint8_t> LocationSetMessage::Encode() const {
  ByteWriter w;
  w.PutU32(user_id);
  w.PutVarint(locations.size());
  for (const Point& p : locations) WritePoint(w, p);
  return w.Release();
}

Result<LocationSetMessage> LocationSetMessage::Decode(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  LocationSetMessage msg;
  PPGNN_ASSIGN_OR_RETURN(msg.user_id, r.GetU32());
  PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count < 1 || count > 1 << 20)
    return Status::InvalidArgument("wire: bad location-set size");
  msg.locations.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PPGNN_ASSIGN_OR_RETURN(Point p, ReadPoint(r));
    msg.locations.push_back(p);
  }
  if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  return msg;
}

Result<std::vector<uint8_t>> AnswerMessage::Encode(const PublicKey& pk) const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.answer.encode"));
  if (ciphertexts.empty())
    return Status::InvalidArgument("wire: refusing to encode empty answer");
  const int level = ciphertexts[0].level;
  if (level < 1 || level > 4)
    return Status::InvalidArgument("wire: bad ciphertext level in answer");
  for (const Ciphertext& ct : ciphertexts) {
    if (ct.level != level)
      return Status::InvalidArgument(
          "wire: mixed ciphertext levels in answer");
  }
  ByteWriter w;
  w.PutVarint(ciphertexts.size());
  w.PutU8(static_cast<uint8_t>(level));
  for (const Ciphertext& ct : ciphertexts) {
    PPGNN_RETURN_IF_ERROR(AppendCiphertext(w, ct, pk));
  }
  return w.Release();
}

Result<AnswerMessage> AnswerMessage::Decode(const std::vector<uint8_t>& bytes,
                                            const PublicKey& pk) {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.answer.decode"));
  ByteReader r(bytes);
  AnswerMessage msg;
  PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count == 0) return Status::InvalidArgument("wire: empty answer");
  PPGNN_ASSIGN_OR_RETURN(uint8_t level, r.GetU8());
  if (level < 1 || level > 4)
    return Status::InvalidArgument("wire: bad ciphertext level");
  for (uint64_t i = 0; i < count; ++i) {
    PPGNN_ASSIGN_OR_RETURN(Ciphertext ct, ReadCiphertext(r, pk, level));
    msg.ciphertexts.push_back(std::move(ct));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  return msg;
}

std::vector<uint8_t> AnswerBroadcast::Encode() const {
  ByteWriter w;
  w.PutVarint(pois.size());
  for (const Point& p : pois) WritePoint(w, p);
  return w.Release();
}

Result<AnswerBroadcast> AnswerBroadcast::Decode(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  AnswerBroadcast msg;
  PPGNN_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count > 1 << 16)
    return Status::InvalidArgument("wire: implausible answer size");
  for (uint64_t i = 0; i < count; ++i) {
    PPGNN_ASSIGN_OR_RETURN(Point p, ReadPoint(r));
    msg.pois.push_back(p);
  }
  if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  return msg;
}

const char* WireErrorToString(WireError code) {
  switch (code) {
    case WireError::kMalformed:
      return "Malformed";
    case WireError::kOverloaded:
      return "Overloaded";
    case WireError::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireError::kInternal:
      return "Internal";
    case WireError::kShuttingDown:
      return "ShuttingDown";
  }
  return "Unknown";
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kProtocolError:
      return WireError::kMalformed;
    case StatusCode::kResourceExhausted:
      return WireError::kOverloaded;
    case StatusCode::kDeadlineExceeded:
      return WireError::kDeadlineExceeded;
    default:
      return WireError::kInternal;
  }
}

std::vector<uint8_t> ErrorMessage::Encode() const {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(code));
  std::string clipped = detail;
  if (clipped.size() > kMaxWireErrorDetail)
    clipped.resize(kMaxWireErrorDetail);
  w.PutBytes(std::vector<uint8_t>(clipped.begin(), clipped.end()));
  // Version-gated hint: a zero hint encodes as the version-1 frame, so
  // pre-hint decoders keep accepting everything we emit by default.
  if (retry_after_ms != 0) {
    w.PutVarint(std::min(retry_after_ms, kMaxWireMillis));
  }
  return w.Release();
}

Result<ErrorMessage> ErrorMessage::Decode(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  ErrorMessage msg;
  PPGNN_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  if (code > static_cast<uint8_t>(WireError::kShuttingDown))
    return Status::InvalidArgument("wire: unknown error code");
  msg.code = static_cast<WireError>(code);
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> detail, r.GetBytes());
  if (detail.size() > kMaxWireErrorDetail)
    return Status::InvalidArgument("wire: oversized error detail");
  msg.detail.assign(detail.begin(), detail.end());
  if (!r.AtEnd()) {
    PPGNN_ASSIGN_OR_RETURN(msg.retry_after_ms, r.GetVarint());
    if (msg.retry_after_ms == 0 || msg.retry_after_ms > kMaxWireMillis)
      return Status::InvalidArgument("wire: retry_after_ms out of range");
    if (!r.AtEnd()) return Status::InvalidArgument("wire: trailing bytes");
  }
  return msg;
}

std::vector<uint8_t> ResponseFrame::WrapAnswer(
    std::vector<uint8_t> answer_bytes) {
  return WrapFrame(kFrameAnswer, answer_bytes.data(), answer_bytes.size());
}

std::vector<uint8_t> ResponseFrame::WrapError(const ErrorMessage& error) {
  std::vector<uint8_t> payload = error.Encode();
  return WrapFrame(kFrameError, payload.data(), payload.size());
}

Result<ResponseFrame> ResponseFrame::Decode(
    const std::vector<uint8_t>& bytes) {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("wire.frame.decode"));
  if (bytes.size() < kFrameHeaderBytes)
    return Status::InvalidArgument("wire: short response frame");
  const uint32_t stored = static_cast<uint32_t>(bytes[1]) |
                          static_cast<uint32_t>(bytes[2]) << 8 |
                          static_cast<uint32_t>(bytes[3]) << 16 |
                          static_cast<uint32_t>(bytes[4]) << 24;
  const uint8_t* payload_data = bytes.data() + kFrameHeaderBytes;
  const size_t payload_len = bytes.size() - kFrameHeaderBytes;
  if (Crc32(payload_data, payload_len) != stored)
    return Status::InvalidArgument("wire: response frame checksum mismatch");
  ResponseFrame frame;
  std::vector<uint8_t> payload(payload_data, payload_data + payload_len);
  if (bytes[0] == kFrameAnswer) {
    frame.is_error = false;
    frame.answer = std::move(payload);
  } else if (bytes[0] == kFrameError) {
    frame.is_error = true;
    PPGNN_ASSIGN_OR_RETURN(frame.error, ErrorMessage::Decode(payload));
  } else {
    return Status::InvalidArgument("wire: unknown response frame tag");
  }
  return frame;
}

}  // namespace ppgnn
