// Wire formats for the protocol's messages.
//
// Every message that crosses a party boundary in the simulation is
// actually serialized with these codecs and re-parsed on the receiving
// side, so (a) the byte counts reported as communication cost are the
// true wire sizes, and (b) the LSP computes on exactly what the users
// sent (e.g. the 8-byte fixed-point quantization of locations is real,
// not simulated).
//
// The decoders treat their input as adversarial: every count is bounded
// before it is cast or used as a loop limit, and the delta' recomputation
// is overflow-checked against kMaxWireDeltaPrime so a hostile plan cannot
// wrap the candidate count small and slip an undersized indicator past
// the length check.
//
// Layout summary (all integers little-endian or LEB128 varint):
//   QueryMessage     k, theta0, aggregate, alpha, n_bar[], beta, d_bar[],
//                    pk (key_bits/8 bytes), indicator kind,
//                    [v] or ([v1], [[v2]]) as fixed-width ciphertexts
//   LocationSetMessage  user id + d x 8-byte fixed-point locations
//   AnswerMessage    m fixed-width ciphertexts (level 1 or 2)
//   ErrorMessage     1-byte code + short UTF-8 detail string
//   ResponseFrame    1-byte tag, 4-byte CRC32 of the payload, then an
//                    AnswerMessage or ErrorMessage payload
//
// The frame CRC exists for fault tolerance, not security: a client that
// receives a bit-flipped reply (chaos tests inject exactly this) must be
// able to tell "corrupted in transit, retry" from "valid answer whose
// ciphertexts decrypt to garbage" — without it, corruption inside a
// ciphertext body would silently decode into wrong POIs.

#ifndef PPGNN_CORE_WIRE_H_
#define PPGNN_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/candidate.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "crypto/paillier.h"
#include "geo/aggregate.h"

namespace ppgnn {

/// Decode-side hard limits. These are deliberately far above anything the
/// paper's parameter ranges produce (k <= 50, n <= 32, d <= 50,
/// delta' <= a few thousand) but small enough that no bounded value can
/// overflow an int or drive the LSP into an unbounded candidate loop.
inline constexpr uint64_t kMaxWireK = 1 << 16;
inline constexpr uint64_t kMaxWireSubgroupSize = 1 << 16;   // n_bar entries
inline constexpr uint64_t kMaxWireSegmentSize = 1 << 16;    // d_bar entries
inline constexpr uint64_t kMaxWireDeltaPrime = 1 << 22;     // candidate count
inline constexpr uint64_t kMaxWireErrorDetail = 1 << 10;    // bytes
/// Upper bound on the optional deadline / retry-after hints (~12 days in
/// milliseconds) — far beyond any sane budget, small enough that seconds
/// conversions cannot overflow a double's integer range.
inline constexpr uint64_t kMaxWireMillis = 1ull << 30;
/// Bounds on the explicit key_bits field: keys below the GenerateKeyPair
/// floor or beyond any deployed size are rejected before the modulus bytes
/// are even looked at.
inline constexpr uint64_t kMinWireKeyBits = 64;
inline constexpr uint64_t kMaxWireKeyBits = 1 << 16;

/// The coordinator -> LSP query message (Algorithm 1, line 11).
struct QueryMessage {
  int k = 0;
  double theta0 = 0.0;
  AggregateKind aggregate = AggregateKind::kSum;
  PartitionPlan plan;  // delta_prime is recomputed on decode
  PublicKey pk;
  /// Exactly one of the two indicator encodings is present.
  bool is_opt = false;
  std::vector<Ciphertext> indicator;  // PPGNN / Naive
  OptIndicator opt_indicator;         // PPGNN-OPT
  /// Optional wire-version-2 trailer (0 = absent): the client's remaining
  /// time budget for this query, propagated so the server can shed or
  /// abandon work the caller would no longer accept, and a client-chosen
  /// idempotency key so a retried or hedged duplicate can be coalesced
  /// with the in-flight original instead of re-running the crypto
  /// pipeline. Version-1 frames simply end after the indicator; they
  /// decode with both fields zero, and Encode emits no trailer when both
  /// are zero — old readers and writers interoperate unchanged.
  uint64_t deadline_ms = 0;
  uint64_t idempotency_key = 0;

  /// Errors (instead of crashing) when a ciphertext or the public key
  /// does not fit its fixed wire width.
  [[nodiscard]] Result<std::vector<uint8_t>> Encode() const;
  [[nodiscard]] static Result<QueryMessage> Decode(const std::vector<uint8_t>& bytes);
};

/// The admission-relevant fields of an encoded QueryMessage, parsed
/// without materializing any ciphertext (bodies are length-checked only).
/// This is what cost-aware admission reads *before* deciding to spend
/// crypto on a request: every field is public wire metadata — none of it
/// derives from `// ppgnn: secret` data.
struct QueryWireHeader {
  int k = 0;
  uint64_t delta_prime = 0;
  int key_bits = 0;
  bool is_opt = false;
  uint64_t omega = 0;       ///< OPT block count (0 for plain)
  uint64_t deadline_ms = 0;
  uint64_t idempotency_key = 0;
  /// True when the bytes are a ShardQueryMessage (plaintext candidate
  /// evaluation) rather than a full encrypted QueryMessage. Shard queries
  /// carry no key material, so key_bits/omega stay zero and the crypto
  /// cost model must not be applied to them; delta_prime is the candidate
  /// count shipped to this shard.
  bool is_shard = false;
};

/// Header peek over QueryMessage or ShardQueryMessage bytes. It runs the
/// decoders' own parsers (minus their failpoints), so it fails exactly
/// when QueryMessage::Decode or ShardQueryMessage::Decode would: a
/// malformed query is never priced by admission, and its worker decode
/// replies kMalformed.
[[nodiscard]] Result<QueryWireHeader> PeekQueryHeader(
    const std::vector<uint8_t>& bytes);

/// Coordinator -> shard candidate-evaluation request. The sharded cluster
/// keeps all crypto at the coordinator: shards only run the plaintext kGNN
/// over their POI slice, so this message ships raw (unquantized) candidate
/// locations — the exact doubles the coordinator would have fed its own
/// solver — keeping the S=1 cluster bit-identical to the single-node path.
/// The leading 0x00 magic byte is unreachable as a QueryMessage (whose
/// first varint is k >= 1), so one wire endpoint can serve both shapes.
struct ShardQueryMessage {
  struct Candidate {
    /// Global candidate index within the subgroup/segment enumeration, so
    /// a partial (degraded) gather still merges into the right
    /// answer-matrix columns. Strictly ascending within a message.
    uint64_t index = 0;
    std::vector<Point> locations;
  };

  int k = 0;
  AggregateKind aggregate = AggregateKind::kSum;
  std::vector<Candidate> candidates;
  /// Same optional wire-v2 trailer as QueryMessage: the coordinator
  /// propagates its remaining budget and a per-shard-derived idempotency
  /// key through the fan-out so retried/hedged shard legs coalesce.
  uint64_t deadline_ms = 0;
  uint64_t idempotency_key = 0;

  [[nodiscard]] Result<std::vector<uint8_t>> Encode() const;
  [[nodiscard]] static Result<ShardQueryMessage> Decode(
      const std::vector<uint8_t>& bytes);
};

/// Shard -> coordinator per-candidate top-k answer. Raw doubles again: the
/// merge sorts on exactly the costs the shard's solver computed. Candidate
/// indices strictly ascend, as in the query, so no candidate appears twice.
struct ShardAnswerMessage {
  struct Ranked {
    uint32_t poi_id = 0;
    Point location;
    double cost = 0.0;
  };
  struct CandidateResult {
    uint64_t index = 0;
    std::vector<Ranked> results;
  };

  std::vector<CandidateResult> candidates;

  [[nodiscard]] Result<std::vector<uint8_t>> Encode() const;
  [[nodiscard]] static Result<ShardAnswerMessage> Decode(
      const std::vector<uint8_t>& bytes);
};

/// True when the bytes carry the shard-query magic (leading 0x00). A
/// QueryMessage can never start with 0x00 (its first varint is k >= 1).
[[nodiscard]] bool IsShardQuery(const std::vector<uint8_t>& bytes);

/// One user's (i, L_i) upload (Algorithm 1, line 15).
struct LocationSetMessage {
  uint32_t user_id = 0;
  LocationSet locations;

  std::vector<uint8_t> Encode() const;
  [[nodiscard]] static Result<LocationSetMessage> Decode(const std::vector<uint8_t>& bytes);
};

/// The LSP -> coordinator encrypted answer (Algorithm 2, line 8).
struct AnswerMessage {
  std::vector<Ciphertext> ciphertexts;

  /// Needs the public key for the fixed ciphertext widths. Empty answers
  /// and mixed ciphertext levels are encode-time errors: the format
  /// carries a single level byte, so a mixed vector cannot round-trip.
  [[nodiscard]] Result<std::vector<uint8_t>> Encode(const PublicKey& pk) const;
  [[nodiscard]] static Result<AnswerMessage> Decode(const std::vector<uint8_t>& bytes,
                                      const PublicKey& pk);
};

/// The coordinator -> group plaintext answer broadcast.
struct AnswerBroadcast {
  std::vector<Point> pois;

  std::vector<uint8_t> Encode() const;
  [[nodiscard]] static Result<AnswerBroadcast> Decode(const std::vector<uint8_t>& bytes);
};

/// Machine-readable failure class of a served request, so clients can
/// distinguish "my query was malformed" from "the server is overloaded"
/// from "my deadline expired" without parsing error text.
enum class WireError : uint8_t {
  kMalformed = 0,         ///< query/upload bytes failed to decode or validate
  kOverloaded = 1,        ///< admission control rejected the request
  kDeadlineExceeded = 2,  ///< the request's time budget ran out
  kInternal = 3,          ///< anything else that went wrong server-side
  /// The service is draining for shutdown: the request was never
  /// admitted and a resend to a live instance (or after restart — see
  /// retry_after_ms) will succeed. Retryable, unlike kInternal.
  kShuttingDown = 4,
};

/// Number of WireError codes (for per-code counter arrays).
inline constexpr size_t kWireErrorCount =
    static_cast<size_t>(WireError::kShuttingDown) + 1;

const char* WireErrorToString(WireError code);

/// Maps a Status from the serving path onto the wire taxonomy.
WireError WireErrorFromStatus(const Status& status);

/// The LSP -> coordinator structured error reply.
struct ErrorMessage {
  WireError code = WireError::kInternal;
  std::string detail;  ///< human-readable, truncated to kMaxWireErrorDetail
  /// Optional backpressure hint on kOverloaded replies (0 = none): how
  /// long the server expects its backlog to need before a resend has a
  /// chance. Version-gated like the QueryMessage trailer: old frames end
  /// after the detail string and decode with the hint absent.
  uint64_t retry_after_ms = 0;

  std::vector<uint8_t> Encode() const;
  [[nodiscard]] static Result<ErrorMessage> Decode(const std::vector<uint8_t>& bytes);
};

/// Envelope for everything the LSP service sends back: one tag byte, a
/// CRC32 of the payload, then either raw AnswerMessage bytes or an
/// ErrorMessage. Plain LspHandleQuery (the library entry point) still
/// returns bare AnswerMessage bytes; the framing exists so a *served*
/// reply is self-describing on the wire and corruption is detectable
/// (Decode fails with a checksum error rather than mis-parsing).
struct ResponseFrame {
  bool is_error = false;
  std::vector<uint8_t> answer;  ///< AnswerMessage bytes when !is_error
  ErrorMessage error;           ///< set when is_error

  static std::vector<uint8_t> WrapAnswer(std::vector<uint8_t> answer_bytes);
  static std::vector<uint8_t> WrapError(const ErrorMessage& error);
  [[nodiscard]] static Result<ResponseFrame> Decode(const std::vector<uint8_t>& bytes);
};

}  // namespace ppgnn

#endif  // PPGNN_CORE_WIRE_H_
