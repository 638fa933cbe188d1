// The PPGNN query driven step by step through the layers' public
// functions, with a span around every call into a layer.
//
// BuildQuery follows the coordinator half of RunQuery (and of
// BuildServiceRequest, which draws randomness in the same order when the
// key pair is given), RunLsp follows LspHandleQuery with one LSP thread,
// and DecryptAnswer follows the users' decryption. The benchmark checks
// that the bytes each step produces equal what the one-call entry points
// produce for the same inputs, so the traced run measures the same work
// the timed run does.

#ifndef PERFBENCH_STEPS_H_
#define PERFBENCH_STEPS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/protocol.h"
#include "service/link.h"
#include "service/lsp_service.h"
#include "trace.h"

namespace perfbench {

/// What the coordinator sends for one query, plus client-side counts.
struct BuiltQuery {
  std::vector<uint8_t> query_bytes;
  std::vector<std::vector<uint8_t>> upload_bytes;
  uint64_t encrypts = 0;         ///< Encrypt calls for the indicator
  uint64_t homomorphic_ops = 0;  ///< Encryptor::op_count delta
};

/// Coordinator side of Algorithm 1. `encryptor` null builds a fresh
/// public-key Encryptor, as RunQuery does per query; otherwise the given
/// long-lived one (which must wrap keys.pub) is used.
ppgnn::Result<BuiltQuery> BuildQuery(ppgnn::Variant variant,
                                     const ppgnn::ProtocolParams& params,
                                     const std::vector<ppgnn::Point>& group,
                                     const ppgnn::KeyPair& keys,
                                     const ppgnn::Encryptor* encryptor,
                                     ppgnn::Rng& rng, Trace* trace,
                                     uint64_t query);

/// LSP-side work counts of one query.
struct LspCounts {
  uint64_t delta_prime = 0;
  uint64_t sanitize_samples = 0;
  uint64_t sanitize_tests = 0;
  uint64_t sanitized_pois = 0;  ///< answer lengths after sanitation, summed
  uint64_t nodes_visited = 0;
  uint64_t homomorphic_ops = 0;
};

/// Algorithm 2 on wire bytes: the LSP span with one child span per
/// sub-layer (decode, candidate, kGNN, sanitize, pack, select, encode).
/// Returns the encoded AnswerMessage.
ppgnn::Result<std::vector<uint8_t>> RunLsp(
    const ppgnn::LspDatabase& db, const std::vector<uint8_t>& query_bytes,
    const std::vector<std::vector<uint8_t>>& upload_bytes, bool sanitize,
    Trace* trace, uint64_t query, LspCounts* counts);

/// The users' side of the answer: decode, decrypt, unpack. `decryptor`
/// null builds one per query, as RunQuery does.
ppgnn::Result<std::vector<ppgnn::Point>> DecryptAnswer(
    const std::vector<uint8_t>& answer_bytes, const ppgnn::KeyPair& keys,
    const ppgnn::Decryptor* decryptor, bool layered, Trace* trace,
    uint64_t query);

/// Bytes the coordinator broadcasts to the other n-1 users once the
/// answer is decoded (as RunQuery counts them).
uint64_t AnswerBroadcastBytes(const std::vector<ppgnn::Point>& pois, int n);

/// One leg through a link: when, and how many bytes.
struct Leg {
  uint64_t key = 0;  ///< the leg request's idempotency key
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
};

/// Thread-safe sink of legs; records only while enabled.
class LegLog {
 public:
  void SetRecording(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = on;
  }
  void Record(const Leg& leg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_) legs_.push_back(leg);
  }
  std::vector<Leg> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(legs_);
  }

 private:
  std::mutex mu_;
  bool recording_ = false;
  std::vector<Leg> legs_;
};

/// A ServiceLink decorator that times every leg and forwards everything
/// else (probes, connectivity, close, client hooks) unchanged, so health
/// and hedging behave as they would without it.
class TimedLink : public ppgnn::ServiceLink {
 public:
  TimedLink(std::unique_ptr<ppgnn::ServiceLink> inner, LegLog* log)
      : inner_(std::move(inner)), log_(log) {}

  bool Submit(ppgnn::ServiceRequest request, Callback done) override;
  void RecordClientRetry() override { inner_->RecordClientRetry(); }
  void RecordClientHedge() override { inner_->RecordClientHedge(); }
  void SetConnectivityObserver(std::function<void(bool)> observer) override {
    inner_->SetConnectivityObserver(std::move(observer));
  }
  ppgnn::Status Probe(double timeout_seconds) override {
    return inner_->Probe(timeout_seconds);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<ppgnn::ServiceLink> inner_;
  LegLog* log_;
};

/// The shard-leg idempotency key the cluster front derives from a
/// query's key (splitmix64 over key and shard), so legs can be joined to
/// the query that caused them.
uint64_t ShardLegKey(uint64_t query_key, uint64_t shard);

}  // namespace perfbench

#endif  // PERFBENCH_STEPS_H_
