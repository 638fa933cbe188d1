// ResilientClient: the coordinator-side survival kit for a flaky LSP.
//
// LspService gave the server structured errors, deadlines, and admission
// control; this is the client that can actually live with them. One
// Call() owns a total deadline budget and, inside it:
//
//   * Retries: transient failures (kOverloaded, kDeadlineExceeded, and
//     transport garbage — a reply that fails frame decode) are retried
//     with capped exponential backoff plus seeded jitter, as long as the
//     budget has room. When an overloaded reply carries a retry_after_ms
//     hint, the hint replaces the exponential schedule (the server knows
//     its backlog better than our guess), still capped against the
//     remaining budget. Terminal failures (kMalformed, kInternal) are
//     returned immediately: resending a malformed query cannot help.
//   * Hedging (optional): if the primary attempt is silent past a delay
//     derived from the client's own observed p99 (or a configured one),
//     a second identical request is submitted and the first decisive
//     reply wins. Every attempt and hedge of one Call() carries the same
//     client-generated idempotency key, so the server coalesces
//     duplicates instead of re-running the crypto pipeline.
//   * Budget: every attempt carries the *remaining* budget as its
//     per-request deadline, so the server stops working for us the
//     moment our caller would no longer accept the answer.
//
// The client never invents answers: Call() returns either a decodable
// answer frame or a decodable structured error frame (synthesizing one
// locally only when the final reply was transport garbage or never
// came).

#ifndef PPGNN_SERVICE_RESILIENT_CLIENT_H_
#define PPGNN_SERVICE_RESILIENT_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/latency.h"
#include "service/link.h"
#include "service/lsp_service.h"

namespace ppgnn {

struct RetryPolicy {
  /// Attempts per Call(), counting the first (>= 1). Hedges do not count.
  int max_attempts = 4;
  /// Total wall-clock budget per Call(); 0 = unlimited (attempts-bound).
  double total_budget_seconds = 0.0;
  /// Backoff before attempt i+1 is
  /// min(initial * multiplier^i, max) * (1 ± jitter).
  double initial_backoff_seconds = 0.005;
  double max_backoff_seconds = 0.25;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.2;
  /// Enables the hedged second request.
  bool hedge = false;
  /// Fixed hedge delay; 0 = derive from observed p99 (HedgeDelaySeconds).
  double hedge_delay_seconds = 0.0;
  /// Stamp every attempt/hedge of a Call() with one generated nonzero
  /// idempotency key (server-side dedup). Off = duplicates race as
  /// independent executions (useful for tests that want a real race).
  bool tag_idempotency = true;
  /// Obey the server's retry_after_ms backpressure hint when present.
  bool honor_retry_after = true;
  /// Seed for jitter and idempotency keys. Fixed by default so chaos
  /// schedules replay.
  uint64_t seed = 0xc0ffee;
};

/// What one Call() did, for tests and stats.
struct ClientCallOutcome {
  std::vector<uint8_t> frame;  ///< the winning ResponseFrame bytes
  bool answered = false;       ///< frame decodes to an answer (not error)
  /// Set when !answered: the structured error the caller would decode.
  ErrorMessage error;
  int attempts = 0;  ///< requests submitted, excluding hedges
  int hedges = 0;    ///< hedged duplicates submitted
  bool hedge_won = false;
  double elapsed_seconds = 0.0;
};

struct ClientStats {
  uint64_t calls = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t answers = 0;
  uint64_t terminal_errors = 0;
  uint64_t budget_exhausted = 0;
  uint64_t transport_garbage = 0;  ///< replies that failed frame decode
  uint64_t retry_after_honored = 0;  ///< backoffs driven by a server hint

  std::string ToString() const;
};

/// Thread-safe: concurrent Call()s share the stats and the hedge-delay
/// histogram. An abandoned (budget-expired) attempt's late reply still
/// records into this client, so shut the service down before destroying
/// the client.
class ResilientClient {
 public:
  /// The downstream may be an in-process LspService or any other
  /// ServiceLink (e.g. a TcpLink to a remote replica); the ladder is
  /// transport-agnostic.
  ResilientClient(ServiceLink& service, RetryPolicy policy);

  /// Runs one request to completion under the policy. Blocking.
  ClientCallOutcome Call(ServiceRequest request);

  ClientStats Stats() const;

  /// True for errors worth retrying: the server said "not now"
  /// (overloaded / deadline), as opposed to "never" (malformed or an
  /// internal failure that a resend would only repeat).
  static bool IsRetryable(WireError code);

 private:
  double BackoffSeconds(int completed_attempts);
  uint64_t NextIdempotencyKey();

  ServiceLink& service_;
  const RetryPolicy policy_;

  mutable std::mutex mu_;
  // ppgnn: guarded_by(rng_, mu_)
  Rng rng_;
  // ppgnn: guarded_by(stats_, mu_)
  ClientStats stats_;
  LatencyHistogram attempt_latency_;  ///< per-attempt submit -> reply
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_RESILIENT_CLIENT_H_
