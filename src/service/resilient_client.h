// ResilientClient: the coordinator-side survival kit for a flaky LSP,
// and the only code that retries, hedges and fails over.
//
// LspService gave the server structured errors, deadlines, and admission
// control; this is the client that can actually live with them. One
// Call() runs a request over a *route*: a preference-ordered list of
// interchangeable links (the replicas of one shard, or the one service
// the one-link Call() wraps). Inside its budget it applies these rules:
//
//   * Legs: every new leg (attempt or hedge) goes to the next link in
//     the route, wrapping around. A leg to a link not yet tried in this
//     call goes out at once; going back to a link that already failed
//     waits out a capped exponential backoff with seeded jitter. When
//     an overloaded reply carries a retry_after_ms hint, the hint
//     replaces the exponential schedule (the server knows its backlog
//     better than our guess), still capped against the remaining budget.
//   * Verdicts: transient failures (kOverloaded, kDeadlineExceeded,
//     kShuttingDown, and transport garbage — a reply that fails frame
//     decode) are retried while attempts and budget last. kMalformed
//     ends the call at once: resending a malformed query cannot help.
//     kInternal is one link's verdict: it ends the call only when no leg
//     is outstanding and every link has been tried, so on a one-link
//     route it is terminal.
//   * Hedging (optional): if an attempt is silent past a delay derived
//     from the client's own observed p99 (or a configured one), one
//     identical leg goes to the next link and the first decisive reply
//     wins. A route hedges only onto a second link; the one-link Call()
//     hedges onto its own link. Every leg of one Call() carries the same
//     client-generated idempotency key, so a server coalesces duplicates
//     instead of re-running the crypto pipeline.
//   * Budget: the tighter of the policy's total budget and the request's
//     own deadline_seconds bounds the whole call, and every leg carries
//     the *remaining* budget as its per-request deadline, so the server
//     stops working for us the moment our caller would no longer accept
//     the answer.
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
  /// Attempts per Call(), counting the first (>= 1). Hedges do not count,
  /// and a route gets at least one attempt per link.
  int max_attempts = 4;
  /// Total wall-clock budget per Call(); 0 = unlimited (attempts-bound,
  /// or bounded by the request's deadline_seconds when it carries one).
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
  /// Route index of the link whose answer is `frame`; -1 when unanswered.
  int link = -1;
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
/// histogram. An abandoned (budget-expired or losing) leg's late reply
/// still records into this client, so close every link before
/// destroying the client.
class ResilientClient {
 public:
  /// The downstream may be an in-process LspService or any other
  /// ServiceLink (e.g. a TcpLink to a remote replica); the ladder is
  /// transport-agnostic.
  ResilientClient(ServiceLink& service, RetryPolicy policy);
  /// A client that only runs routes: Call(request, route).
  explicit ResilientClient(RetryPolicy policy);

  /// Runs one request to completion over the constructor's link (the
  /// client must have one), under the policy. Blocking.
  ClientCallOutcome Call(ServiceRequest request);
  /// Runs one request to completion over `route`: links that answer any
  /// request with the same bytes, most preferred first. An empty route
  /// fails without a leg. Blocking.
  ClientCallOutcome Call(ServiceRequest request,
                         const std::vector<ServiceLink*>& route);

  ClientStats Stats() const;

  /// True for errors worth retrying: the server said "not now"
  /// (overloaded / deadline), as opposed to "never" (malformed or an
  /// internal failure that a resend would only repeat).
  static bool IsRetryable(WireError code);

 private:
  ClientCallOutcome Run(ServiceRequest request,
                        const std::vector<ServiceLink*>& route,
                        bool same_link_hedge);
  double BackoffSeconds(int completed_attempts);
  uint64_t NextIdempotencyKey();

  ServiceLink* const service_;  ///< null for a route-only client
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
