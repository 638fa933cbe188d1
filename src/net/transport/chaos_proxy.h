// ChaosProxy: a deterministic in-process TCP fault injector for the
// shard/replica hop.
//
// Sits between a TcpLink and a TcpShardServer on loopback and forwards
// bytes both ways, applying a seeded schedule of socket-level faults —
// the failure surface the in-process failpoint framework cannot model:
//
//   action      effect on the connection
//   ---------   ----------------------------------------------------
//   delay       sleep `delay` seconds before forwarding each chunk
//   drop        forward `after` bytes (per direction), then close the
//               proxy legs with an orderly FIN (mid-frame truncation)
//   rst         forward `after` bytes, then close with SO_LINGER(0) so
//               the peer sees a hard RST mid-exchange
//   blackhole   forward `after` bytes, then swallow everything while
//               keeping the connection open (slow-loris / stalled peer)
//   split       forward output in `split`-byte writes with a short
//               yield between them (partial reads on the peer)
//
// Schedules compose with the failpoint spec idiom: each rule carries a
// trigger (`every=N` connections / `times=N` / `skip=N` / `p=F`) drawn
// from a seeded per-rule counter+RNG, so a given (seed, rule list,
// connection order) replays the exact same fault sequence — the chaos
// tier's two-run determinism applies to sockets too. Spec grammar
// (ParseChaosRule):
//
//   "rst after=120 every=2"      RST after 120 forwarded bytes, every
//                                2nd connection
//   "delay=0.05 times=1"         50 ms per-chunk delay, first conn only
//   "blackhole after=64 p=0.3"   seeded 30% of connections stall
//   "split=7"                    every connection writes 7-byte chunks
//   "drop after=0 skip=1"        fail every connection after the first
//
// Directionality: faults apply to both pump directions of an afflicted
// connection; `after` counts bytes per direction.

#ifndef PPGNN_NET_TRANSPORT_CHAOS_PROXY_H_
#define PPGNN_NET_TRANSPORT_CHAOS_PROXY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/transport/socket.h"
#include "net/transport/thread_per_item.h"

namespace ppgnn {

enum class ChaosAction : uint8_t {
  kDelay = 0,
  kDrop = 1,
  kRst = 2,
  kBlackhole = 3,
  kSplit = 4,
};

const char* ChaosActionToString(ChaosAction action);

struct ChaosRule {
  ChaosAction action = ChaosAction::kDelay;
  /// Per-chunk forwarding delay for kDelay, seconds.
  double delay_seconds = 0.0;
  /// Bytes forwarded (per direction) before kDrop/kRst/kBlackhole bite.
  uint64_t after_bytes = 0;
  /// Write-chunk size for kSplit (>= 1).
  uint64_t split_bytes = 1;
  /// Trigger schedule over the proxy's connection counter, evaluated in
  /// accept order exactly like failpoint schedules: first `skip`
  /// matching connections pass untouched, then at most `times` fire
  /// (0 = unlimited), gated by `every` (fire when (n - skip) % every ==
  /// 0) and by a seeded Bernoulli(p) draw.
  uint64_t skip = 0;
  uint64_t times = 0;
  uint64_t every = 1;
  double probability = 1.0;
};

/// Parses the spec grammar documented above. Examples: "rst after=120
/// every=2", "delay=0.05", "split=7 p=0.5", "blackhole after=64".
Result<ChaosRule> ParseChaosRule(const std::string& spec);

struct ChaosProxyStats {
  uint64_t connections = 0;
  uint64_t clean_connections = 0;  ///< no rule fired
  uint64_t delays = 0;
  uint64_t drops = 0;
  uint64_t rsts = 0;
  uint64_t blackholes = 0;
  uint64_t splits = 0;
  uint64_t bytes_forwarded = 0;
  uint64_t bytes_swallowed = 0;  ///< eaten by black holes

  std::string ToString() const;
};

class ChaosProxy {
 public:
  struct Config {
    /// 0 = kernel-assigned; read back with port().
    uint16_t listen_port = 0;
    std::string upstream_host = "127.0.0.1";
    uint16_t upstream_port = 0;
    double connect_timeout_seconds = 0.5;
    uint64_t seed = 0xc4a05;
    std::vector<ChaosRule> rules;
  };

  explicit ChaosProxy(Config config);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds, listens, and starts the accept loop. Call once.
  [[nodiscard]] Status Start();

  /// The proxy's listening port (valid after Start).
  uint16_t port() const { return port_; }

  ChaosProxyStats Stats() const;

  /// Shuts the listener down (waking the accept loop), severs every
  /// proxied connection (waking its pump), joins threads. Idempotent; the
  /// destructor calls it.
  void Shutdown();

 private:
  /// The fault plan drawn for one connection at accept time.
  struct Plan {
    bool delay = false;
    double delay_seconds = 0.0;
    bool cut = false;  ///< drop / rst / blackhole armed
    ChaosAction cut_action = ChaosAction::kDrop;
    uint64_t cut_after_bytes = 0;
    bool split = false;
    uint64_t split_bytes = 1;
  };

  struct Session {
    /// Guards the two fds: the pump closes them (RST/drop actions) while
    /// Shutdown may concurrently want to shutdown(2) them as a wakeup.
    std::mutex fd_mu;
    // ppgnn: guarded_by(client, fd_mu)
    OwnedFd client;
    // ppgnn: guarded_by(upstream, fd_mu)
    OwnedFd upstream;
    Plan plan;
  };

  void AcceptLoop();
  /// Draws the per-connection plan from the seeded rule schedules.
  Plan DrawPlan();
  /// One thread pumps both directions (poll over the fd pair, with no
  /// timeout), applying the session plan, until EOF, a cut or Shutdown's
  /// wake.
  void PumpSession(Session* session);
  /// Closes a fd so the peer sees RST instead of FIN.
  static void HardReset(OwnedFd* fd);

  const Config config_;
  OwnedFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  mutable std::mutex mu_;
  // ppgnn: guarded_by(rng_, mu_)
  Rng rng_;
  // ppgnn: guarded_by(rule_hits_, mu_)
  std::vector<uint64_t> rule_hits_;  ///< matching connections seen per rule
  // ppgnn: guarded_by(rule_fired_, mu_)
  std::vector<uint64_t> rule_fired_;  ///< times each rule actually fired

  // ppgnn: stat_counter(connections_, clean_connections_, delays_)
  // ppgnn: stat_counter(drops_, rsts_, blackholes_, splits_)
  // ppgnn: stat_counter(bytes_forwarded_, bytes_swallowed_)
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> clean_connections_{0};
  std::atomic<uint64_t> delays_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> rsts_{0};
  std::atomic<uint64_t> blackholes_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> bytes_forwarded_{0};
  std::atomic<uint64_t> bytes_swallowed_{0};

  /// One pump thread per proxied connection, reaped by the accept loop at
  /// its next accept, or by Shutdown.
  /// Last: its threads use every member above.
  ThreadPerItem<Session> sessions_;
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_CHAOS_PROXY_H_
