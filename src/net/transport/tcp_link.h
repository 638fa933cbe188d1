// TcpLink: a ServiceLink over a real TCP connection.
//
// Plugs into the exact seam ResilientClient drives in-process — which
// is the whole point: the PR 8 ladder (budgets, retries, hedging,
// failover, health) applies unchanged over sockets. One link targets
// one server (one replica); ReplicaSet owns R of them per shard.
//
// Per Submit, a worker thread runs one request/response exchange on a
// pooled connection (dialing lazily when the pool is empty). Hedges
// are naturally supported: two in-flight Submits use two connections.
//
// Failures never escape as exceptions or silence — every Submit
// resolves its callback with either the server's verbatim
// ResponseFrame bytes or a locally synthesized structured error:
//   * dial failure, send/recv error, peer EOF, fatal framing ->
//     kOverloaded ("the replica is unreachable *right now*" — retryable,
//     and the failure is reported to the connectivity observer so
//     HealthMonitor demotes the replica);
//   * I/O deadline -> kDeadlineExceeded.
//
// The link keeps no reconnect backoff of its own: ResilientClient backs
// off before it returns to a failed link, and HealthMonitor's down gate
// keeps a dead replica out of the route until a probe brings it back.

#ifndef PPGNN_NET_TRANSPORT_TCP_LINK_H_
#define PPGNN_NET_TRANSPORT_TCP_LINK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/cost.h"
#include "net/transport/socket.h"
#include "net/transport/thread_per_item.h"
#include "service/link.h"
#include "service/lsp_service.h"

namespace ppgnn {

struct TcpLinkConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 0.5;
  /// Backstop for one request/response exchange when the request
  /// carries no deadline of its own; a request deadline (plus a small
  /// grace for the server's structured timeout reply) wins when set.
  double io_timeout_seconds = 5.0;
  /// Optional communication-cost sink (logical + framed bytes, both
  /// directions). Recorded under the link's own lock; the tracker may
  /// be shared with other links only if every other writer is also
  /// externally synchronized.
  CostTracker* cost = nullptr;
};

struct TcpLinkStats {
  uint64_t submitted = 0;
  uint64_t answered = 0;        ///< server frames delivered verbatim
  uint64_t dials = 0;
  uint64_t dial_failures = 0;
  uint64_t io_errors = 0;       ///< send/recv/EOF/framing failures
  uint64_t io_timeouts = 0;
  uint64_t pooled_reuses = 0;   ///< exchanges on an already-open conn

  std::string ToString() const;
};

class TcpLink : public ServiceLink {
 public:
  explicit TcpLink(TcpLinkConfig config);
  ~TcpLink() override;

  TcpLink(const TcpLink&) = delete;
  TcpLink& operator=(const TcpLink&) = delete;

  [[nodiscard]] bool Submit(ServiceRequest request,
                            Callback done) override;
  void SetConnectivityObserver(std::function<void(bool)> observer) override;
  /// Reachability probe: reuses a pooled connection when one exists,
  /// otherwise dials (pooling the new connection on success). Never
  /// sends a byte.
  Status Probe(double timeout_seconds) override;
  void Close() override;

  TcpLinkStats Stats() const;

 private:
  /// One Submit, handed to its worker thread.
  struct Exchange {
    ServiceRequest request;
    Callback done;
  };

  /// The whole exchange for one request; runs on a worker thread.
  void RunExchange(ServiceRequest request, Callback done);
  /// Pool checkout (nullptr = empty) / return / registration of the fd
  /// a worker is actively using, so Close() can sever it.
  OwnedFd CheckoutConnection();
  void ReturnConnection(OwnedFd fd);
  void RegisterActive(int fd);
  void UnregisterActive(int fd);
  void NotifyConnectivity(bool up);
  std::vector<uint8_t> SynthesizeError(WireError code, std::string detail);
  void RecordCost(Link link, uint64_t logical, uint64_t framed);

  const TcpLinkConfig config_;

  mutable std::mutex mu_;
  // ppgnn: guarded_by(idle_, mu_)
  std::vector<OwnedFd> idle_;
  // ppgnn: guarded_by(active_fds_, mu_)
  std::vector<int> active_fds_;
  // ppgnn: guarded_by(observer_, mu_)
  std::function<void(bool)> observer_;
  // ppgnn: guarded_by(closed_, mu_)
  bool closed_ = false;
  /// Last connectivity state reported to the observer; notifications are
  /// edge-triggered so HealthMonitor sees transitions, not every call.
  // ppgnn: guarded_by(link_up_, mu_)
  bool link_up_ = true;

  // ppgnn: stat_counter(submitted_, answered_, dials_, dial_failures_)
  // ppgnn: stat_counter(io_errors_, io_timeouts_, pooled_reuses_)
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> dials_{0};
  std::atomic<uint64_t> dial_failures_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> io_timeouts_{0};
  std::atomic<uint64_t> pooled_reuses_{0};

  /// Reaped at each Submit, joined by Close. Last: its threads use every
  /// member above.
  ThreadPerItem<Exchange> workers_;
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_TCP_LINK_H_
