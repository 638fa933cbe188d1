// ServiceLink: the seam between the resilience ladder and whatever
// actually answers a request.
//
// ResilientClient (and through it ReplicaSet / the shard coordinator)
// only ever needs three things from its downstream: an asynchronous
// Submit that promises exactly one callback per request, and two
// bookkeeping hooks so client-side recovery activity lands in the same
// stats snapshot as the server counters it caused. LspService satisfies
// the interface in-process; TcpLink (src/net/transport) satisfies it
// over a real socket. Everything above the seam — budgets, hedging,
// failover, health, byte-identical answers — is transport-agnostic by
// construction.
//
// Contract for implementors:
//   * Submit is non-blocking admission. Returns true if the request was
//     taken (the callback will fire later, exactly once, possibly on
//     another thread); on false the callback has ALREADY been invoked
//     inline with a structured error frame. Either way: one request,
//     one callback.
//   * Every delivered buffer is either a decodable wire ResponseFrame
//     or transport garbage the caller's frame decode will classify —
//     a link never invents half-answers.
//   * Close() shuts the link down: by the time it returns, every
//     in-flight Submit callback has fired (a transport link severs its
//     exchanges with structured errors; LspService drains, as
//     Shutdown()). Idempotent.

#ifndef PPGNN_SERVICE_LINK_H_
#define PPGNN_SERVICE_LINK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace ppgnn {

struct ServiceRequest;

class ServiceLink {
 public:
  /// Invoked exactly once per submitted request with the encoded
  /// ResponseFrame (or raw transport bytes on a garbled reply).
  using Callback = std::function<void(std::vector<uint8_t>)>;

  virtual ~ServiceLink() = default;

  /// Non-blocking admission; see the contract above.
  [[nodiscard]] virtual bool Submit(ServiceRequest request,
                                    Callback done) = 0;

  /// Resilience-event hooks: a retrying/hedging client reports its
  /// recovery activity through the link so it shows up next to the
  /// server-side counters it caused. Default: not tracked.
  virtual void RecordClientRetry() {}
  virtual void RecordClientHedge() {}

  /// Registers a connectivity observer: called with false when the link
  /// loses its transport (dial failure, peer reset, I/O timeout) and
  /// true when it re-establishes one. Edge-triggered — implementations
  /// report state *changes*, not every outcome. The owner (ReplicaSet)
  /// feeds the false edges into HealthMonitor so a dead socket demotes
  /// the replica without waiting for a full call to fail. Links with no
  /// transport state (in-process) ignore this.
  virtual void SetConnectivityObserver(
      std::function<void(bool /*up*/)> /*observer*/) {}

  /// Cheap reachability check for the half-open prober: an in-process
  /// link is always reachable (OK); a transport link verifies it can
  /// reach the peer (e.g. reusing or dialing a connection) within the
  /// timeout. Never carries a query.
  virtual Status Probe(double /*timeout_seconds*/) { return Status::OK(); }

  /// Shuts the link down; see the contract above.
  virtual void Close() {}
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_LINK_H_
