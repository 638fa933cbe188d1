// TcpShardServer: the listening side of the shard/replica hop.
//
// Wraps one LspService behind a loopback TCP listener: an accept loop
// hands each connection to its own reader thread, which parses
// transport frames (net/transport/frame.h), decodes the request
// envelope, runs the service's full admission/queue/deadline pipeline
// via the blocking Call(), and writes the reply ResponseFrame back
// verbatim inside a response frame. One connection serves one request
// at a time — concurrency is connections, which is exactly how the
// client side (TcpLink's per-request pooled connections) drives it.
//
// Every wait here ends on its own event; no thread wakes on a timer.
// The accept loop blocks until a peer connects or Shutdown shuts the
// listener down. A reader blocks until data, EOF or Shutdown's wake
// (a shutdown(2) of its socket), with a deadline only while a frame is
// half read. A connection's thread ends when its peer hangs up (or on
// any of the failures below); the accept loop reaps it at its next
// accept, closing its fd, and Shutdown reaps the rest.
//
// Failure containment, per connection:
//   * Envelope that fails to decode -> a structured kMalformed
//     ResponseFrame reply (the peer learns *why*; the connection
//     survives — it was a well-framed bad request, not desync).
//   * Framing resync (garbage before magic) -> counted, tolerated.
//   * Fatal framing (oversized length) / send failure / peer EOF or
//     reset / mid-frame stall past read_timeout -> the connection is
//     closed. The client redials; nobody else is affected.
//
// Shutdown(drain) reuses LspService::Shutdown's bounded drain — queued
// requests are answered (or flushed with kShuttingDown) and every
// reply still goes out on its socket — then severs remaining
// connections and joins all threads.

#ifndef PPGNN_NET_TRANSPORT_TCP_SERVER_H_
#define PPGNN_NET_TRANSPORT_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/transport/socket.h"
#include "net/transport/thread_per_item.h"
#include "service/lsp_service.h"

namespace ppgnn {

struct TcpServerConfig {
  /// 0 = kernel-assigned ephemeral port; read it back with port().
  uint16_t port = 0;
  /// A peer that goes silent *mid-frame* for longer than this is cut
  /// (slow-loris guard). Idle connections with no partial frame are
  /// never timed out.
  double read_timeout_seconds = 10.0;
  /// Budget for writing one reply frame.
  double write_timeout_seconds = 5.0;
};

struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_served = 0;        ///< request frames answered
  uint64_t malformed_envelopes = 0;  ///< well-framed but undecodable
  uint64_t fatal_framing = 0;        ///< connections killed by kFatal
  uint64_t stalled_connections = 0;  ///< cut by the mid-frame stall guard
  uint64_t resynced_bytes = 0;       ///< garbage skipped before magic
  uint64_t send_failures = 0;

  std::string ToString() const;
};

class TcpShardServer {
 public:
  /// The service must outlive the server. Shutdown(drain) drains it.
  TcpShardServer(LspService& service, TcpServerConfig config);
  ~TcpShardServer();

  TcpShardServer(const TcpShardServer&) = delete;
  TcpShardServer& operator=(const TcpShardServer&) = delete;

  /// Binds, listens, and starts the accept loop. Call once.
  [[nodiscard]] Status Start();

  /// The bound port (valid after Start; resolves config.port == 0).
  uint16_t port() const { return port_; }

  TcpServerStats Stats() const;

  /// Shuts the listener down (waking the accept loop), drains the wrapped
  /// service (bounded by `drain_deadline_seconds`, 0 = unbounded), severs
  /// remaining connections, joins all threads. Idempotent; the destructor
  /// calls it.
  void Shutdown(double drain_deadline_seconds = 0.0);

 private:
  struct Connection {
    OwnedFd fd;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Decodes and answers one request frame. False = stop serving this
  /// connection (send failed).
  bool HandleRequestFrame(Connection* conn,
                          const std::vector<uint8_t>& payload);

  LspService& service_;
  const TcpServerConfig config_;
  OwnedFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  // ppgnn: stat_counter(connections_accepted_, connections_closed_)
  // ppgnn: stat_counter(frames_served_, malformed_envelopes_)
  // ppgnn: stat_counter(fatal_framing_, stalled_connections_)
  // ppgnn: stat_counter(resynced_bytes_, send_failures_)
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> malformed_envelopes_{0};
  std::atomic<uint64_t> fatal_framing_{0};
  std::atomic<uint64_t> stalled_connections_{0};
  std::atomic<uint64_t> resynced_bytes_{0};
  std::atomic<uint64_t> send_failures_{0};

  /// One reader thread per accepted connection. Last: its threads use
  /// every member above.
  ThreadPerItem<Connection> conns_;
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_TCP_SERVER_H_
