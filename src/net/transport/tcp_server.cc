#include "net/transport/tcp_server.h"

#include <sys/socket.h>

#include <sstream>
#include <utility>

#include "core/wire.h"
#include "net/transport/frame.h"

namespace ppgnn {

std::string TcpServerStats::ToString() const {
  std::ostringstream os;
  os << "tcp_server: accepted=" << connections_accepted
     << " closed=" << connections_closed << " served=" << frames_served
     << " malformed=" << malformed_envelopes
     << " fatal_framing=" << fatal_framing
     << " stalled=" << stalled_connections
     << " resynced_bytes=" << resynced_bytes
     << " send_failures=" << send_failures;
  return os.str();
}

TcpShardServer::TcpShardServer(LspService& service, TcpServerConfig config)
    : service_(service), config_(config) {}

TcpShardServer::~TcpShardServer() { Shutdown(); }

Status TcpShardServer::Start() {
  PPGNN_ASSIGN_OR_RETURN(listen_fd_, TcpListen(config_.port));
  PPGNN_ASSIGN_OR_RETURN(port_, ListenPort(listen_fd_.get()));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpShardServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<OwnedFd> conn_fd = TcpAccept(listen_fd_.get());
    if (!conn_fd.ok()) continue;  // Shutdown's wake or an accept error
    conns_.Reap();
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(conn_fd).value();
    // A connection started after Shutdown set stop_ sees it at once;
    // Shutdown joins this loop before it joins the connections.
    conns_.Spawn(std::move(conn),
                 [this](Connection& c) { ServeConnection(&c); });
  }
}

void TcpShardServer::ServeConnection(Connection* conn) {
  FrameReader reader;
  std::vector<uint8_t> chunk(64 * 1024);
  auto last_progress = SocketClock::now();
  const auto stall_budget = std::chrono::duration_cast<SocketClock::duration>(
      std::chrono::duration<double>(config_.read_timeout_seconds));

  while (!stop_.load(std::memory_order_acquire)) {
    TransportFrame frame;
    const auto pr = reader.Poll(&frame);
    if (pr == FrameReader::PollResult::kFatal) {
      fatal_framing_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (pr == FrameReader::PollResult::kFrame) {
      if (frame.type == FrameType::kRequest) {
        if (!HandleRequestFrame(conn, frame.payload)) break;
      }
      // A kResponse from a client is nonsense; drop it and read on.
      last_progress = SocketClock::now();
      continue;
    }

    // kNeedMore: an idle connection waits for data, EOF or Shutdown's
    // wake; a half-read frame only until the stall guard's deadline.
    const Deadline deadline =
        reader.buffered() > 0 ? last_progress + stall_budget : kNoDeadline;
    Result<size_t> got =
        RecvSome(conn->fd.get(), chunk.data(), chunk.size(), deadline);
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kDeadlineExceeded) {
        stalled_connections_.fetch_add(1, std::memory_order_relaxed);
      }
      break;  // stalled mid-frame, reset or hard error
    }
    if (got.value() == 0) break;  // orderly EOF
    reader.Feed(chunk.data(), got.value());
    last_progress = SocketClock::now();
  }

  resynced_bytes_.fetch_add(reader.resynced_bytes(),
                            std::memory_order_relaxed);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  // Half-close our side now; the fd itself is closed when the accept
  // loop (at its next accept) or Shutdown reaps this thread.
  (void)::shutdown(conn->fd.get(), SHUT_RDWR);
}

bool TcpShardServer::HandleRequestFrame(Connection* conn,
                                        const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> reply;
  Result<TransportRequest> envelope = TransportRequest::Decode(payload);
  if (!envelope.ok()) {
    malformed_envelopes_.fetch_add(1, std::memory_order_relaxed);
    ErrorMessage err;
    err.code = WireError::kMalformed;
    err.detail = "transport envelope: " + envelope.status().message();
    reply = ResponseFrame::WrapError(err);
  } else {
    TransportRequest req = std::move(envelope).value();
    ServiceRequest sr;
    sr.query = std::move(req.query);
    sr.uploads = std::move(req.uploads);
    sr.deadline_seconds = static_cast<double>(req.deadline_ms) / 1000.0;
    sr.idempotency_key = req.idempotency_key;
    sr.degraded_users = req.degraded_users;
    // Blocking: one request at a time per connection. The service's own
    // worker pool governs actual execution concurrency.
    reply = service_.Call(std::move(sr));
    frames_served_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<uint8_t> framed =
      EncodeTransportFrame(FrameType::kResponse, reply);
  const auto deadline =
      SocketClock::now() +
      std::chrono::duration_cast<SocketClock::duration>(
          std::chrono::duration<double>(config_.write_timeout_seconds));
  Status sent = SendAll(conn->fd.get(), framed.data(), framed.size(), deadline);
  if (!sent.ok()) {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

TcpServerStats TcpShardServer::Stats() const {
  TcpServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_served = frames_served_.load(std::memory_order_relaxed);
  s.malformed_envelopes = malformed_envelopes_.load(std::memory_order_relaxed);
  s.fatal_framing = fatal_framing_.load(std::memory_order_relaxed);
  s.stalled_connections =
      stalled_connections_.load(std::memory_order_relaxed);
  s.resynced_bytes = resynced_bytes_.load(std::memory_order_relaxed);
  s.send_failures = send_failures_.load(std::memory_order_relaxed);
  return s;
}

void TcpShardServer::Shutdown(double drain_deadline_seconds) {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;  // idempotent
  // Wake the accept loop: a shut-down listener fails its blocked accept.
  if (listen_fd_.valid()) (void)::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain the wrapped service first: in-flight Calls complete (or flush
  // with kShuttingDown) and their replies still go out on live sockets.
  service_.Shutdown(drain_deadline_seconds);

  // Wake any reader blocked in poll; EOF ends its loop.
  conns_.JoinAll(
      [](Connection& c) { (void)::shutdown(c.fd.get(), SHUT_RDWR); });
  listen_fd_.Reset();
}

}  // namespace ppgnn
