#include "net/transport/tcp_link.h"

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/wire.h"
#include "net/transport/frame.h"

namespace ppgnn {

namespace {

/// Grace past the request's own deadline for the server's structured
/// kDeadlineExceeded reply to arrive before we cut the exchange.
constexpr double kDeadlineGraceSeconds = 0.25;

SocketClock::time_point DeadlineAfter(double seconds) {
  return SocketClock::now() + std::chrono::duration_cast<SocketClock::duration>(
                                  std::chrono::duration<double>(seconds));
}

}  // namespace

std::string TcpLinkStats::ToString() const {
  std::ostringstream os;
  os << "tcp_link: submitted=" << submitted << " answered=" << answered
     << " dials=" << dials << " dial_failures=" << dial_failures
     << " io_errors=" << io_errors
     << " io_timeouts=" << io_timeouts << " pooled_reuses=" << pooled_reuses;
  return os.str();
}

TcpLink::TcpLink(TcpLinkConfig config) : config_(std::move(config)) {}

TcpLink::~TcpLink() { Close(); }

bool TcpLink::Submit(ServiceRequest request, Callback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  workers_.Reap();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_) {
      workers_.Spawn(
          std::make_unique<Exchange>(
              Exchange{std::move(request), std::move(done)}),
          [this](Exchange& e) {
            RunExchange(std::move(e.request), std::move(e.done));
          });
      return true;
    }
  }
  // Inline structured reject (outside the lock), mirroring LspService's
  // Submit contract.
  done(SynthesizeError(WireError::kShuttingDown, "tcp link closed"));
  return false;
}

Status TcpLink::Probe(double timeout_seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("tcp link closed");
    if (!idle_.empty()) return Status::OK();  // a live pooled connection
  }
  dials_.fetch_add(1, std::memory_order_relaxed);
  Result<OwnedFd> dialed =
      TcpConnect(config_.host, config_.port, timeout_seconds);
  if (!dialed.ok()) {
    dial_failures_.fetch_add(1, std::memory_order_relaxed);
    NotifyConnectivity(false);
    return dialed.status();
  }
  ReturnConnection(std::move(dialed).value());
  NotifyConnectivity(true);
  return Status::OK();
}

void TcpLink::RunExchange(ServiceRequest request, Callback done) {
  OwnedFd conn = CheckoutConnection();
  bool reused = conn.valid();
  if (reused) {
    pooled_reuses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dials_.fetch_add(1, std::memory_order_relaxed);
    Result<OwnedFd> dialed = TcpConnect(config_.host, config_.port,
                                        config_.connect_timeout_seconds);
    if (!dialed.ok()) {
      dial_failures_.fetch_add(1, std::memory_order_relaxed);
      NotifyConnectivity(false);
      done(SynthesizeError(WireError::kOverloaded,
                           "dial failed: " + dialed.status().message()));
      return;
    }
    conn = std::move(dialed).value();
  }
  RegisterActive(conn.get());

  // Encode the envelope and push it out.
  TransportRequest env;
  env.query = std::move(request.query);
  env.uploads = std::move(request.uploads);
  // Capped at the wire ceiling, which the server's envelope decoder
  // enforces, before rounding.
  env.deadline_ms =
      request.deadline_seconds > 0.0
          ? static_cast<uint64_t>(std::llround(
                std::min(request.deadline_seconds * 1000.0,
                         static_cast<double>(kMaxWireMillis))))
          : 0;
  env.idempotency_key = request.idempotency_key;
  env.degraded_users = request.degraded_users;
  const std::vector<uint8_t> payload = env.Encode();
  const std::vector<uint8_t> framed =
      EncodeTransportFrame(FrameType::kRequest, payload);

  const double exchange_budget =
      request.deadline_seconds > 0.0
          ? request.deadline_seconds + kDeadlineGraceSeconds
          : config_.io_timeout_seconds;
  const auto deadline = DeadlineAfter(exchange_budget);

  auto fail = [&](WireError code, const std::string& detail,
                  std::atomic<uint64_t>& counter) {
    // ppgnn-lint: allow(atomics-discipline): aliases a tagged stat counter
    counter.fetch_add(1, std::memory_order_relaxed);
    UnregisterActive(conn.get());
    conn.Reset();  // a connection in an unknown state is never pooled
    NotifyConnectivity(false);
    done(SynthesizeError(code, detail));
  };

  Status sent = SendAll(conn.get(), framed.data(), framed.size(), deadline);
  if (!sent.ok()) {
    if (sent.code() == StatusCode::kDeadlineExceeded) {
      fail(WireError::kDeadlineExceeded, "send timed out", io_timeouts_);
    } else {
      fail(WireError::kOverloaded, "send failed: " + sent.message(),
           io_errors_);
    }
    return;
  }
  RecordCost(Link::kUserToLsp, payload.size(), framed.size());

  // Read until one response frame (tolerating resync) or failure.
  FrameReader reader;
  std::vector<uint8_t> chunk(64 * 1024);
  for (;;) {
    TransportFrame frame;
    const auto pr = reader.Poll(&frame);
    if (pr == FrameReader::PollResult::kFatal) {
      fail(WireError::kOverloaded,
           "fatal framing: " + reader.fatal_reason(), io_errors_);
      return;
    }
    if (pr == FrameReader::PollResult::kFrame) {
      if (frame.type != FrameType::kResponse) continue;  // nonsense; skip
      RecordCost(Link::kLspToUser, frame.payload.size(),
                 FramedWireSize(frame.payload.size()));
      UnregisterActive(conn.get());
      ReturnConnection(std::move(conn));
      NotifyConnectivity(true);
      answered_.fetch_add(1, std::memory_order_relaxed);
      // Verbatim delivery: whatever ResponseFrame the server sent is
      // what the caller decodes — including transport garbage, which
      // ResilientClient classifies itself.
      done(std::move(frame.payload));
      return;
    }
    Result<size_t> got =
        RecvSome(conn.get(), chunk.data(), chunk.size(), deadline);
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kDeadlineExceeded) {
        fail(WireError::kDeadlineExceeded, "reply timed out", io_timeouts_);
      } else {
        fail(WireError::kOverloaded, "recv failed: " + got.status().message(),
             io_errors_);
      }
      return;
    }
    if (got.value() == 0) {
      fail(WireError::kOverloaded, "peer closed mid-exchange", io_errors_);
      return;
    }
    reader.Feed(chunk.data(), got.value());
  }
}

OwnedFd TcpLink::CheckoutConnection() {
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.empty()) return OwnedFd();
  OwnedFd fd = std::move(idle_.back());
  idle_.pop_back();
  return fd;
}

void TcpLink::ReturnConnection(OwnedFd fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;  // dropping closes it
  idle_.push_back(std::move(fd));
}

void TcpLink::RegisterActive(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  active_fds_.push_back(fd);
}

void TcpLink::UnregisterActive(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  active_fds_.erase(std::remove(active_fds_.begin(), active_fds_.end(), fd),
                    active_fds_.end());
}

void TcpLink::SetConnectivityObserver(std::function<void(bool)> observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

void TcpLink::NotifyConnectivity(bool up) {
  std::function<void(bool)> observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (link_up_ == up) return;  // edge-triggered
    link_up_ = up;
    observer = observer_;
  }
  if (observer) observer(up);
}

std::vector<uint8_t> TcpLink::SynthesizeError(WireError code,
                                              std::string detail) {
  ErrorMessage err;
  err.code = code;
  err.detail = std::move(detail);
  return ResponseFrame::WrapError(err);
}

void TcpLink::RecordCost(Link link, uint64_t logical, uint64_t framed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.cost != nullptr) {
    config_.cost->RecordFramedSend(link, logical, framed);
  }
}

void TcpLink::Close() {
  std::vector<OwnedFd> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    observer_ = nullptr;
    idle.swap(idle_);
    // Sever in-flight exchanges: their blocked reads wake with EOF and
    // resolve their callbacks with structured errors.
    for (int fd : active_fds_) (void)::shutdown(fd, SHUT_RDWR);
  }
  idle.clear();  // closes pooled fds
  // Idempotent; no Submit starts a worker once closed_ is set.
  workers_.JoinAll();
}

TcpLinkStats TcpLink::Stats() const {
  TcpLinkStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.answered = answered_.load(std::memory_order_relaxed);
  s.dials = dials_.load(std::memory_order_relaxed);
  s.dial_failures = dial_failures_.load(std::memory_order_relaxed);
  s.io_errors = io_errors_.load(std::memory_order_relaxed);
  s.io_timeouts = io_timeouts_.load(std::memory_order_relaxed);
  s.pooled_reuses = pooled_reuses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ppgnn
