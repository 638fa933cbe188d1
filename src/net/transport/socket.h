// Thin POSIX socket helpers with poll-based deadlines.
//
// Everything here is blocking-with-a-deadline: the fd is non-blocking
// under the hood and every wait goes through poll(2) against an
// absolute steady_clock deadline, so a stalled peer costs exactly the
// budget the caller granted. A wait given kNoDeadline blocks until its
// own event: data, EOF, or a shutdown(2) of the fd by another thread,
// which is how an owner wakes it. Writes use
// MSG_NOSIGNAL so a peer that vanished mid-write surfaces as EPIPE (a
// Status) instead of killing the process with SIGPIPE.
//
// Loopback-oriented by design: hosts are numeric IPv4 strings (the
// shard fleet this transport serves addresses replicas by address, not
// name), which keeps DNS — a blocking call with no deadline — out of
// the dial path.

#ifndef PPGNN_NET_TRANSPORT_SOCKET_H_
#define PPGNN_NET_TRANSPORT_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/deadline.h"
#include "common/status.h"

namespace ppgnn {

/// RAII file descriptor. Move-only; closes on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

using SocketClock = std::chrono::steady_clock;

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port; read it back with ListenPort). SO_REUSEADDR set.
Result<OwnedFd> TcpListen(uint16_t port, int backlog = 64);

/// The local port a listening fd is bound to.
Result<uint16_t> ListenPort(int listen_fd);

/// Accepts one connection, waiting until a peer connects. A shutdown(2)
/// of the listener by another thread wakes the wait and fails the call.
Result<OwnedFd> TcpAccept(int listen_fd);

/// Connects to a numeric IPv4 host:port within `timeout_seconds`
/// (non-blocking connect + poll). The returned fd stays non-blocking.
Result<OwnedFd> TcpConnect(const std::string& host, uint16_t port,
                           double timeout_seconds);

/// Writes all `n` bytes before `deadline`. MSG_NOSIGNAL; EPIPE and
/// timeouts come back as Status (kProtocolError / kDeadlineExceeded).
Status SendAll(int fd, const uint8_t* data, size_t n,
               SocketClock::time_point deadline);

/// Reads up to `n` bytes before `deadline`. Returns the count read;
/// 0 means orderly EOF. kDeadlineExceeded when nothing arrived in time.
Result<size_t> RecvSome(int fd, uint8_t* buf, size_t n,
                        SocketClock::time_point deadline);

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_SOCKET_H_
