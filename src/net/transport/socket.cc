#include "net/transport/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace ppgnn {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + strerror(errno);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

/// Remaining budget in milliseconds for poll(2): -1 (no timeout) for
/// kNoDeadline, floored at 0 so an expired deadline still gets one
/// non-blocking readiness check.
int PollTimeoutMs(SocketClock::time_point deadline) {
  if (deadline == kNoDeadline) return -1;
  const auto remaining = deadline - SocketClock::now();
  if (remaining <= SocketClock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count();
  // +1 rounds sub-millisecond remainders up; never spin at timeout 0
  // while budget remains.
  return static_cast<int>(std::min<int64_t>(ms + 1, 60'000));
}

/// Polls `fd` for `events` until ready or `deadline`. kDeadlineExceeded
/// on timeout; POLLERR/POLLHUP count as ready (the subsequent
/// read/write surfaces the real error).
Status PollUntil(int fd, short events, SocketClock::time_point deadline) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout_ms = PollTimeoutMs(deadline);
    const int rc = poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      if (SocketClock::now() >= deadline) {
        return Status::DeadlineExceeded("socket deadline exceeded");
      }
      continue;  // sub-ms remainder; poll again
    }
    if (errno == EINTR) continue;
    return Status::Internal(Errno("poll"));
  }
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> TcpListen(uint16_t port, int backlog) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Internal(Errno("socket"));
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Internal(Errno("bind"));
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Status::Internal(Errno("listen"));
  }
  PPGNN_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

Result<uint16_t> ListenPort(int listen_fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) < 0) {
    return Status::Internal(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<OwnedFd> TcpAccept(int listen_fd) {
  for (;;) {
    // A listener shut down by another thread polls POLLHUP, and accept
    // then fails with EINVAL.
    PPGNN_RETURN_IF_ERROR(PollUntil(listen_fd, POLLIN, kNoDeadline));
    OwnedFd conn(::accept(listen_fd, nullptr, nullptr));
    if (conn.valid()) {
      PPGNN_RETURN_IF_ERROR(SetNonBlocking(conn.get()));
      const int one = 1;
      (void)::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
      return conn;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // raced another accepter or the peer gave up; re-poll
    }
    return Status::Internal(Errno("accept"));
  }
}

Result<OwnedFd> TcpConnect(const std::string& host, uint16_t port,
                           double timeout_seconds) {
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }

  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Internal(Errno("socket"));
  PPGNN_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const auto deadline =
      SocketClock::now() + std::chrono::duration_cast<SocketClock::duration>(
                               std::chrono::duration<double>(timeout_seconds));
  const int rc = ::connect(
      fd.get(), reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc < 0) {
    if (errno != EINPROGRESS) return Status::Internal(Errno("connect"));
    PPGNN_RETURN_IF_ERROR(PollUntil(fd.get(), POLLOUT, deadline));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Status::Internal(Errno("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      return Status::Internal(std::string("connect: ") + strerror(err));
    }
  }
  return fd;
}

Status SendAll(int fd, const uint8_t* data, size_t n,
               SocketClock::time_point deadline) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      PPGNN_RETURN_IF_ERROR(PollUntil(fd, POLLOUT, deadline));
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::ProtocolError(Errno("send: peer gone"));
    }
    return Status::Internal(Errno("send"));
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, uint8_t* buf, size_t n,
                        SocketClock::time_point deadline) {
  for (;;) {
    const ssize_t rc = ::recv(fd, buf, n, 0);
    if (rc > 0) return static_cast<size_t>(rc);
    if (rc == 0) return static_cast<size_t>(0);  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      PPGNN_RETURN_IF_ERROR(PollUntil(fd, POLLIN, deadline));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      return Status::ProtocolError(Errno("recv: connection reset"));
    }
    return Status::Internal(Errno("recv"));
  }
}

}  // namespace ppgnn
