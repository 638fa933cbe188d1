#include "net/transport/chaos_proxy.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

namespace ppgnn {
namespace {

/// One pump-side write budget. Generous: the proxy only ever talks
/// loopback, and a genuinely wedged peer is severed by Shutdown.
constexpr double kWriteTimeoutSeconds = 5.0;

SocketClock::time_point DeadlineAfter(double seconds) {
  return SocketClock::now() + std::chrono::duration_cast<SocketClock::duration>(
                                  std::chrono::duration<double>(seconds));
}

bool ParseUint(const std::string& value, uint64_t* out) {
  if (value.empty()) return false;
  uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = parsed;
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

}  // namespace

const char* ChaosActionToString(ChaosAction action) {
  switch (action) {
    case ChaosAction::kDelay:
      return "delay";
    case ChaosAction::kDrop:
      return "drop";
    case ChaosAction::kRst:
      return "rst";
    case ChaosAction::kBlackhole:
      return "blackhole";
    case ChaosAction::kSplit:
      return "split";
  }
  return "unknown";
}

Result<ChaosRule> ParseChaosRule(const std::string& spec) {
  ChaosRule rule;
  std::istringstream in(spec);
  std::string word;
  bool have_action = false;
  while (in >> word) {
    std::string key = word;
    std::string value;
    const size_t eq = word.find('=');
    if (eq != std::string::npos) {
      key = word.substr(0, eq);
      value = word.substr(eq + 1);
    }
    if (!have_action) {
      have_action = true;
      if (key == "delay") {
        rule.action = ChaosAction::kDelay;
        if (!value.empty() && !ParseDouble(value, &rule.delay_seconds)) {
          return Status::InvalidArgument("chaos rule: bad delay: " + spec);
        }
        if (rule.delay_seconds < 0.0) {
          return Status::InvalidArgument("chaos rule: negative delay: " + spec);
        }
        continue;
      }
      if (key == "drop" || key == "rst" || key == "blackhole") {
        rule.action = key == "drop"    ? ChaosAction::kDrop
                      : key == "rst"   ? ChaosAction::kRst
                                       : ChaosAction::kBlackhole;
        if (!value.empty() && !ParseUint(value, &rule.after_bytes)) {
          return Status::InvalidArgument("chaos rule: bad byte count: " + spec);
        }
        continue;
      }
      if (key == "split") {
        rule.action = ChaosAction::kSplit;
        if (!value.empty() && !ParseUint(value, &rule.split_bytes)) {
          return Status::InvalidArgument("chaos rule: bad split: " + spec);
        }
        if (rule.split_bytes == 0) {
          return Status::InvalidArgument("chaos rule: split must be >= 1");
        }
        continue;
      }
      return Status::InvalidArgument("chaos rule: unknown action: " + key);
    }
    // Trailing key=value trigger / parameter clauses.
    if (key == "after" && ParseUint(value, &rule.after_bytes)) continue;
    if (key == "skip" && ParseUint(value, &rule.skip)) continue;
    if (key == "times" && ParseUint(value, &rule.times)) continue;
    if (key == "every" && ParseUint(value, &rule.every)) {
      if (rule.every == 0) {
        return Status::InvalidArgument("chaos rule: every must be >= 1");
      }
      continue;
    }
    if (key == "p" && ParseDouble(value, &rule.probability)) {
      if (rule.probability < 0.0 || rule.probability > 1.0) {
        return Status::InvalidArgument("chaos rule: p outside [0, 1]");
      }
      continue;
    }
    return Status::InvalidArgument("chaos rule: unknown clause: " + word);
  }
  if (!have_action) {
    return Status::InvalidArgument("chaos rule: empty spec");
  }
  return rule;
}

std::string ChaosProxyStats::ToString() const {
  std::ostringstream os;
  os << "chaos_proxy: connections=" << connections
     << " clean=" << clean_connections << " delays=" << delays
     << " drops=" << drops << " rsts=" << rsts
     << " blackholes=" << blackholes << " splits=" << splits
     << " forwarded=" << bytes_forwarded << "B swallowed=" << bytes_swallowed
     << "B";
  return os.str();
}

ChaosProxy::ChaosProxy(Config config)
    : config_(std::move(config)),
      // ppgnn-lint: allow(guarded-by): constructor has exclusive access
      rng_(config_.seed),
      // ppgnn-lint: allow(guarded-by): constructor has exclusive access
      rule_hits_(config_.rules.size(), 0),
      // ppgnn-lint: allow(guarded-by): constructor has exclusive access
      rule_fired_(config_.rules.size(), 0) {}

ChaosProxy::~ChaosProxy() { Shutdown(); }

Status ChaosProxy::Start() {
  PPGNN_ASSIGN_OR_RETURN(listen_fd_, TcpListen(config_.listen_port));
  PPGNN_ASSIGN_OR_RETURN(port_, ListenPort(listen_fd_.get()));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

ChaosProxy::Plan ChaosProxy::DrawPlan() {
  std::lock_guard<std::mutex> lock(mu_);
  Plan plan;
  for (size_t i = 0; i < config_.rules.size(); ++i) {
    const ChaosRule& rule = config_.rules[i];
    const uint64_t hit = rule_hits_[i]++;
    if (hit < rule.skip) continue;
    if ((hit - rule.skip) % rule.every != 0) continue;
    if (rule.times > 0 && rule_fired_[i] >= rule.times) continue;
    // The Bernoulli draw is consumed only when the deterministic gates
    // pass, so the RNG stream is a pure function of the schedule.
    if (rule.probability < 1.0 && !rng_.NextBernoulli(rule.probability))
      continue;
    rule_fired_[i]++;
    switch (rule.action) {
      case ChaosAction::kDelay:
        plan.delay = true;
        plan.delay_seconds = rule.delay_seconds;
        delays_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ChaosAction::kSplit:
        plan.split = true;
        plan.split_bytes = std::max<uint64_t>(rule.split_bytes, 1);
        splits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ChaosAction::kDrop:
      case ChaosAction::kRst:
      case ChaosAction::kBlackhole:
        if (plan.cut) break;  // first armed cut wins
        plan.cut = true;
        plan.cut_action = rule.action;
        plan.cut_after_bytes = rule.after_bytes;
        (rule.action == ChaosAction::kDrop  ? drops_
         : rule.action == ChaosAction::kRst ? rsts_
                                            : blackholes_)
            .fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  return plan;
}

void ChaosProxy::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<OwnedFd> accepted = TcpAccept(listen_fd_.get());
    if (!accepted.ok()) continue;  // Shutdown's wake or an accept error
    sessions_.Reap();
    connections_.fetch_add(1, std::memory_order_relaxed);
    Result<OwnedFd> dialed =
        TcpConnect(config_.upstream_host, config_.upstream_port,
                   config_.connect_timeout_seconds);
    if (!dialed.ok()) continue;  // dropping `accepted` closes it
    auto session = std::make_unique<Session>();
    // ppgnn-lint: allow(guarded-by): session not yet visible to any thread
    session->client = std::move(accepted).value();
    // ppgnn-lint: allow(guarded-by): session not yet visible to any thread
    session->upstream = std::move(dialed).value();
    session->plan = DrawPlan();
    if (!session->plan.delay && !session->plan.cut && !session->plan.split) {
      clean_connections_.fetch_add(1, std::memory_order_relaxed);
    }
    // A session started after Shutdown set stop_ sees it at once;
    // Shutdown joins this loop before it joins the sessions.
    sessions_.Spawn(std::move(session),
                    [this](Session& s) { PumpSession(&s); });
  }
}

void ChaosProxy::HardReset(OwnedFd* fd) {
  if (!fd->valid()) return;
  struct linger lin;
  lin.l_onoff = 1;
  lin.l_linger = 0;
  (void)::setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  fd->Reset();  // close with linger(0) => RST, not FIN
}

void ChaosProxy::PumpSession(Session* session) {
  const Plan& plan = session->plan;
  std::vector<uint8_t> buf(16 * 1024);
  // Per-direction forwarded-byte counters for the cut threshold.
  uint64_t forwarded[2] = {0, 0};
  bool swallowing = false;

  // Forward `n` bytes to `to`, honoring delay/split. False = peer gone.
  auto forward = [&](int to, const uint8_t* data, size_t n) {
    if (plan.delay && plan.delay_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(plan.delay_seconds));
    }
    size_t off = 0;
    while (off < n) {
      const size_t chunk =
          plan.split ? std::min<size_t>(plan.split_bytes, n - off) : n - off;
      const Status sent = SendAll(to, data + off, chunk,
                                  DeadlineAfter(kWriteTimeoutSeconds));
      if (!sent.ok()) return false;
      off += chunk;
      // A yield between split writes encourages the kernel to deliver
      // each chunk as its own segment (partial reads on the peer).
      if (plan.split && off < n) std::this_thread::yield();
    }
    bytes_forwarded_.fetch_add(n, std::memory_order_relaxed);
    return true;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    int fds[2];
    {
      std::lock_guard<std::mutex> lock(session->fd_mu);
      fds[0] = session->client.get();
      fds[1] = session->upstream.get();
    }
    if (fds[0] < 0 || fds[1] < 0) break;

    struct pollfd pfds[2];
    for (int i = 0; i < 2; ++i) {
      pfds[i].fd = fds[i];
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
    // No timeout: data, EOF, a reset or Shutdown's shutdown(2) ends it.
    const int rc = ::poll(pfds, 2, /*timeout=*/-1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    bool finished = false;
    for (int i = 0; i < 2 && !finished; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const ssize_t got = ::recv(fds[i], buf.data(), buf.size(), 0);
      if (got == 0) {
        finished = true;  // orderly EOF from either side: tear down both
        break;
      }
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue;
        finished = true;
        break;
      }
      size_t n = static_cast<size_t>(got);
      if (swallowing) {
        bytes_swallowed_.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      if (plan.cut) {
        const uint64_t budget = plan.cut_after_bytes - std::min<uint64_t>(
                                    plan.cut_after_bytes, forwarded[i]);
        if (n >= budget) {
          // Forward the allowance, then bite.
          if (budget > 0 && !forward(fds[1 - i], buf.data(), budget)) {
            finished = true;
            break;
          }
          forwarded[i] += budget;
          if (plan.cut_action == ChaosAction::kBlackhole) {
            // Keep the connection open; swallow everything from now on.
            bytes_swallowed_.fetch_add(n - budget, std::memory_order_relaxed);
            swallowing = true;
            continue;
          }
          std::lock_guard<std::mutex> lock(session->fd_mu);
          if (plan.cut_action == ChaosAction::kRst) {
            HardReset(&session->client);
            HardReset(&session->upstream);
          } else {
            session->client.Reset();
            session->upstream.Reset();
          }
          finished = true;
          break;
        }
      }
      if (!forward(fds[1 - i], buf.data(), n)) {
        finished = true;
        break;
      }
      forwarded[i] += n;
    }
    if (finished) break;
  }

  std::lock_guard<std::mutex> lock(session->fd_mu);
  // Orderly teardown for every exit path that did not already reset.
  if (session->client.valid()) (void)::shutdown(session->client.get(), SHUT_RDWR);
  if (session->upstream.valid())
    (void)::shutdown(session->upstream.get(), SHUT_RDWR);
}

ChaosProxyStats ChaosProxy::Stats() const {
  ChaosProxyStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.clean_connections = clean_connections_.load(std::memory_order_relaxed);
  s.delays = delays_.load(std::memory_order_relaxed);
  s.drops = drops_.load(std::memory_order_relaxed);
  s.rsts = rsts_.load(std::memory_order_relaxed);
  s.blackholes = blackholes_.load(std::memory_order_relaxed);
  s.splits = splits_.load(std::memory_order_relaxed);
  s.bytes_forwarded = bytes_forwarded_.load(std::memory_order_relaxed);
  s.bytes_swallowed = bytes_swallowed_.load(std::memory_order_relaxed);
  return s;
}

void ChaosProxy::Shutdown() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;  // idempotent
  // Wake the accept loop: a shut-down listener fails its blocked accept.
  if (listen_fd_.valid()) (void)::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wake a pump blocked in poll; its loop exits on the stop flag.
  sessions_.JoinAll([](Session& session) {
    std::lock_guard<std::mutex> lock(session.fd_mu);
    if (session.client.valid())
      (void)::shutdown(session.client.get(), SHUT_RDWR);
    if (session.upstream.valid())
      (void)::shutdown(session.upstream.get(), SHUT_RDWR);
  });
  listen_fd_.Reset();
}

}  // namespace ppgnn
