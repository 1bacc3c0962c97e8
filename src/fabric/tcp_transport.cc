#include "fabric/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "fabric/protocol.h"

namespace xmap::fabric {
namespace {

using Clock = std::chrono::steady_clock;

std::string errno_text(int err) {
  return std::string(strerror(err)) + " (errno " + std::to_string(err) + ")";
}

// Every fabric socket: non-blocking (the I/O loops must never park in the
// kernel), close-on-exec (a forked tool must not inherit fabric fds).
bool prepare_socket(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  const int fdflags = fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    return false;
  }
  return true;
}

void enable_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::uint32_t read_le32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

// The frame's message-type byte (payload offset 0 = frame offset 8), for
// cheap filtering without a full decode.
std::uint8_t frame_type(const std::string& frame) {
  return frame.size() > 8 ? static_cast<std::uint8_t>(frame[8]) : 0;
}

}  // namespace

// ---- address parsing -------------------------------------------------------

bool parse_socket_address(const std::string& address, sockaddr_storage& out,
                          socklen_t& out_len, std::string& error) {
  out = sockaddr_storage{};
  std::string host;
  std::string port_text;
  if (!address.empty() && address[0] == '[') {
    const std::size_t close = address.find(']');
    if (close == std::string::npos || close + 1 >= address.size() ||
        address[close + 1] != ':') {
      error = "fabric: bad address \"" + address + "\" (want [v6]:port)";
      return false;
    }
    host = address.substr(1, close - 1);
    port_text = address.substr(close + 2);
  } else {
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos) {
      error = "fabric: bad address \"" + address + "\" (want host:port)";
      return false;
    }
    host = address.substr(0, colon);
    port_text = address.substr(colon + 1);
  }
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos ||
      port_text.size() > 5) {
    error = "fabric: bad port in \"" + address + "\"";
    return false;
  }
  const unsigned long port = std::stoul(port_text);
  if (port > 65535) {
    error = "fabric: bad port in \"" + address + "\"";
    return false;
  }
  auto* v4 = reinterpret_cast<sockaddr_in*>(&out);
  auto* v6 = reinterpret_cast<sockaddr_in6*>(&out);
  if (inet_pton(AF_INET, host.c_str(), &v4->sin_addr) == 1) {
    v4->sin_family = AF_INET;
    v4->sin_port = htons(static_cast<std::uint16_t>(port));
    out_len = sizeof(sockaddr_in);
    return true;
  }
  if (inet_pton(AF_INET6, host.c_str(), &v6->sin6_addr) == 1) {
    v6->sin6_family = AF_INET6;
    v6->sin6_port = htons(static_cast<std::uint16_t>(port));
    out_len = sizeof(sockaddr_in6);
    return true;
  }
  error = "fabric: bad address \"" + address +
          "\" (numeric IPv4/IPv6 host required)";
  return false;
}

std::string format_socket_address(const sockaddr_storage& ss) {
  char host[INET6_ADDRSTRLEN] = {0};
  if (ss.ss_family == AF_INET) {
    const auto* v4 = reinterpret_cast<const sockaddr_in*>(&ss);
    inet_ntop(AF_INET, &v4->sin_addr, host, sizeof host);
    return std::string(host) + ":" + std::to_string(ntohs(v4->sin_port));
  }
  if (ss.ss_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&ss);
    inet_ntop(AF_INET6, &v6->sin6_addr, host, sizeof host);
    return "[" + std::string(host) + "]:" +
           std::to_string(ntohs(v6->sin6_port));
  }
  return "?";
}

// ---- FrameReassembler ------------------------------------------------------

bool FrameReassembler::feed(std::string_view bytes) {
  if (poisoned_) return false;
  buffer_.append(bytes);
  validate_front();
  return !poisoned_;
}

void FrameReassembler::validate_front() {
  if (poisoned_) return;
  if (buffer_.size() >= 4) {
    const std::uint32_t magic = read_le32(buffer_.data());
    if (magic != kFrameMagic) {
      poisoned_ = true;
      error_ = "fabric stream: bad magic at frame boundary — stream "
               "desynchronized, dropping connection";
      buffer_.clear();
      return;
    }
  }
  if (buffer_.size() >= 8) {
    const std::uint32_t len = read_le32(buffer_.data() + 4);
    if (len > kMaxPayload) {
      poisoned_ = true;
      error_ = "fabric stream: length prefix " + std::to_string(len) +
               " exceeds the " + std::to_string(kMaxPayload) +
               "-byte cap — dropping connection";
      buffer_.clear();
    }
  }
}

std::optional<std::string> FrameReassembler::next() {
  if (poisoned_ || buffer_.size() < 8) return std::nullopt;
  const std::size_t total = kFrameOverhead + read_le32(buffer_.data() + 4);
  if (buffer_.size() < total) return std::nullopt;
  std::string frame = buffer_.substr(0, total);
  buffer_.erase(0, total);
  validate_front();
  return frame;
}

void FrameReassembler::reset() {
  buffer_.clear();
  error_.clear();
  poisoned_ = false;
}

// ---- TcpFabric -------------------------------------------------------------

struct TcpFabric::Conn {
  int fd = -1;
  int worker = -1;  // -1 until the opening kRejoin binds it
  FrameReassembler in;
  std::string out;
  std::uint64_t rx_bytes = 0;  // accumulated while unbound
};

std::unique_ptr<TcpFabric> TcpFabric::create(int workers,
                                             const std::string& listen_address,
                                             std::string& error) {
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (!parse_socket_address(listen_address, addr, addr_len, error)) {
    return nullptr;
  }
  const int fd = socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "fabric: socket() for " + listen_address + " failed: " +
            errno_text(errno);
    return nullptr;
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (!prepare_socket(fd)) {
    error = "fabric: fcntl on listener for " + listen_address + " failed: " +
            errno_text(errno);
    ::close(fd);
    return nullptr;
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    error = "fabric: bind to " + listen_address + " failed: " +
            errno_text(errno);
    ::close(fd);
    return nullptr;
  }
  if (listen(fd, 128) < 0) {
    error = "fabric: listen on " + listen_address + " failed: " +
            errno_text(errno);
    ::close(fd);
    return nullptr;
  }
  auto fabric = std::unique_ptr<TcpFabric>(new TcpFabric());
  fabric->workers_ = workers;
  fabric->listen_fd_ = fd;
  socklen_t bound_len = sizeof fabric->bound_;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&fabric->bound_),
                  &bound_len) < 0) {
    error = "fabric: getsockname on " + listen_address + " failed: " +
            errno_text(errno);
    return nullptr;
  }
  fabric->by_worker_.assign(static_cast<std::size_t>(workers), nullptr);
  fabric->banned_.assign(static_cast<std::size_t>(workers), false);
  fabric->seen_.assign(static_cast<std::size_t>(workers), false);
  fabric->counters_.assign(static_cast<std::size_t>(workers), LinkCounters{});
  return fabric;
}

TcpFabric::~TcpFabric() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::string TcpFabric::bound_address() const {
  return format_socket_address(bound_);
}

std::uint16_t TcpFabric::port() const {
  if (bound_.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&bound_)->sin6_port);
  }
  return ntohs(reinterpret_cast<const sockaddr_in*>(&bound_)->sin_port);
}

int TcpFabric::workers() const { return workers_; }

void TcpFabric::kill_conn(Conn& conn, bool notify) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  if (conn.worker >= 0) {
    if (by_worker_[static_cast<std::size_t>(conn.worker)] == &conn) {
      by_worker_[static_cast<std::size_t>(conn.worker)] = nullptr;
    }
    if (notify) {
      CoordRecv ev;
      ev.status = RecvStatus::kClosed;
      ev.worker = conn.worker;
      ready_.push_back(std::move(ev));
    }
    conn.worker = -1;
  }
}

void TcpFabric::bind_conn(Conn& conn, const std::string& frame) {
  // The opening frame of every connection must be a decodable kRejoin: it
  // is the only way an anonymous stream gets a worker identity. Anything
  // else is a stranger — hang up.
  auto decoded = decode_frame(frame);
  if (!decoded.message || decoded.message->type != MsgType::kRejoin) {
    kill_conn(conn, /*notify=*/false);
    return;
  }
  const std::uint32_t w = decoded.message->worker;
  if (w >= static_cast<std::uint32_t>(workers_) || banned_[w]) {
    kill_conn(conn, /*notify=*/false);
    return;
  }
  if (by_worker_[w] != nullptr && by_worker_[w] != &conn) {
    // A replacement connection supersedes a half-open predecessor the
    // kernel never reported dead; the coordinator sees the old link close
    // before the new link's handshake.
    kill_conn(*by_worker_[w], /*notify=*/true);
  }
  conn.worker = static_cast<int>(w);
  by_worker_[w] = &conn;
  counters_[w].bytes_received += conn.rx_bytes;
  conn.rx_bytes = 0;
  if (seen_[w]) ++counters_[w].reconnects;
  seen_[w] = true;
  CoordRecv ev;
  ev.status = RecvStatus::kFrame;
  ev.worker = static_cast<int>(w);
  ev.frame = frame;
  ready_.push_back(std::move(ev));
}

void TcpFabric::read_conn(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      if (conn.worker >= 0) {
        counters_[static_cast<std::size_t>(conn.worker)].bytes_received +=
            static_cast<std::uint64_t>(n);
      } else {
        conn.rx_bytes += static_cast<std::uint64_t>(n);
      }
      if (!conn.in.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
        // Poisoned stream: no resync is possible. Close; a live worker
        // reconnects with a fresh stream and the handshake.
        kill_conn(conn, /*notify=*/true);
        return;
      }
      while (auto frame = conn.in.next()) {
        if (conn.worker < 0) {
          bind_conn(conn, *frame);
          if (conn.fd < 0) return;  // stranger hung up
        } else {
          CoordRecv ev;
          ev.status = RecvStatus::kFrame;
          ev.worker = conn.worker;
          ev.frame = std::move(*frame);
          ready_.push_back(std::move(ev));
        }
      }
      continue;
    }
    if (n == 0) {  // orderly FIN
      kill_conn(conn, /*notify=*/true);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // ECONNRESET and friends: the peer is gone mid-stream.
    kill_conn(conn, /*notify=*/true);
    return;
  }
}

void TcpFabric::flush_conn(Conn& conn) {
  while (!conn.out.empty()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE here, not kill
    // the process with SIGPIPE.
    const ssize_t n =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      if (conn.worker >= 0) {
        counters_[static_cast<std::size_t>(conn.worker)].bytes_sent +=
            static_cast<std::uint64_t>(n);
      }
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    kill_conn(conn, /*notify=*/true);
    return;
  }
}

void TcpFabric::service_io(int poll_timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  if (listen_fd_ >= 0) {
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  }
  std::vector<Conn*> polled;
  for (auto& conn : conns_) {
    if (conn->fd < 0) continue;
    short events = POLLIN;
    if (!conn->out.empty()) events |= POLLOUT;
    fds.push_back(pollfd{conn->fd, events, 0});
    polled.push_back(conn.get());
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), poll_timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return;
  std::size_t i = 0;
  if (listen_fd_ >= 0) {
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!prepare_socket(fd)) {
          ::close(fd);
          continue;
        }
        int one = 1;
        (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        enable_nodelay(fd);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conns_.push_back(std::move(conn));
      }
    }
    i = 1;
  }
  for (std::size_t c = 0; c < polled.size(); ++c, ++i) {
    Conn& conn = *polled[c];
    if (conn.fd < 0) continue;  // killed by an earlier event this pass
    const short re = fds[i].revents;
    if ((re & POLLOUT) != 0) flush_conn(conn);
    if (conn.fd >= 0 && (re & (POLLIN | POLLHUP | POLLERR)) != 0) {
      read_conn(conn);
    }
  }
  // Reap connections whose fd died; pointers into conns_ are only held
  // within one service_io pass.
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->fd < 0;
                              }),
               conns_.end());
}

TcpFabric::CoordRecv TcpFabric::recv_any(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!ready_.empty()) {
      CoordRecv out = std::move(ready_.front());
      ready_.pop_front();
      return out;
    }
    const auto now = Clock::now();
    if (now >= deadline) return {};
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    service_io(static_cast<int>(std::max<long long>(remaining, 1)));
  }
}

bool TcpFabric::send_to(int worker, std::string frame) {
  if (closed_all_ || worker < 0 || worker >= workers_) return false;
  if (banned_[static_cast<std::size_t>(worker)]) return false;
  Conn* conn = by_worker_[static_cast<std::size_t>(worker)];
  if (conn == nullptr) {
    // Disconnected but not fenced: the frame is dropped; the reliable
    // channel retransmits onto the rejoined stream.
    return true;
  }
  conn->out.append(frame);
  flush_conn(*conn);
  return true;
}

void TcpFabric::drop_worker(int worker) {
  if (worker < 0 || worker >= workers_) return;
  banned_[static_cast<std::size_t>(worker)] = true;
  Conn* conn = by_worker_[static_cast<std::size_t>(worker)];
  if (conn == nullptr) return;
  // Best-effort flush so a queued kRejoinRefused reaches the zombie before
  // the hangup — its diagnostic is the worker's only explanation.
  const auto deadline = Clock::now() + std::chrono::milliseconds(200);
  while (!conn->out.empty() && conn->fd >= 0 && Clock::now() < deadline) {
    pollfd pfd{conn->fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 10) > 0) flush_conn(*conn);
  }
  kill_conn(*conn, /*notify=*/false);
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->fd < 0;
                              }),
               conns_.end());
}

void TcpFabric::close_all() {
  closed_all_ = true;
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  for (auto& conn : conns_) {
    while (!conn->out.empty() && conn->fd >= 0 && Clock::now() < deadline) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 10) > 0) flush_conn(*conn);
    }
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  conns_.clear();
  std::fill(by_worker_.begin(), by_worker_.end(), nullptr);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

LinkCounters TcpFabric::link_counters(int worker) const {
  if (worker < 0 || worker >= workers_) return {};
  return counters_[static_cast<std::size_t>(worker)];
}

// ---- TcpWorkerTransport ----------------------------------------------------

TcpWorkerTransport::TcpWorkerTransport(TcpWorkerOptions options)
    : opt_(std::move(options)) {}

std::unique_ptr<TcpWorkerTransport> TcpWorkerTransport::create(
    TcpWorkerOptions options, std::string& error) {
  auto transport =
      std::unique_ptr<TcpWorkerTransport>(new TcpWorkerTransport(options));
  if (!parse_socket_address(transport->opt_.connect_address, transport->addr_,
                            transport->addr_len_, error)) {
    return nullptr;
  }
  std::lock_guard lock{transport->mu_};
  if (!transport->connect_locked(error)) return nullptr;
  return transport;
}

TcpWorkerTransport::~TcpWorkerTransport() {
  std::lock_guard lock{mu_};
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpWorkerTransport::connect_locked(std::string& error) {
  const int fd = socket(addr_.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "fabric: socket() for " + opt_.connect_address + " failed: " +
            errno_text(errno);
    return false;
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (!prepare_socket(fd)) {
    error = "fabric: fcntl for " + opt_.connect_address + " failed: " +
            errno_text(errno);
    ::close(fd);
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr_), addr_len_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, opt_.connect_timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      error = "fabric: connect to " + opt_.connect_address +
              " timed out after " + std::to_string(opt_.connect_timeout_ms) +
              "ms";
      ::close(fd);
      return false;
    }
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (rc < 0 ||
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
        soerr != 0) {
      error = "fabric: connect to " + opt_.connect_address + " failed: " +
              errno_text(soerr != 0 ? soerr : errno);
      ::close(fd);
      return false;
    }
  } else if (rc < 0) {
    error = "fabric: connect to " + opt_.connect_address + " failed: " +
            errno_text(errno);
    ::close(fd);
    return false;
  }
  enable_nodelay(fd);
  fd_ = fd;
  in_.reset();
  out_.clear();
  queue_rejoin_locked();
  flush_locked();
  return true;
}

void TcpWorkerTransport::queue_rejoin_locked() {
  Message rejoin;
  rejoin.type = MsgType::kRejoin;
  rejoin.worker = static_cast<std::uint32_t>(opt_.worker);
  rejoin.fingerprint = opt_.fingerprint;
  rejoin.has_lease = lease_held_;
  rejoin.shard = lease_shard_;
  rejoin.epoch = lease_epoch_;
  out_.append(encode_frame(rejoin));
}

void TcpWorkerTransport::disconnect_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // A partially-written frame must not leak onto the next stream — the
  // rejoined stream starts at a frame boundary; the reliable channel
  // re-sends whole frames.
  out_.clear();
  in_.reset();
  const auto now = Clock::now();
  if (window_rearmed_) {
    down_since_ = now;
    window_rearmed_ = false;
  }
  next_attempt_ = now + std::chrono::milliseconds(opt_.reconnect_delay_ms);
  if (opt_.reconnect_window_ms <= 0) closed_ = true;
}

void TcpWorkerTransport::ensure_connected_locked() {
  if (fd_ >= 0 || closed_ || refused_) return;
  const auto now = Clock::now();
  if (now - down_since_ >
      std::chrono::milliseconds(opt_.reconnect_window_ms)) {
    closed_ = true;
    return;
  }
  if (now < next_attempt_) return;
  std::string error;
  if (!connect_locked(error)) {
    next_attempt_ =
        Clock::now() + std::chrono::milliseconds(opt_.reconnect_delay_ms);
  }
}

void TcpWorkerTransport::flush_locked() {
  while (fd_ >= 0 && !out_.empty()) {
    const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    disconnect_locked();
    return;
  }
}

void TcpWorkerTransport::pump_in_locked() {
  char buf[65536];
  while (fd_ >= 0) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      if (!in_.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
        disconnect_locked();
        return;
      }
      while (auto frame = in_.next()) {
        const std::uint8_t type = frame_type(*frame);
        if (type == static_cast<std::uint8_t>(MsgType::kRejoinOk)) {
          // Handshake settled: the next drop opens a fresh reconnect
          // window. Nothing for the layers above.
          window_rearmed_ = true;
          continue;
        }
        if (type == static_cast<std::uint8_t>(MsgType::kRejoinRefused)) {
          auto decoded = decode_frame(*frame);
          refusal_ = decoded.message ? decoded.message->diagnostic
                                     : "rejoin refused";
          refused_ = true;
          if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
          }
          return;
        }
        pending_.push_back(std::move(*frame));
      }
      continue;
    }
    if (n == 0) {
      disconnect_locked();
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    disconnect_locked();
    return;
  }
}

bool TcpWorkerTransport::send(std::string frame) {
  std::lock_guard lock{mu_};
  if (closed_ || refused_) return false;
  if (fd_ < 0) {
    ensure_connected_locked();
    if (closed_ || refused_) return false;
    if (fd_ < 0) {
      // Disconnected inside the reconnect window: the frame is dropped;
      // heartbeats are unreliable by contract and the stop-and-wait
      // channel retransmits everything else after the rejoin.
      return true;
    }
  }
  out_.append(frame);
  flush_locked();
  return true;
}

Transport::RecvResult TcpWorkerTransport::recv(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int fd = -1;
    bool want_out = false;
    {
      std::lock_guard lock{mu_};
      if (!pending_.empty()) {
        RecvResult out;
        out.status = RecvStatus::kFrame;
        out.frame = std::move(pending_.front());
        pending_.pop_front();
        return out;
      }
      if (closed_ || refused_) return {RecvStatus::kClosed, {}};
      ensure_connected_locked();
      if (closed_ || refused_) return {RecvStatus::kClosed, {}};
      fd = fd_;
      want_out = !out_.empty();
    }
    const auto now = Clock::now();
    if (now >= deadline) return {};
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    // Short unlocked slices on an fd snapshot: a concurrent send() or
    // close() is never starved, and a stale snapshot costs one harmless
    // 5ms poll before the re-check.
    const long long remaining_ms = std::max<long long>(remaining, 1);
    const int slice = static_cast<int>(std::min<long long>(remaining_ms, 5));
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<long long>(remaining_ms, 2)));
      continue;
    }
    pollfd pfd{fd, static_cast<short>(POLLIN | (want_out ? POLLOUT : 0)), 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, slice);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) continue;
    std::lock_guard lock{mu_};
    if (fd_ != fd) continue;
    if ((pfd.revents & POLLOUT) != 0) flush_locked();
    if (fd_ == fd && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      pump_in_locked();
    }
  }
}

void TcpWorkerTransport::close() {
  std::lock_guard lock{mu_};
  if (closed_) return;
  closed_ = true;
  if (fd_ < 0) return;
  // Drain queued frames (final acks, a Refuse) briefly, then hang up.
  const auto deadline = Clock::now() + std::chrono::milliseconds(200);
  while (!out_.empty() && fd_ >= 0 && Clock::now() < deadline) {
    pollfd pfd{fd_, POLLOUT, 0};
    if (::poll(&pfd, 1, 10) > 0) flush_locked();
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpWorkerTransport::note_lease(std::uint32_t shard, std::uint32_t epoch,
                                    bool held) {
  std::lock_guard lock{mu_};
  lease_shard_ = shard;
  lease_epoch_ = epoch;
  lease_held_ = held;
}

std::string TcpWorkerTransport::refusal() const {
  std::lock_guard lock{mu_};
  return refusal_;
}

}  // namespace xmap::fabric
