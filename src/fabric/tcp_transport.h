// Socket transport for the scan fabric: real TCP behind the same
// Transport / FabricPlane interfaces the loopback implements.
//
// Framing over a stream: the wire carries length-prefixed XFB1 frames
// (protocol.h) mapped 1:1 onto the byte stream — no extra envelope. The
// receiver cannot trust the kernel to hand frames back whole, so every
// connection owns a FrameReassembler: an incremental parser that validates
// the magic and the length bound *before* buffering a frame's body, and
// latches poisoned on the first hostile header — a stream whose length
// prefix lies cannot be resynchronized, so the only safe move is to drop
// the connection and let the reconnect handshake start a fresh stream.
//
// Reconnect-with-epoch handshake: every connection (initial join and every
// reconnect) opens with an unreliable kRejoin frame carrying the worker's
// id, its config fingerprint, and the lease it believes it holds
// (shard, epoch). The coordinator binds the anonymous connection to the
// worker id, then either answers kRejoinOk (identity and fingerprint check
// out, the lease — if claimed — is still that worker's current epoch) or
// kRejoinRefused with a diagnostic (zombie after a heartbeat timeout,
// fingerprint mismatch, stale epoch) and fences the worker at the
// transport layer. The handshake is asynchronous by design: workers are
// constructed before the coordinator loop runs, so blocking on kRejoinOk
// at connect time would deadlock. Link state needs no explicit replay —
// the stop-and-wait channel retransmits the one unacked frame onto the new
// stream and the receiver's expected-seq check dedups.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/transport.h"

namespace xmap::fabric {

// Parses "a.b.c.d:port" or "[v6]:port" into a socket address. False (with
// a diagnostic naming the address) on anything else — the fabric does not
// resolve names; deployment addresses are numeric.
[[nodiscard]] bool parse_socket_address(const std::string& address,
                                        sockaddr_storage& out,
                                        socklen_t& out_len,
                                        std::string& error);

// "a.b.c.d:port" / "[v6]:port" for a bound or peer address.
[[nodiscard]] std::string format_socket_address(const sockaddr_storage& ss);

// Incremental stream -> frame parser. feed() appends raw received bytes;
// next() pops complete frames (verbatim, ready for decode_frame). The
// header of the frame at the front of the buffer is validated as soon as
// its bytes exist: bad magic or a length above kMaxPayload poisons the
// stream permanently — by construction the buffer never holds more than
// one maximum frame plus one read chunk, so a hostile length prefix can
// never drive allocation. Checksum/type/body validation stays with
// decode_frame; this class only finds the frame boundaries.
class FrameReassembler {
 public:
  // False once the stream is poisoned (the bytes are discarded).
  bool feed(std::string_view bytes);

  // The next complete frame, or nullopt (need more bytes, or poisoned).
  [[nodiscard]] std::optional<std::string> next();

  [[nodiscard]] bool poisoned() const { return poisoned_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  // Forgets everything, including a poisoned verdict — for reuse on a
  // fresh connection.
  void reset();

 private:
  void validate_front();

  std::string buffer_;
  std::string error_;
  bool poisoned_ = false;
};

// The coordinator's side of a TCP fabric: one listening socket, worker
// connections bound to ids by their opening kRejoin frame. Single-threaded
// by contract — recv_any / send_to / drop_worker / close_all are all
// called from the coordinator loop; the only concurrency is the kernel's.
// All sockets are non-blocking, close-on-exec, and SO_REUSEADDR; I/O runs
// inside recv_any via poll(2), handling partial reads, short writes,
// EAGAIN, EINTR, and ECONNRESET. Peers that vanish surface as kClosed;
// death stays the heartbeat timeout's call (reconnectable() is true).
class TcpFabric final : public FabricPlane {
 public:
  // Binds and listens on `listen_address` (port 0 picks an ephemeral port;
  // bound_address()/port() report the choice). Null on failure, with a
  // diagnostic naming the address and errno.
  static std::unique_ptr<TcpFabric> create(int workers,
                                           const std::string& listen_address,
                                           std::string& error);
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  [[nodiscard]] std::string bound_address() const;
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] int workers() const override;
  [[nodiscard]] CoordRecv recv_any(int timeout_ms) override;
  // True while the worker is merely disconnected (the frame is dropped;
  // the reliable channel's retransmission schedule covers the gap); false
  // only once the worker is fenced or the fabric is shut down.
  bool send_to(int worker, std::string frame) override;
  void close_all() override;
  [[nodiscard]] bool reconnectable() const override { return true; }
  void drop_worker(int worker) override;
  [[nodiscard]] LinkCounters link_counters(int worker) const override;

 private:
  TcpFabric() = default;
  struct Conn;
  void service_io(int poll_timeout_ms);
  void flush_conn(Conn& conn);
  void read_conn(Conn& conn);
  void bind_conn(Conn& conn, const std::string& frame);
  void kill_conn(Conn& conn, bool notify);

  int workers_ = 0;
  int listen_fd_ = -1;
  sockaddr_storage bound_{};
  bool closed_all_ = false;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Conn*> by_worker_;       // live bound connection or null
  std::vector<bool> banned_;           // drop_worker fences
  std::vector<bool> seen_;             // first kRejoin consumed (join)
  std::vector<LinkCounters> counters_;
  std::deque<CoordRecv> ready_;
};

struct TcpWorkerOptions {
  std::string connect_address;  // numeric "host:port" of the coordinator
  int worker = 0;
  std::uint64_t fingerprint = 0;  // stamped into every kRejoin
  int connect_timeout_ms = 2000;
  // After a socket death the transport reconnects transparently: attempts
  // every reconnect_delay_ms until reconnect_window_ms has passed since
  // the first drop after the last accepted handshake (kRejoinOk, or
  // creation), then latches closed. A connect that drops before its
  // kRejoinOk does not restart the window — a relay that accepts and then
  // fails upstream cannot keep the worker reconnecting forever. 0 window =
  // no reconnects.
  int reconnect_window_ms = 1500;
  int reconnect_delay_ms = 10;
};

// The worker's side: one connection to the coordinator, reconnected
// transparently inside send()/recv() when the socket dies. Every
// connection opens with a kRejoin frame (see file comment); inbound
// kRejoinOk is swallowed, kRejoinRefused latches a permanent failure whose
// diagnostic refusal() reports — recv then returns kClosed. Thread-safe
// per the Transport contract: send()/close() from any thread concurrently
// with one recv()er; all socket state sits under one mutex, and recv polls
// in short unlocked slices on an fd snapshot so a reconnecting or sending
// peer thread is never starved.
class TcpWorkerTransport final : public Transport {
 public:
  // Connects (bounded by connect_timeout_ms) and sends the opening
  // kRejoin. Null on failure, with a diagnostic naming address and errno.
  static std::unique_ptr<TcpWorkerTransport> create(TcpWorkerOptions options,
                                                    std::string& error);
  ~TcpWorkerTransport() override;

  bool send(std::string frame) override;
  RecvResult recv(int timeout_ms) override;
  void close() override;
  void note_lease(std::uint32_t shard, std::uint32_t epoch,
                  bool held) override;

  // Non-empty once the coordinator refused a rejoin; the permanent-failure
  // diagnostic.
  [[nodiscard]] std::string refusal() const;

 private:
  explicit TcpWorkerTransport(TcpWorkerOptions options);
  using Clock = std::chrono::steady_clock;
  bool connect_locked(std::string& error);
  void disconnect_locked();
  void ensure_connected_locked();
  void pump_in_locked();
  void flush_locked();
  void queue_rejoin_locked();

  mutable std::mutex mu_;
  TcpWorkerOptions opt_;
  sockaddr_storage addr_{};
  socklen_t addr_len_ = 0;
  int fd_ = -1;
  bool closed_ = false;
  bool refused_ = false;
  std::string refusal_;
  FrameReassembler in_;
  std::string out_;
  std::deque<std::string> pending_;
  std::uint32_t lease_shard_ = 0;
  std::uint32_t lease_epoch_ = 0;
  bool lease_held_ = false;
  // True until the first drop after creation or after a kRejoinOk: that
  // drop opens the reconnect window (down_since_); later drops before the
  // next kRejoinOk leave it running.
  bool window_rearmed_ = true;
  Clock::time_point down_since_{};
  Clock::time_point next_attempt_{};
};

}  // namespace xmap::fabric
