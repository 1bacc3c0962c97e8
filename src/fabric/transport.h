// Message transports for the scan fabric.
//
// The coordinator and its workers exchange whole frames over a Transport —
// an abstract, bidirectional, FIFO-per-direction byte-message channel with
// TCP-like close semantics (pending frames drain, then the peer observes
// the close). The fabric's state machines depend only on this interface:
// the in-process LoopbackFabric below and the socket transport
// (tcp_transport.h) both implement it.
//
// The loopback is pristine — no loss, duplication, truncation or delay.
// Transport faults live on real sockets only: the chaos proxy
// (chaos_proxy.h) cuts, splits, coalesces, stalls and blackholes a TCP
// byte stream, which is the only place mid-frame cuts, rejoins and
// half-open peers exist.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace xmap::fabric {

enum class RecvStatus : std::uint8_t {
  kFrame,    // a frame was delivered
  kTimeout,  // nothing arrived within the deadline
  kClosed,   // peer closed; all pending frames already drained
};

// One endpoint of a bidirectional frame channel. send() never blocks on the
// peer (the loopback queues are unbounded; a socket transport would write
// to a kernel buffer); recv() blocks up to `timeout_ms`. Thread-safety:
// send() and close() may be called from any thread concurrently with one
// recv()er — the worker's heartbeat thread sends while its main thread
// receives.
class Transport {
 public:
  struct RecvResult {
    RecvStatus status = RecvStatus::kTimeout;
    std::string frame;
  };

  virtual ~Transport() = default;
  // False when the channel is already closed (frame dropped).
  virtual bool send(std::string frame) = 0;
  virtual RecvResult recv(int timeout_ms) = 0;
  // Closes both directions; the peer drains pending frames, then sees
  // kClosed. Idempotent.
  virtual void close() = 0;
  // The worker informs its transport of the lease it currently holds so a
  // reconnect handshake can claim it (has_lease in the Rejoin frame). The
  // loopback has no reconnects, so the default does nothing.
  virtual void note_lease(std::uint32_t shard, std::uint32_t epoch,
                          bool held) {
    (void)shard;
    (void)epoch;
    (void)held;
  }
};

// Per-link traffic counters a plane may expose (zeros for transports that
// do not track them). Reconnects are handshakes accepted after the initial
// join.
struct LinkCounters {
  std::uint64_t bytes_sent = 0;      // coordinator -> worker
  std::uint64_t bytes_received = 0;  // worker -> coordinator
  std::uint64_t reconnects = 0;
};

// The coordinator's side of an N-worker fabric: one shared inbox fed by
// every worker (frames tagged with the sender), plus per-worker outboxes.
// The coordinator loop depends only on this interface; LoopbackFabric and
// TcpFabric (tcp_transport.h) implement it.
class FabricPlane {
 public:
  struct CoordRecv {
    RecvStatus status = RecvStatus::kTimeout;
    int worker = -1;       // sender (kFrame) or closer (kClosed)
    std::string frame;
  };

  virtual ~FabricPlane() = default;

  [[nodiscard]] virtual int workers() const = 0;

  // Receives the next frame from any worker; kClosed results identify
  // which worker hung up (each delivered exactly once, after its pending
  // frames).
  [[nodiscard]] virtual CoordRecv recv_any(int timeout_ms) = 0;

  // Sends to one worker; false when that worker's channel is closed.
  virtual bool send_to(int worker, std::string frame) = 0;

  // Closes the coordinator->worker direction of every channel (workers
  // drain and then see kClosed).
  virtual void close_all() = 0;

  // True when a kClosed from a worker may be followed by a rejoin (socket
  // transports). The coordinator then leaves death detection to the
  // heartbeat timeout instead of failing the worker on hangup.
  [[nodiscard]] virtual bool reconnectable() const { return false; }

  // Permanently fences a worker at the transport layer: its connection (if
  // any) is dropped and future rejoin attempts are refused. No-op on
  // transports without reconnects.
  virtual void drop_worker(int worker) { (void)worker; }

  [[nodiscard]] virtual LinkCounters link_counters(int worker) const {
    (void)worker;
    return {};
  }
};

// The in-process substrate: frames move through unbounded FIFO mailboxes,
// untouched. Worker threads obtain their Transport via worker_endpoint().
class LoopbackFabric final : public FabricPlane {
 public:
  explicit LoopbackFabric(int workers);
  ~LoopbackFabric() override;

  LoopbackFabric(const LoopbackFabric&) = delete;
  LoopbackFabric& operator=(const LoopbackFabric&) = delete;

  [[nodiscard]] int workers() const override;

  // The worker-side endpoint (valid for the fabric's lifetime).
  [[nodiscard]] Transport* worker_endpoint(int worker);

  [[nodiscard]] CoordRecv recv_any(int timeout_ms) override;

  bool send_to(int worker, std::string frame) override;

  void close_all() override;

  struct Impl;  // opaque; public so the .cc's endpoint class can name it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xmap::fabric
