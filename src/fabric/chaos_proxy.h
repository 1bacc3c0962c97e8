// Deterministic chaos socket proxy: a real TCP relay with seeded fault
// injection — the fabric's only transport-fault substrate (the loopback is
// pristine). Tests point a worker's connect address at the proxy and the proxy
// at the coordinator; every byte then crosses two real sockets, and the
// proxy perturbs the stream in ways only a socket transport can observe:
//
//   * mid-frame connection cuts — the proxy parses XFB1 frame boundaries
//     on the worker->coordinator stream and severs both legs a configured
//     number of bytes *into* a frame, so the receiver holds a torn frame
//     when the connection dies;
//   * byte-level stalls — seeded per-chunk delivery delays;
//   * split / coalesced segments — forwarding in tiny segments, or holding
//     bytes until a minimum batch, so receivers see partial reads and
//     multi-frame reads;
//   * one-direction blackholes — after a byte threshold one direction
//     silently discards forever, the half-open peer the heartbeat timeout
//     exists to catch.
//
// Every fault decision is a pure function of (seed, connection index,
// direction, chunk index) — reruns see the same chaos. The proxy runs one
// background thread; stop() (or the destructor) joins it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace xmap::fabric {

struct ChaosProxyOptions {
  std::string upstream;     // coordinator address, numeric "host:port"
  std::uint64_t seed = 1;

  // Cut: sever proxied connection `cut_connection` (0-based accept order)
  // once `cut_after_frames` complete worker->coordinator frames plus
  // `cut_frame_bytes` bytes of the next frame have been relayed upstream
  // (cut_frame_bytes >= 1 keeps the cut strictly mid-frame). -1 = never.
  int cut_connection = -1;
  std::uint64_t cut_after_frames = 0;
  std::uint64_t cut_frame_bytes = 3;

  // Split: forward in segments of at most this many bytes (0 = off).
  std::size_t split_max_bytes = 0;

  // Coalesce: hold a direction's bytes until at least this many are
  // buffered or coalesce_hold_ms has passed (0 = off) — receivers then see
  // several frames per read instead of one.
  std::size_t coalesce_min_bytes = 0;
  int coalesce_hold_ms = 5;

  // Stall: with this per-chunk probability (seeded), delay the chunk's
  // delivery by stall_ms.
  double stall_probability = 0;
  int stall_ms = 0;

  // Blackhole: on connection `blackhole_connection`, after
  // `blackhole_after_bytes` relayed in the chosen direction, silently
  // discard that direction forever. -1 = never.
  int blackhole_connection = -1;
  bool blackhole_up = true;  // worker->coordinator; false = coordinator->worker
  std::uint64_t blackhole_after_bytes = 0;
};

class ChaosProxy {
 public:
  // Listens on 127.0.0.1 port 0 (address() reports the choice) and starts
  // the relay thread. Null on failure with a diagnostic naming address and
  // errno.
  static std::unique_ptr<ChaosProxy> create(ChaosProxyOptions options,
                                            std::string& error);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  [[nodiscard]] std::string address() const;
  [[nodiscard]] std::uint16_t port() const;

  // Stops relaying and joins the thread; idempotent.
  void stop();

  // Fault/traffic accounting (safe after stop(), approximate while live).
  [[nodiscard]] std::uint64_t connections() const;
  [[nodiscard]] std::uint64_t cuts() const;
  [[nodiscard]] std::uint64_t stalls() const;
  [[nodiscard]] std::uint64_t blackholed_bytes() const;
  [[nodiscard]] std::uint64_t relayed_bytes() const;

 private:
  ChaosProxy() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xmap::fabric
