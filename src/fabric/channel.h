// The fabric's reliable delivery layer.
//
// Frames can be lost or re-sent: a TCP connection dies mid-frame (the torn
// frame dies with its stream and the worker rejoins on a fresh one), a
// stalled stream delays an ack past the retransmit timeout (the receiver
// then sees a spurious copy), and a frame failing the protocol checksum
// simply vanishes. On top of that, ReliableLink provides exactly-once,
// in-order delivery of data-bearing messages with a stop-and-wait
// protocol: one frame in flight, retransmitted on an ack timeout with
// bounded exponential backoff and deterministic seeded jitter, acknowledged
// by seq. The receiver half is deliberately trivial — deliver-and-ack on
// the expected sequence, re-ack and discard below it — which is what makes
// the whole fabric's ordering argument short: within one direction of one
// channel, message N+1 is never delivered before message N, so a
// checkpoint frame in hand implies every record frame streamed before it
// is in hand too.
//
// ReliableLink is a pure state machine: it never blocks and never touches a
// transport — callers pump poll()/on_ack()/on_reliable() from their own
// event loops (the coordinator multiplexes many links over one inbox; a
// worker drives one link between scan callbacks). Each side of a channel
// owns one link; sender and receiver halves are independent.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "fabric/protocol.h"

namespace xmap::fabric {

// Retransmission schedule: attempt k (0-based) waits
// min(base_ms * 2^k, max_ms) plus a seeded jitter drawn uniformly from
// [0, jitter_ms) and keyed by (seed, seq, attempt) — deterministic for a
// given seed, decorrelated across frames and across links (give each link
// a distinct seed). A frame unacknowledged after max_attempts
// transmissions kills the link: the peer is unreachable.
struct BackoffPolicy {
  double base_ms = 10.0;
  double max_ms = 500.0;
  double jitter_ms = 5.0;
  int max_attempts = 12;
  std::uint64_t seed = 1;

  [[nodiscard]] double delay_ms(std::uint64_t seq, int attempt) const;
};

// Optional protocol-event observer, the tap that feeds the fabric tracer
// and the flight recorder. Callbacks run synchronously on the thread that
// pumps the link; a null observer costs one pointer test per event. The
// `attempt` argument is 0-based (0 = first transmission).
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  // A frame is going on the wire now; `backoff_ms` is the delay before the
  // *next* retransmission would fire.
  virtual void on_frame_send(const Message& msg, int attempt,
                             double backoff_ms) {
    (void)msg; (void)attempt; (void)backoff_ms;
  }
  // The in-flight frame was acknowledged after `attempts` transmissions.
  virtual void on_frame_acked(const Message& msg, int attempts) {
    (void)msg; (void)attempts;
  }
  // The link exhausted max_attempts on `msg` and latched dead.
  virtual void on_link_dead(const Message& msg, int attempts) {
    (void)msg; (void)attempts;
  }
};

class ReliableLink {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ReliableLink(BackoffPolicy policy) : policy_(policy) {}

  // Observer outlives the link; null disables the tap.
  void set_observer(LinkObserver* observer) { observer_ = observer; }

  // ---- sender half ---------------------------------------------------------

  // Queues `msg` for reliable delivery; the link stamps the sequence
  // number. FIFO: frames go out (and are delivered) in enqueue order.
  void enqueue(Message msg);

  // Drives the sender: returns the frames to put on the wire now (a first
  // transmission or a retransmission) and when to call poll() again.
  struct Wire {
    std::vector<std::string> frames;
    std::optional<Clock::time_point> next_deadline;
  };
  [[nodiscard]] Wire poll(Clock::time_point now);

  void on_ack(std::uint64_t seq);

  // True while a frame is in flight or queued behind one.
  [[nodiscard]] bool busy() const { return !pending_.empty(); }
  // The link exhausted max_attempts on a frame: the peer is gone. Latched.
  [[nodiscard]] bool dead() const { return dead_; }
  // Total retransmissions (attempts beyond each frame's first).
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }

  // ---- receiver half -------------------------------------------------------

  // Processes an inbound reliable frame: `ack` is the acknowledgement to
  // send back (always set — duplicates are re-acked, the ack may have been
  // lost), `deliver` is true exactly once per sequence number, in order.
  // Out-of-order-ahead frames (impossible under stop-and-wait unless the
  // peer misbehaves) are dropped un-acked.
  struct Inbound {
    bool deliver = false;
    std::string ack;
  };
  [[nodiscard]] Inbound on_reliable(const Message& msg);

 private:
  struct Pending {
    Message msg;
    std::string frame;  // encoded once, retransmitted verbatim
    int attempts = 0;   // transmissions so far
    Clock::time_point next_at{};  // next (re)transmission time
  };

  BackoffPolicy policy_;
  LinkObserver* observer_ = nullptr;
  std::deque<Pending> pending_;  // front is the in-flight frame
  std::uint64_t next_seq_ = 1;
  std::uint64_t expected_ = 1;  // receiver: next sequence to deliver
  std::uint64_t retransmits_ = 0;
  bool dead_ = false;
};

}  // namespace xmap::fabric
