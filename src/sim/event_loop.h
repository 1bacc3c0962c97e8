// Discrete-event simulation core.
//
// A single-threaded event loop with a virtual clock in nanoseconds. All
// substrate behaviour (link latency, serialization delay, scanner send
// pacing, service response times) is expressed as scheduled events, which
// makes every experiment fully deterministic for a given seed.
//
// One ordering rule: every event carries a key (when, seq), its timestamp
// and a number from one loop-wide counter, and dispatches in key order, so
// equal timestamps run FIFO. Events are fixed-size POD records dispatched
// through a handler table (sim::Network owns the built-in kinds: node
// timers and link-channel drains); there are no closures.
//
// Trains. A handler may process a run of sub-items in one dispatch (a
// channel's queued packets, a scanner's probe block). Each item reserves
// its seq when created (reserve_seqs), the one its own event would have
// taken. An exact-order train takes its next item only while that key
// precedes the queue head (before_head), which reproduces per-item
// dispatch tie for tie; a free-running train, used only when nothing
// observes processing order, runs on to the bulk horizon. A train that
// stops re-arms under its next item's key.
//
// The queue is a timing wheel, not a heap. Scan pacing generates a dense
// stream of near-future timestamps (sends one gap apart, deliveries one
// link latency ahead), for which a binary heap pays O(log n) pointer-heavy
// sifts per operation on every schedule and pop. Here an event lands in a
// 4096-slot wheel of 1.024 us ticks with one store and a bitmap bit; pops
// walk the bitmap. Only the slot under the cursor is ordered — as a small
// binary heap, so out-of-order appends into it (train re-arms) cost
// O(log slot) instead of a re-sort. Far-future events (cooldown expiry,
// spaced retransmit blocks, flap epochs) overflow into a small min-heap,
// and they re-enter the wheel wholesale as the window slides over them.
// The wheel/heap equivalence property test pins pop order to (when, seq).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "netbase/compiler.h"
#include "netbase/pool.h"

namespace xmap::sim {

// Simulated time in nanoseconds since the start of the run.
using SimTime = std::uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

// "No such time": later than every schedulable timestamp.
inline constexpr SimTime kNeverTime = ~SimTime{0};

// Typed event kinds, dispatched through the handler table (see
// EventLoop::register_handler). sim::Network registers the two built-in
// kinds; kinds from kEventFirstFree up are free for a caller's own handler
// (tests, benches).
enum : std::uint32_t {
  kEventTimer = 0,         // sim::Network: Node::on_timer, a = node, b = tag
  kEventChannelDrain = 1,  // sim::Network: link-channel train, a = channel
  kEventFirstFree = 2,
  kEventKindCount = 8,
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  // Typed-event dispatch target: (ctx, event timestamp, payload a, b).
  using Handler = void (*)(void* ctx, SimTime when, std::uint64_t a,
                           std::uint64_t b);
  void register_handler(std::uint32_t kind, void* ctx, Handler fn) {
    assert(kind < kEventKindCount);
    handlers_[kind] = {ctx, fn};
  }

  // Schedules a typed POD event keyed (when, next seq) — no allocation
  // beyond the wheel slot itself.
  void schedule_event(SimTime when, std::uint32_t kind, std::uint64_t a,
                      std::uint64_t b) {
    schedule_reserved(when, next_seq_++, kind, a, b);
  }

  // Hands out `n` consecutive seqs (returns the first) without scheduling
  // anything: a train item takes its seq when it is created, and its
  // train is later (re-)armed under that key with schedule_reserved.
  [[nodiscard]] std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  // Schedules a typed event under a seq obtained from reserve_seqs.
  void schedule_reserved(SimTime when, std::uint64_t seq, std::uint32_t kind,
                         std::uint64_t a, std::uint64_t b) {
    if (XMAP_UNLIKELY(when < now_)) {
      // A past timestamp is a latent determinism bug in the caller (the
      // event would run at a load-dependent time, not the intended one):
      // trap in debug builds, clamp-and-count in release so production
      // runs degrade exactly as the old silent-clamp behaviour did —
      // except now the sim_events_clamped_total counter makes it visible.
      assert(when >= now_ &&
             "EventLoop: event scheduled in the past (latent determinism "
             "bug in the caller)");
      ++clamped_;
      if (clamp_cell_ != nullptr) ++*clamp_cell_;
      when = now_;
    }
    push_record(Record{when, seq, a, b, kind, 0});
  }

  // True when key (when, seq) sorts before every queued event (or the
  // queue is empty): an exact-order train may take that item now and
  // dispatch exactly where the item's own event would have.
  [[nodiscard]] bool before_head(SimTime when, std::uint64_t seq) {
    if (!head_known_) find_head();
    return precedes_head(when, seq);
  }

  // Events scheduled into the past since construction (release builds
  // clamp them to now; debug builds assert). Wired to the
  // sim_events_clamped_total counter by Network::set_obs.
  [[nodiscard]] std::uint64_t clamped() const { return clamped_; }
  void set_clamp_cell(std::uint64_t* cell) { clamp_cell_ = cell; }

  // ---- Train contract -----------------------------------------------------
  //
  // A train handler (channel drain, scan block sweep) processes sub-items
  // inside one popped event, advancing the clock to each item's
  // precomputed analytic stamp via set_time(). It must not process items
  // stamped beyond bulk_horizon(): run_until() lowers the horizon to its
  // deadline so a train straddling the deadline re-arms itself instead of
  // overshooting. After a free-running train the loop clock may be ahead
  // of the next queued event; the next pop simply rewinds it. Causality is
  // preserved because every stamp carried by a train is a pure function of
  // the schedule, never of processing order.
  [[nodiscard]] SimTime bulk_horizon() const { return bulk_horizon_; }
  void set_time(SimTime t) {
    assert(t <= bulk_horizon_);
    now_ = t;
  }

  // Runs one event; returns false when the queue is empty.
  bool step() {
    if (!prepare(~std::uint64_t{0})) return false;
    pop_dispatch();
    return true;
  }

  // Runs until the queue is empty or `max_events` have been processed.
  void run(std::uint64_t max_events = ~std::uint64_t{0}) {
    std::uint64_t budget = max_events;
    while (budget-- > 0 && step()) {
    }
  }

  // Runs events with timestamps <= `deadline`; the clock ends at `deadline`
  // if the queue drains or only later events remain. Trains stop at the
  // deadline too (see bulk_horizon above).
  void run_until(SimTime deadline) {
    const SimTime saved_horizon = bulk_horizon_;
    bulk_horizon_ = deadline;
    const std::uint64_t deadline_tick = deadline >> kSlotShift;
    while (prepare(deadline_tick)) {
      const net::PoolVector<Record>& v = slots_[cur_tick_ & kSlotMask];
      if (v.front().when > deadline) break;
      pop_dispatch();
    }
    bulk_horizon_ = saved_horizon;
    if (now_ < deadline) now_ = deadline;
  }

 private:
  // One scheduled event: fixed-size, trivially copyable, 40 bytes. The
  // wheel and the overflow heap move these with plain stores — no
  // user-code relocation ever runs during queue maintenance.
  struct Record {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint64_t a;    // payload word
    std::uint64_t b;    // payload word
    std::uint32_t kind;
    std::uint32_t pad_;
  };
  struct LaterRec {
    bool operator()(const Record& x, const Record& y) const {
      if (x.when != y.when) return x.when > y.when;
      return x.seq > y.seq;
    }
  };

  // 4096 slots of 2^10 ns: a ~4.19 ms look-ahead window, covering link
  // latencies and paced send gaps. Events beyond it wait in the overflow
  // heap and are swept into the wheel as the window slides.
  static constexpr int kSlotShift = 10;
  static constexpr int kSlotBits = 12;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kSlotMask = kSlots - 1;

  void push_record(const Record& r) {
    const std::uint64_t tick = r.when >> kSlotShift;
    // tick >= cur_tick_ holds because when >= now_ and the cursor never
    // rests past the earliest queued event (run_until parks it at the
    // deadline tick, below every event it skipped).
    if (tick - cur_tick_ < kSlots) {
      push_slot(r, tick);
    } else {
      overflow_.push(r);
    }
    ++live_;
    if (head_known_ && precedes_head(r.when, r.seq)) {
      head_when_ = r.when;
      head_seq_ = r.seq;
    }
  }

  void push_slot(const Record& r, std::uint64_t tick) {
    net::PoolVector<Record>& v = slots_[tick & kSlotMask];
    v.push_back(r);
    // Future slots take plain O(1) appends and are heapified only when the
    // cursor reaches them. The current slot is already a heap while being
    // drained, so appends there (drain re-arms, block resumes) sift in at
    // O(log n) — dense same-slot churn never triggers a full re-sort.
    if (tick == cur_tick_ && cur_heaped_) {
      std::push_heap(v.begin(), v.end(), LaterRec{});
    }
    bitmap_[(tick & kSlotMask) >> 6] |= std::uint64_t{1}
                                        << ((tick & kSlotMask) & 63);
  }

  // Distance (1..kSlots-1) to the next nonempty slot after the cursor, or
  // 0 when the wheel holds nothing beyond the current slot. The window is
  // exactly kSlots wide, so circular order equals timestamp order.
  [[nodiscard]] std::uint32_t next_bit_distance() const {
    const std::uint32_t cur = static_cast<std::uint32_t>(cur_tick_) & kSlotMask;
    for (std::uint32_t probed = 1; probed <= kSlotMask;) {
      const std::uint32_t pos = (cur + probed) & kSlotMask;
      const std::uint32_t word = pos >> 6;
      std::uint64_t bits = bitmap_[word] >> (pos & 63);
      if (bits != 0) {
        const auto d =
            probed + static_cast<std::uint32_t>(std::countr_zero(bits));
        if (d <= kSlotMask) return d;
        return 0;
      }
      probed += 64 - (pos & 63);
    }
    return 0;
  }

  // Positions the cursor on the next due record, heapifying its slot and
  // sweeping overflow events that the sliding window now covers. Stops
  // (returning false) when the queue is empty or the next record's tick is
  // beyond `max_tick` — in which case the cursor parks at max_tick so later
  // schedules can never land behind it.
  bool prepare(std::uint64_t max_tick) {
    for (;;) {
      net::PoolVector<Record>& v = slots_[cur_tick_ & kSlotMask];
      if (!v.empty()) {
        if (!cur_heaped_) {
          std::make_heap(v.begin(), v.end(), LaterRec{});
          cur_heaped_ = true;
        }
        return true;
      }
      cur_heaped_ = false;
      bitmap_[((cur_tick_ & kSlotMask) >> 6)] &=
          ~(std::uint64_t{1} << (cur_tick_ & 63));
      // Sweep far-future events the window has slid over.
      while (!overflow_.empty() &&
             (overflow_.top().when >> kSlotShift) - cur_tick_ < kSlots) {
        const Record r = overflow_.top();
        overflow_.pop();
        push_slot(r, r.when >> kSlotShift);
      }
      if (!v.empty()) continue;  // overflow sweep refilled the current slot
      const std::uint32_t d = next_bit_distance();
      std::uint64_t target;
      if (d != 0) {
        target = cur_tick_ + d;
      } else if (!overflow_.empty()) {
        target = overflow_.top().when >> kSlotShift;
      } else {
        if (cur_tick_ < max_tick && max_tick != ~std::uint64_t{0}) {
          cur_tick_ = max_tick;
        }
        return false;
      }
      if (target > max_tick) {
        if (cur_tick_ < max_tick) cur_tick_ = max_tick;
        return false;
      }
      cur_tick_ = target;
    }
  }

  [[nodiscard]] bool precedes_head(SimTime when, std::uint64_t seq) const {
    return when < head_when_ || (when == head_when_ && seq < head_seq_);
  }

  // Recomputes the cached head key without moving the cursor: a train asks
  // mid-dispatch, and overflow entries the window slid over are not swept
  // into the wheel yet, so both the next occupied slot and the overflow
  // top are candidates.
  void find_head() {
    head_when_ = kNeverTime;
    head_seq_ = ~std::uint64_t{0};
    head_known_ = true;
    auto consider = [this](const Record& r) {
      if (precedes_head(r.when, r.seq)) {
        head_when_ = r.when;
        head_seq_ = r.seq;
      }
    };
    net::PoolVector<Record>& cur = slots_[cur_tick_ & kSlotMask];
    if (!cur.empty()) {
      if (!cur_heaped_) {
        std::make_heap(cur.begin(), cur.end(), LaterRec{});
        cur_heaped_ = true;
      }
      consider(cur.front());
      return;
    }
    if (const std::uint32_t d = next_bit_distance(); d != 0) {
      for (const Record& r : slots_[(cur_tick_ + d) & kSlotMask]) consider(r);
    }
    if (!overflow_.empty()) consider(overflow_.top());
  }

  void pop_dispatch() {
    net::PoolVector<Record>& v = slots_[cur_tick_ & kSlotMask];
    std::pop_heap(v.begin(), v.end(), LaterRec{});
    const Record r = v.back();  // copy: handlers may grow/move the slot
    v.pop_back();
    now_ = r.when;
    ++processed_;
    --live_;
    head_known_ = false;
    const HandlerEntry& h = handlers_[r.kind];
    assert(h.fn != nullptr && "EventLoop: no handler for event kind");
    h.fn(h.ctx, r.when, r.a, r.b);
  }

  // Pool-backed storage throughout: slot vectors and the overflow heap's
  // backing vector grow through the thread-local BytePool, so a warmed-up
  // thread schedules events without touching the global heap.
  net::PoolVector<Record> slots_[kSlots];
  std::uint64_t bitmap_[kSlots / 64] = {};
  std::uint64_t cur_tick_ = 0;
  bool cur_heaped_ = false;  // current slot heapified (min on (when, seq))
  std::priority_queue<Record, net::PoolVector<Record>, LaterRec> overflow_;

  struct HandlerEntry {
    void* ctx = nullptr;
    Handler fn = nullptr;
  };
  HandlerEntry handlers_[kEventKindCount];

  // Cached queue-head key for before_head(): kept current by every push,
  // dropped by every pop. An empty queue's head is (kNeverTime, max seq).
  SimTime head_when_ = kNeverTime;
  std::uint64_t head_seq_ = ~std::uint64_t{0};
  bool head_known_ = true;

  SimTime now_ = 0;
  SimTime bulk_horizon_ = kNeverTime;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t clamped_ = 0;
  std::uint64_t* clamp_cell_ = nullptr;
};

}  // namespace xmap::sim
