// Scan accounting.
//
// `ScanStats` is the per-engine counter block (what one SimChannelScanner
// accumulates); it is merge-friendly so that per-worker stats from the
// parallel executor sum exactly to the single-thread totals. `ScanProgress`
// is the lock-free live view of the same counters: workers publish into it
// with relaxed atomics and the monitor thread samples it for status lines.
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/event_loop.h"

namespace xmap::scan {

struct ScanStats {
  std::uint64_t targets_generated = 0;
  std::uint64_t blocked = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;   // packets that reached the scanner
  std::uint64_t validated = 0;  // passed probe-module validation
  std::uint64_t discarded = 0;  // failed validation (stray/spoofed)
  // Robustness accounting. Invariant:
  //   received == validated + discarded + corrupted + late
  // and duplicates is the subset of validated already seen for the same
  // (responder, probe target, kind).
  std::uint64_t retransmits = 0;  // retry copies sent (subset of `sent`)
  std::uint64_t duplicates = 0;   // validated repeats of an earlier response
  std::uint64_t corrupted = 0;    // malformed on the wire (bad checksum/len)
  std::uint64_t late = 0;         // arrived after the cooldown closed
  std::uint64_t rate_adjustments = 0;  // adaptive-rate controller steps
  // Validated responses whose probe was no longer in the scanner's probe
  // provenance window (see SimChannelScanner::SlottedResponseCallback):
  // reported with raw_slot kNoBudgetCut and without an RTT sample, so the
  // icmp_rtt_sim_ns histogram counts validated - provenance_misses. 0 on
  // every scan whose responses arrive within the response horizon. Carried
  // in fabric frames; not in checkpoint files (a resumed run counts its
  // own).
  std::uint64_t provenance_misses = 0;
  sim::SimTime first_send = 0;
  sim::SimTime last_send = 0;

  [[nodiscard]] double hit_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(validated) /
                           static_cast<double>(sent);
  }

  // Counter union: counts add; the send window widens to cover both
  // (min first_send, max last_send). Merging a default-constructed (idle)
  // stats block is a no-op.
  ScanStats& merge(const ScanStats& other) {
    const bool self_active = sent != 0 || targets_generated != 0;
    const bool other_active =
        other.sent != 0 || other.targets_generated != 0;
    targets_generated += other.targets_generated;
    blocked += other.blocked;
    sent += other.sent;
    received += other.received;
    validated += other.validated;
    discarded += other.discarded;
    retransmits += other.retransmits;
    duplicates += other.duplicates;
    corrupted += other.corrupted;
    late += other.late;
    rate_adjustments += other.rate_adjustments;
    provenance_misses += other.provenance_misses;
    if (other_active) {
      if (!self_active) {
        first_send = other.first_send;
        last_send = other.last_send;
      } else {
        if (other.first_send < first_send) first_send = other.first_send;
        if (other.last_send > last_send) last_send = other.last_send;
      }
    }
    return *this;
  }
  ScanStats& operator+=(const ScanStats& other) { return merge(other); }

  friend bool operator==(const ScanStats&, const ScanStats&) = default;
};

// Live counters shared between N scanning workers and the monitor thread.
// Relaxed ordering is sufficient: the monitor only renders approximate
// progress; exact totals come from the per-worker ScanStats after join.
struct ScanProgress {
  std::atomic<std::uint64_t> targets_generated{0};
  std::atomic<std::uint64_t> blocked{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> validated{0};
  std::atomic<std::uint64_t> discarded{0};
  std::atomic<std::uint64_t> retransmits{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> late{0};
  std::atomic<std::uint64_t> rate_adjustments{0};
  std::atomic<std::uint32_t> workers_done{0};
  std::atomic<std::uint32_t> workers_failed{0};

  [[nodiscard]] ScanStats snapshot() const {
    ScanStats s;
    s.targets_generated = targets_generated.load(std::memory_order_relaxed);
    s.blocked = blocked.load(std::memory_order_relaxed);
    s.sent = sent.load(std::memory_order_relaxed);
    s.received = received.load(std::memory_order_relaxed);
    s.validated = validated.load(std::memory_order_relaxed);
    s.discarded = discarded.load(std::memory_order_relaxed);
    s.retransmits = retransmits.load(std::memory_order_relaxed);
    s.duplicates = duplicates.load(std::memory_order_relaxed);
    s.corrupted = corrupted.load(std::memory_order_relaxed);
    s.late = late.load(std::memory_order_relaxed);
    s.rate_adjustments = rate_adjustments.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace xmap::scan
