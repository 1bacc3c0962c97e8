// Seeded, deterministic fault injection for the simulated network.
//
// Real scans cross a hostile Internet: access links lose packets in bursts
// (Gilbert–Elliott, not i.i.d.), middleboxes duplicate and reorder,
// last-mile links flap, bit errors corrupt payloads, and CPEs go silent for
// minutes at a time. The substrate's base LinkParams::loss models only
// i.i.d. Bernoulli drops from a sequentially-consumed RNG, which is neither
// realistic nor stable across the parallel engine's per-worker replicas.
//
// This layer injects all of the above from a FaultPlan, with every decision
// keyed by hash(seed, link, packet bytes, attempt#) and every burst window
// derived from (seed, link, epoch) — pure functions of *what* is sent and
// *when*, never of global call order. Because the scanner's slot pacing
// makes send times thread-invariant, the same plan + seed produces
// byte-identical outcomes for any --threads value.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "netbase/pool.h"
#include "packet/packet.h"
#include "sim/event_loop.h"

namespace xmap::sim {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

// Coarse link taxonomy for class-scoped fault plans: the paper's loss and
// rate-limit pathologies live on the access tier, not the core.
enum class LinkClass : std::uint8_t { kOther = 0, kCore = 1, kAccess = 2 };

[[nodiscard]] constexpr const char* link_class_name(LinkClass cls) {
  switch (cls) {
    case LinkClass::kCore:
      return "core";
    case LinkClass::kAccess:
      return "access";
    case LinkClass::kOther:
      break;
  }
  return "other";
}

// Gilbert–Elliott style bursty loss: bursts begin at `rate_per_sec` per
// link-second, last `mean_ms` on average, and drop packets with probability
// `loss` while active.
struct BurstLossParams {
  double rate_per_sec = 0.0;  // expected burst starts per second (0 = off)
  double mean_ms = 50.0;      // mean burst duration
  double loss = 1.0;          // drop probability inside a burst
};

// Scheduled link flaps: a deterministic subset (`fraction`) of the class's
// links goes fully down for `down_ms` out of every `period_ms`, with a
// per-link phase so flaps are not synchronized.
struct FlapParams {
  double period_ms = 0.0;  // flap cycle length (0 = off)
  double down_ms = 0.0;    // down-window at the start of each cycle
  double fraction = 1.0;   // fraction of links that flap
};

// Per-link-class fault dials. All probabilities are per transmission.
struct LinkFaultParams {
  double loss = 0.0;       // keyed i.i.d. drop probability
  BurstLossParams burst;   // bursty (correlated) loss
  double duplicate = 0.0;  // probability the packet is delivered twice
  double corrupt = 0.0;    // probability of delivered-copy bit flips
  double jitter_ms = 0.0;  // max extra delivery delay (uniform, reorders)
  FlapParams flap;

  [[nodiscard]] bool any() const {
    return loss > 0 || burst.rate_per_sec > 0 || duplicate > 0 ||
           corrupt > 0 || jitter_ms > 0 || flap.period_ms > 0;
  }
};

// Silent-device windows: a deterministic `fraction` of the registered
// candidate nodes (CPEs) ignores all inbound traffic during
// [start_ms, start_ms + duration_ms); duration 0 = silent forever.
struct SilentParams {
  double fraction = 0.0;
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 0;  // 0 = inherit the network's seed
  LinkFaultParams access;
  LinkFaultParams core;
  LinkFaultParams other;
  SilentParams silent;

  [[nodiscard]] bool any() const {
    return access.any() || core.any() || other.any() || silent.fraction > 0;
  }
};

struct FaultStats {
  std::uint64_t iid_dropped = 0;
  std::uint64_t burst_dropped = 0;
  std::uint64_t flap_dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t jittered = 0;
  std::uint64_t silent_dropped = 0;

  [[nodiscard]] std::uint64_t dropped_total() const {
    return iid_dropped + burst_dropped + flap_dropped + silent_dropped;
  }
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t network_seed);

  // Fate of one transmission departing on `link` (class `cls`) at `when`.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;      // deliver a second copy
    bool corrupt = false;        // flip bits in the delivered copy
    SimTime extra_delay = 0;     // reordering jitter
    std::uint64_t corrupt_key = 0;  // which bits to flip (when corrupt)
  };
  [[nodiscard]] Verdict on_transmit(LinkId link, LinkClass cls, SimTime when,
                                    const pkt::Bytes& packet);

  // Registers the silent-window candidate set (typically every CPE/UE
  // node); a keyed per-node coin selects plan.silent.fraction of them.
  void choose_silent(const std::vector<NodeId>& candidates);
  [[nodiscard]] bool node_silent(NodeId node, SimTime when) const;
  void note_silent_drop(NodeId node, SimTime when);

  // Attaches observability sinks (both owned by the caller, thread-confined
  // with this injector). Every verdict then bumps a
  // fault_verdicts{kind,link_class} counter and — at packet trace level —
  // emits a "fault"-category event stamped with the sim clock.
  void set_obs(obs::TraceBuffer* trace, obs::MetricsShard* metrics);

  // True when `link` of class `cls` sits inside a bursty-loss window at
  // `when` (exposed for tests; on_transmit folds this into the verdict).
  [[nodiscard]] bool in_burst(LinkId link, LinkClass cls, SimTime when) const;

  // True when the link is inside a flap down-window at `when`.
  [[nodiscard]] bool link_down(LinkId link, LinkClass cls, SimTime when) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // The dial set a link of class `cls` is subject to. The network's bulk
  // delivery path inspects this to decide which links need per-packet
  // events (duplication and jitter change arrival times/counts; drops and
  // corruption are keyed off stamps and packet bytes, so they batch).
  [[nodiscard]] const LinkFaultParams& params(LinkClass cls) const {
    return params_for(cls);
  }

 private:
  [[nodiscard]] const LinkFaultParams& params_for(LinkClass cls) const;

  // Bumps the (kind, class) verdict counter and records the trace event.
  void note_verdict(int kind, const char* event_name, LinkClass cls,
                    LinkId link, SimTime when, std::uint64_t extra = 0);

  FaultPlan plan_;
  std::uint64_t seed_ = 1;
  FaultStats stats_;
  obs::TraceBuffer* trace_ = nullptr;
  // Counter cells indexed [kind][link class]; resolved once in set_obs so
  // the verdict hot path is a single increment. kind order matches
  // kFaultKindNames in faults.cc; the silent-drop counter is node-scoped
  // and lives in its own cell.
  static constexpr int kVerdictKinds = 6;
  std::uint64_t* verdict_cells_[kVerdictKinds][3] = {};
  std::uint64_t* silent_cell_ = nullptr;
  // Per-(link, packet-hash) attempt counters: retransmitted probes are
  // byte-identical, so the attempt index is what differentiates their fault
  // draws. Counts depend only on this replica's own traffic per packet, so
  // they are identical across thread counts.
  net::PoolMap<std::uint64_t, std::uint32_t> attempts_;
  // Nodes selected for a silent window: node -> [start, end) in sim time
  // (end == ~0 for "forever").
  std::unordered_map<NodeId, std::pair<SimTime, SimTime>> silent_;
};

}  // namespace xmap::sim
