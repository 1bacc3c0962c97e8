// The XMap scanner engine.
//
// Drives a probe module over one or more target specs: targets are drawn
// from the cyclic-group permutation (optionally sharded), filtered through
// the blocklist, paced by the configured probe rate, and sent through a
// PacketChannel. Responses are validated/classified by the probe module and
// streamed to the caller.
//
// The engine is transport-agnostic: `SimChannelScanner` below attaches it to
// the discrete-event simulator (the reproduction substrate); a raw-socket
// channel would drop in the same way on a real deployment.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/flat_hash64.h"
#include "netbase/pool.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "xmap/blocklist.h"
#include "xmap/cyclic_group.h"
#include "xmap/probe_module.h"
#include "xmap/results.h"
#include "xmap/stats.h"
#include "xmap/target_spec.h"

namespace xmap::scan {

// Sentinel for "no budget cut": no raw-cycle slot is excluded.
inline constexpr std::uint64_t kNoBudgetCut = ~std::uint64_t{0};

struct ScanConfig {
  std::vector<TargetSpec> targets;
  net::Ipv6Address source;
  std::uint64_t seed = 1;
  double probes_per_sec = 25000;  // the paper's ~25 kpps good-citizen rate
  int shard = 0;
  int shards = 1;
  const Blocklist* blocklist = nullptr;  // optional, not owned
  // Global target budget: stop drawing after this many *permitted* targets
  // (each still sent 1+retries times). 0 = unlimited. Enforced as a cut at
  // a fixed permutation slot (see budget_cut_raw_slot), so a capped scan
  // is byte-identical at every --threads value.
  std::uint64_t max_probes = 0;
  // The slot-deterministic form of max_probes: fresh targets at global
  // raw-cycle slots >= this value are never drawn. kNoBudgetCut = no cut.
  // Left unset with max_probes != 0, start() computes it via
  // compute_budget_cut(); the parallel engine precomputes it once and
  // shares it across workers.
  std::uint64_t budget_cut_raw_slot = kNoBudgetCut;
  // Graceful shutdown: when non-null and non-zero (the signal number), the
  // scanner stops drawing fresh targets at the next opportunity, lets
  // in-flight copies fire, and reports interrupted(). Polled, never waited
  // on — safe to share with a signal handler.
  const std::atomic<int>* shutdown_flag = nullptr;
  // Deterministic interruption test hook: behave as if a shutdown signal
  // arrived when the next fresh target's raw slot would be >= this value.
  // kNoBudgetCut = off.
  std::uint64_t shutdown_at_raw_slot = kNoBudgetCut;
  // Resume: shard-local raw-cycle steps to fast-forward each target spec's
  // iterator by before the first draw (from a checkpoint cursor). Empty =
  // fresh scan.
  std::vector<std::uint64_t> resume_spec_steps;
  // Send each probe 1+retries times (XMap's --retries; copes with loss on
  // the path). Stateless validation makes duplicate responses harmless —
  // dedup happens in the ResultCollector. Every copy is charged against
  // the probes_per_sec budget and retransmits are spaced
  // `retry_spacing_ms` apart, so bursty loss shorter than the spacing
  // cannot eat all copies of a probe.
  int retries = 0;
  double retry_spacing_ms = 100.0;
  // ZMap's --cooldown-secs: how long after the last send the receive
  // window stays open. Replies arriving later are counted `late` and
  // dropped instead of validated.
  double cooldown_secs = 8.0;
  // Opt-in AIMD rate controller: when the validated-response rate
  // collapses (suspected ICMPv6 rate limiting or an outage), halve the
  // send rate; recover multiplicatively while the hit rate is healthy.
  // Send times become load-dependent, so this intentionally trades the
  // cross-thread-count byte-identical guarantee for resilience.
  bool adaptive_rate = false;
};

// Computes the slot-deterministic budget cut for `max_targets`: walks the
// (shard of shards) permutation in draw order counting blocklist-permitted
// targets and returns the global raw slot just after the max_targets-th
// one — the first excluded slot. Returns kNoBudgetCut when the permitted
// population is within budget. Thread subdivision of the same shard walks
// the same slots, so a cut computed here truncates identically at every
// --threads value.
[[nodiscard]] std::uint64_t compute_budget_cut(
    const std::vector<TargetSpec>& targets, std::uint64_t seed,
    const Blocklist* blocklist, std::uint64_t max_targets, int shard = 0,
    int shards = 1);

// A scanner attached to the simulated network as a node. start() schedules
// the paced send loop on the network's event loop; responses arriving on the
// node's interface are classified and handed to the callback.
class SimChannelScanner : public sim::Node {
 public:
  using ResponseCallback =
      std::function<void(const ProbeResponse&, sim::SimTime)>;
  // Slot-aware variant: the third argument is the global raw-cycle slot of
  // the probe the response answers. Checkpointing consumers need the slot
  // to filter records by probe provenance. It is exact for every response
  // that arrives within the response horizon after the probe's last copy
  // (the horizon stable_cursor() assumes); a response to an address this
  // scanner never drew, or one arriving later than the provenance window
  // keeps, gets kNoBudgetCut and counts in ScanStats::provenance_misses.
  using SlottedResponseCallback =
      std::function<void(const ProbeResponse&, sim::SimTime, std::uint64_t)>;
  // Invoked with a stable resume cursor every `checkpoint_interval`
  // targets (see set_checkpoint_hook).
  using CheckpointHook = std::function<void(const ScanCursor&)>;

  SimChannelScanner(ScanConfig config, const ProbeModule& module)
      : config_(std::move(config)), module_(module) {}

  // The interface (from Network::connect / attach_vantage) to send on.
  void set_iface(int iface) { iface_ = iface; }
  void on_response(ResponseCallback cb) {
    auto inner = std::move(cb);
    callback_ = [inner = std::move(inner)](const ProbeResponse& r,
                                           sim::SimTime when, std::uint64_t) {
      inner(r, when);
    };
  }
  void on_response_slotted(SlottedResponseCallback cb) {
    callback_ = std::move(cb);
    track_slots_ = true;
  }

  // Arms periodic checkpointing: every `every_targets` drawn targets the
  // hook receives stable_cursor(). Never invoked under adaptive_rate (no
  // analytic send schedule to derive a stable cursor from).
  void set_checkpoint_hook(std::uint64_t every_targets, CheckpointHook hook) {
    checkpoint_every_ = every_targets;
    checkpoint_hook_ = std::move(hook);
    // The hook's "every record below the cursor is in hand" claim
    // observes processing order, not just stamps: pin the network's
    // trains to exact (when, seq) order.
    if (network() != nullptr && checkpoint_hook_ && checkpoint_every_ != 0) {
      network()->set_order_observed(true);
    }
  }

  // Optional live-telemetry sink (not owned; may be shared by several
  // scanners running on different threads — counters are atomic). The
  // authoritative totals remain `stats()`.
  void set_progress(ScanProgress* progress) { progress_ = progress; }

  // Attaches observability sinks (all caller-owned, thread-confined with
  // the scanner; any pointer may be null). Metric cells are resolved here
  // once, so the per-probe cost is a null check plus an increment. Call
  // before start(). Scan-level trace events are stamped with the target's
  // deterministic packet-slot time, keeping the trace byte-identical
  // across thread counts (adaptive_rate waives that guarantee, as it
  // already does for send times).
  void set_obs(const obs::ObsConfig& config, obs::TraceBuffer* trace,
               obs::MetricsShard* metrics, obs::StageProfile* profile);

  // Begins the scan at the current sim time. Call Network::run() after.
  void start();

  [[nodiscard]] bool sending_done() const { return sending_done_; }
  [[nodiscard]] const ScanStats& stats() const { return stats_; }
  // True when the scan stopped early because of a shutdown request (flag
  // or shutdown_at_raw_slot), after draining in-flight copies.
  [[nodiscard]] bool interrupted() const { return interrupted_; }
  // The exact current permutation position (meaningful once the scanner is
  // quiescent — after Network::run() returns — when every drawn target's
  // lifecycle has completed).
  [[nodiscard]] ScanCursor cursor() const;
  // A conservative mid-flight cursor: the largest frontier R such that
  // every fresh slot below R had its last retransmit copy sent at least a
  // response-horizon ago — records from probes below R are complete, and a
  // resume that re-scans from R regenerates everything above it. Only
  // meaningful without adaptive_rate.
  [[nodiscard]] ScanCursor stable_cursor() const;

  void receive(pkt::Bytes packet, int iface) override;
  void on_timer(std::uint64_t tag) override;

  // The scanner never generates load-dependent behavior on its own: send
  // times are analytic slot functions and response handling is stateless in
  // time, so it does not veto the network's free-running trains.
  [[nodiscard]] bool time_sensitive() const override { return false; }

 private:
  // Fresh targets drawn per schedule_fresh() dispatch on the deterministic
  // path. Send times are pure slot functions, so pulling permutation draws
  // in blocks changes only how often the generate stage runs — not one wire
  // byte. Budget/shutdown checks stay per-draw inside next_target().
  static constexpr std::uint64_t kFreshBatch = 256;

  // Draws the next permitted target and its global raw-cycle position;
  // false when all specs are exhausted, the budget cut is reached, or a
  // shutdown was requested (the un-drawn frontier stays intact for
  // cursor()).
  bool next_target(net::Ipv6Address& out, std::uint64_t& raw_slot);
  // Draws the next permitted (non-blocklisted) target, emitting the
  // generate/blocked bookkeeping; false when the scan is out of fresh
  // targets.
  bool draw_fresh(net::Ipv6Address& out, std::uint64_t& raw_slot);
  // Draws fresh targets and schedules all of their copies; re-arms itself.
  // The deterministic-pacing path pulls a block of kFreshBatch permutation
  // draws per invocation (send times are pure slot functions, so batching
  // is invisible on the wire); adaptive_rate draws one at a time.
  // `settled` is the stamp of the event being dispatched: every packet
  // stamped earlier has been delivered (trains only ever run ahead).
  void schedule_fresh(sim::SimTime settled);
  void send_copy(const net::Ipv6Address& target, int copy);
  void maybe_finish_sending();
  // Sends a block's copy-`copy` sends from target `idx` on, each stamped
  // with its slot time, under the train rule (see SendBlock).
  void run_sweep(std::uint32_t bidx, std::uint32_t copy, std::uint32_t idx);

  // Timer tags: the kind in the top two bits, then a 32-bit slot (block or
  // pending target), a 22-bit copy and an 8-bit resume index.
  static constexpr std::uint64_t kTagDraw = 0;
  static constexpr std::uint64_t kTagSweep = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kTagAdaptive = std::uint64_t{2} << 62;
  static constexpr std::uint64_t kTagKindMask = std::uint64_t{3} << 62;
  static constexpr std::uint64_t make_tag(std::uint64_t kind,
                                          std::uint64_t slot,
                                          std::uint64_t copy,
                                          std::uint64_t idx = 0) {
    return kind | slot << 30 | copy << 8 | idx;
  }
  static_assert(kFreshBatch <= 256, "a tag's resume index has 8 bits");
  [[nodiscard]] sim::SimTime copy_time(std::uint64_t raw_slot,
                                       std::uint32_t copy) const {
    const std::uint64_t slot =
        raw_slot * static_cast<std::uint64_t>(copies_) +
        static_cast<std::uint64_t>(copy) *
            (spacing_periods_ * static_cast<std::uint64_t>(copies_) + 1);
    return origin_ + static_cast<sim::SimTime>(slot) * gap_ns_;
  }
  // Send time of copy 0 of the target at `raw_slot` (also the stamp of its
  // scan-level lifecycle trace events).
  [[nodiscard]] sim::SimTime slot_time(std::uint64_t raw_slot) const {
    return origin_ + static_cast<sim::SimTime>(
                         raw_slot * static_cast<std::uint64_t>(copies_) *
                         gap_ns_);
  }
  void adapt_rate();
  // Sim time from a target's copy-0 send until every response to it has
  // arrived: its retransmit tail plus the response horizon. Bounds both
  // stable_cursor() and the provenance window.
  [[nodiscard]] sim::SimTime settle_ns() const;
  // Records the raw slots of `count` drawn targets as probe provenance.
  void remember_slots(const net::Ipv6Address* targets,
                      const std::uint64_t* raw_slots, std::uint32_t count,
                      sim::SimTime settled);
  // Opens the generation of `raw_slot` (at or past next_generation_slot_)
  // if the previous one has settled.
  void rotate_slots(std::uint64_t raw_slot, sim::SimTime settled);
  // The raw slot of the drawn target `probe_dst`, or kNoBudgetCut (a miss).
  [[nodiscard]] std::uint64_t probe_slot(const net::Ipv6Address& probe_dst);
  [[nodiscard]] std::uint64_t frontier_slot() const;
  [[nodiscard]] ScanCursor cursor_at_slot(std::uint64_t slot) const;

  ScanConfig config_;
  const ProbeModule& module_;
  SlottedResponseCallback callback_;
  int iface_ = 0;

  // Cached probe frame, re-aimed per target by ProbeModule::patch_probe
  // (built in start()).
  ProbeTemplate template_;

  // Permutation state: one group+iterator per target spec. `raw_base` is
  // the spec's first global raw-cycle slot: the sum of (p-1) over all
  // earlier specs — identical for every shard of the same scan, which is
  // what makes slot-indexed send times thread-count invariant.
  struct SpecState {
    std::unique_ptr<CyclicGroup> group;
    std::unique_ptr<CyclicGroup::Iterator> iter;
    std::uint64_t raw_base = 0;
    std::uint64_t order = 0;  // p-1, the spec's raw-cycle length
  };
  std::vector<SpecState> spec_state_;
  std::size_t current_spec_ = 0;

  // Pacing: one packet slot per gap at the configured rate; fresh probe at
  // raw slot q occupies packet slot q*(1+retries), retransmit copy c sits
  // at q*(1+retries) + c*(spacing_periods*(1+retries) + 1) — collision-free
  // (slot mod (1+retries) identifies the copy) so the aggregate rate never
  // exceeds probes_per_sec.
  // Slot times count from `origin_`, the network's clock at start(): a
  // scan started on a network that already ran (a second scan, a
  // follow-up pass) sends forward from its own start, never into the
  // past.
  sim::SimTime origin_ = 0;
  sim::SimTime gap_ns_ = 0;
  int copies_ = 1;
  std::uint64_t spacing_periods_ = 1;

  // Adaptive-rate controller state (only touched when adaptive_rate).
  double current_pps_ = 0;
  double best_hit_rate_ = 0;
  std::uint64_t window_sent_ = 0;
  std::uint64_t window_validated_ = 0;
  sim::SimTime window_end_ = 0;
  sim::SimTime next_fresh_at_ = 0;

  // Duplicate detection: keyed hashes of every validated response.
  // Open-addressed (like the maps below): these structures only insert and
  // look up on the packet hot path, so the flat table's contiguous probe
  // sequence replaces a node allocation and pointer chase per operation —
  // this is what keeps the metrics-on overhead under the bench's 2% bar.
  net::FlatSet64 seen_responses_;

  // Observability (all optional; null = off, hooks cost one branch).
  obs::TraceBuffer* trace_ = nullptr;
  obs::StageProfile* profile_ = nullptr;
  obs::Histogram* rtt_hist_ = nullptr;
  struct MetricCells {
    std::uint64_t* targets_generated = nullptr;
    std::uint64_t* blocked = nullptr;
    std::uint64_t* sent = nullptr;
    std::uint64_t* retransmits = nullptr;
    std::uint64_t* received = nullptr;
    std::uint64_t* validated = nullptr;
    std::uint64_t* duplicates = nullptr;
    std::uint64_t* discarded = nullptr;
    std::uint64_t* corrupted = nullptr;
    std::uint64_t* late = nullptr;
    std::uint64_t* rate_adjustments = nullptr;
  } cells_;
  // RTT measurement for the histogram and response_validated spans. Under
  // deterministic slot pacing the first-copy send time is a pure function
  // of the target's raw slot (raw_slot * copies * gap), so it is derived
  // from the provenance lookup the slotted callback already pays for —
  // no extra per-probe bookkeeping. Only adaptive_rate, where send times
  // are load-dependent, records them in first_send_. A response past the
  // provenance window (a miss, see slots_current_) therefore has no RTT:
  // the histogram skips it and its response_validated span has no
  // duration.
  bool track_rtt_ = false;
  bool rtt_from_slots_ = false;
  net::FlatHash64<sim::SimTime> first_send_;

  std::uint64_t pending_sends_ = 0;  // copies scheduled but not yet fired
  sim::SimTime recv_deadline_ = ~sim::SimTime{0};

  // Deterministic-pacing sends. A SendBlock holds one schedule_fresh()
  // draw batch; each of its 1+retries copy sweeps is one timer. Send
  // (b, c), target b copy c, owns seq seq_base + b*copies + c, reserved at
  // the draw: the seq a per-send event would have taken, so a sweep obeys
  // the network's train rule (exact order or free running). Blocks are
  // recycled, so steady-state scanning allocates nothing.
  struct SendBlock {
    net::Ipv6Address targets[kFreshBatch];
    std::uint64_t raw_slots[kFreshBatch];
    std::uint64_t seq_base = 0;
    std::uint32_t count = 0;
    std::uint32_t live_copies = 0;
    bool rearm = false;  // copy-0 completion draws the next block
  };
  net::PoolSlab<SendBlock> blocks_;

  // adaptive_rate sends: one slot per drawn target until its last copy
  // fires (send times are load-dependent, so there is no block to sweep).
  struct PendingTarget {
    net::Ipv6Address target;
    std::uint32_t live_copies = 0;
  };
  net::PoolSlab<PendingTarget> pending_;

  // Probe provenance for slotted callbacks: addr-key -> raw slot of the
  // drawn target (populated only when a slotted callback is installed).
  // A response arrives within settle_ns() of its probe's copy-0 send, so
  // only the targets drawn in that window need keeping: a generation is
  // slot_generation_ raw slots (the settle time at the configured rate
  // plus two draw blocks of slack), and two generations live at once.
  // The older one is dropped only once its last slot has settled, so the
  // lookup is exact for any response within the horizon.
  // next_generation_slot_ stays at its all-ones sentinel — one table for
  // the whole scan, the second never allocated — when the window covers
  // the shard's whole span, or under adaptive_rate (no analytic send
  // schedule).
  bool track_slots_ = false;
  std::uint64_t slot_generation_ = 0;
  std::uint64_t next_generation_slot_ = ~std::uint64_t{0};
  std::uint64_t current_max_slot_ = 0;
  std::uint64_t previous_max_slot_ = 0;
  net::FlatHash64<std::uint64_t> slots_current_;
  net::FlatHash64<std::uint64_t> slots_previous_;

  // Periodic checkpointing.
  std::uint64_t checkpoint_every_ = 0;
  std::uint64_t targets_since_checkpoint_ = 0;
  CheckpointHook checkpoint_hook_;

  ScanStats stats_;
  ScanProgress* progress_ = nullptr;
  bool started_ = false;
  bool fresh_done_ = false;
  bool sending_done_ = false;
  bool interrupted_ = false;
};

}  // namespace xmap::scan
