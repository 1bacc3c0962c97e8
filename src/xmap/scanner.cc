#include "xmap/scanner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xmap::scan {
namespace {

// Wire-integrity gate: structurally valid IPv6 with a verifiable
// upper-layer checksum. Fault-injected bit flips land here (`corrupted`)
// instead of being fed to — or worse, validated by — the probe module.
bool wire_intact(const pkt::Bytes& packet) {
  pkt::Ipv6View ip{packet};
  if (!ip.valid()) return false;
  const auto l4 = ip.payload();
  switch (ip.next_header()) {
    case pkt::kProtoIcmpv6: {
      pkt::Icmpv6View icmp{l4};
      return icmp.valid() && icmp.checksum_ok(ip.src(), ip.dst());
    }
    case pkt::kProtoUdp: {
      pkt::UdpView udp{l4};
      return udp.valid() && udp.checksum_ok(ip.src(), ip.dst());
    }
    case pkt::kProtoTcp: {
      pkt::TcpView tcp{l4};
      return tcp.valid() && tcp.checksum_ok(ip.src(), ip.dst());
    }
    default:
      // Unknown upper layer: structurally fine; let classification decide.
      return true;
  }
}

std::uint64_t response_key(const ProbeResponse& r) {
  const net::Uint128 responder = r.responder.value();
  const net::Uint128 probed = r.probe_dst.value();
  std::uint64_t h = net::hash_combine64(responder.hi(), responder.lo());
  h = net::hash_combine64(h, probed.hi());
  h = net::hash_combine64(h, probed.lo());
  return net::hash_combine64(h, static_cast<std::uint64_t>(r.kind));
}

sim::SimTime gap_for(double pps) {
  if (pps <= 0) pps = 1e9;
  const auto gap = static_cast<sim::SimTime>(
      static_cast<double>(sim::kSecond) / pps);
  return gap > 0 ? gap : 1;
}

inline void bump(std::uint64_t* cell) {
  if (cell != nullptr) ++*cell;
}

std::uint64_t addr_key(const net::Ipv6Address& addr) {
  const net::Uint128 v = addr.value();
  return net::hash_combine64(v.hi(), v.lo());
}

// Sim-RTT histogram bounds (ns): 100µs … 1s, roughly log-spaced. The
// simulated topologies put echo RTTs in the hundreds of µs to tens of ms.
const std::vector<std::uint64_t> kRttBoundsNs = {
    100'000,     250'000,     500'000,       1'000'000,   2'500'000,
    5'000'000,   10'000'000,  25'000'000,    50'000'000,  100'000'000,
    250'000'000, 500'000'000, 1'000'000'000,
};

// How long after a probe's last copy every response is assumed to have
// arrived, for the mid-flight stable cursor. Simulated round trips top out
// in the hundreds of milliseconds (link latencies plus bounded jitter);
// two sim-seconds is conservatively past all of them.
constexpr sim::SimTime kStableHorizonNs = 2 * sim::kSecond;

}  // namespace

std::uint64_t compute_budget_cut(const std::vector<TargetSpec>& targets,
                                 std::uint64_t seed,
                                 const Blocklist* blocklist,
                                 std::uint64_t max_targets, int shard,
                                 int shards) {
  if (max_targets == 0) return kNoBudgetCut;
  std::uint64_t permitted = 0;
  std::uint64_t raw_base = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::uint64_t subseed = net::hash_combine64(seed, i);
    const CyclicGroup group{targets[i].count(), subseed};
    CyclicGroup::Iterator iter = group.shard_iterate(shard, shards);
    while (auto offset = iter.next()) {
      if (blocklist != nullptr &&
          !blocklist->permitted(targets[i].nth_address(*offset, seed))) {
        continue;
      }
      if (++permitted == max_targets) {
        const net::Uint128 visited = iter.raw_visited();
        const std::uint64_t local =
            (visited - net::Uint128{1}).to_u64() *
                static_cast<std::uint64_t>(shards) +
            static_cast<std::uint64_t>(shard);
        return raw_base + local + 1;
      }
    }
    const net::Uint128 order = group.prime() - net::Uint128{1};
    raw_base += order.fits_u64() ? order.to_u64() : ~std::uint64_t{0};
  }
  return kNoBudgetCut;  // whole permitted population fits in the budget
}

void SimChannelScanner::set_obs(const obs::ObsConfig& config,
                                obs::TraceBuffer* trace,
                                obs::MetricsShard* metrics,
                                obs::StageProfile* profile) {
  trace_ = config.trace_level != obs::TraceLevel::kOff ? trace : nullptr;
  profile_ = config.profile ? profile : nullptr;
  if (config.metrics && metrics != nullptr) {
    cells_.targets_generated =
        metrics->counter("targets_generated", {},
                         "Targets drawn from the scan permutation");
    cells_.blocked = metrics->counter(
        "targets_blocked", {}, "Targets suppressed by the blocklist");
    cells_.sent = metrics->counter(
        "probes_sent", {}, "Probe packets sent (fresh plus retransmits)");
    cells_.retransmits = metrics->counter("probes_retransmitted", {},
                                          "Retransmit copies sent");
    cells_.received = metrics->counter(
        "responses_received", {}, "Packets arriving at the scanner");
    cells_.validated =
        metrics->counter("responses_validated", {},
                         "Responses accepted by the probe module");
    cells_.duplicates = metrics->counter(
        "responses_duplicate", {}, "Validated responses already seen");
    cells_.discarded = metrics->counter(
        "responses_discarded", {}, "Packets rejected by classification");
    cells_.corrupted =
        metrics->counter("responses_corrupted", {},
                         "Packets failing the wire-integrity gate");
    cells_.late = metrics->counter(
        "responses_late", {}, "Responses after the cooldown deadline");
    cells_.rate_adjustments = metrics->counter(
        "rate_adjustments", {}, "AIMD rate-controller adjustments");
    rtt_hist_ = metrics->histogram(
        "icmp_rtt_sim_ns", kRttBoundsNs, {},
        "Probe-to-validated-response round trip in sim nanoseconds");
  }
  track_rtt_ = rtt_hist_ != nullptr ||
               (trace_ != nullptr && trace_->at(obs::TraceLevel::kScan));
  // Deterministic pacing: send times are analytic, so RTT rides on the
  // slot map instead of a dedicated send-time map.
  rtt_from_slots_ = track_rtt_ && !config_.adaptive_rate;
  if (rtt_from_slots_) track_slots_ = true;
}

void SimChannelScanner::start() {
  if (started_) return;
  started_ = true;

  origin_ = network()->now();
  copies_ = 1 + (config_.retries > 0 ? config_.retries : 0);
  gap_ns_ = gap_for(config_.probes_per_sec);
  // Retry spacing in whole target periods (one period = (1+retries) slots),
  // so retransmit slots interleave with fresh slots without collisions.
  const double spacing_ns =
      std::max(0.0, config_.retry_spacing_ms) *
      static_cast<double>(sim::kMillisecond);
  const double period_ns =
      static_cast<double>(copies_) * static_cast<double>(gap_ns_);
  spacing_periods_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(spacing_ns / period_ns)));

  // Build every spec's permutation up front: raw_base must be known for
  // all specs before the first send so slot positions are globally
  // consistent (and identical across shards and thread counts).
  spec_state_.resize(config_.targets.size());
  std::uint64_t raw_base = 0;
  for (std::size_t i = 0; i < config_.targets.size(); ++i) {
    const std::uint64_t subseed = net::hash_combine64(config_.seed, i);
    SpecState& state = spec_state_[i];
    state.group =
        std::make_unique<CyclicGroup>(config_.targets[i].count(), subseed);
    state.iter = std::make_unique<CyclicGroup::Iterator>(
        state.group->shard_iterate(config_.shard, config_.shards));
    state.raw_base = raw_base;
    const net::Uint128 order = state.group->prime() - net::Uint128{1};
    state.order = order.fits_u64() ? order.to_u64() : ~std::uint64_t{0};
    raw_base += state.order;
    // Resume: jump the iterator to the checkpointed cursor in O(log k)
    // instead of re-walking (and re-sending) the permutation prefix.
    if (i < config_.resume_spec_steps.size()) {
      state.iter->fast_forward(net::Uint128{config_.resume_spec_steps[i]});
    }
  }

  // Translate a target-count budget into its slot-deterministic cut unless
  // the caller (the parallel engine) already computed it for all workers.
  if (config_.max_probes != 0 &&
      config_.budget_cut_raw_slot == kNoBudgetCut) {
    config_.budget_cut_raw_slot =
        compute_budget_cut(config_.targets, config_.seed, config_.blocklist,
                           config_.max_probes, config_.shard, config_.shards);
  }

  // Pre-size the per-probe flat tables: this shard draws at most
  // span/shards targets (raw-cycle span capped by the budget cut), so
  // sizing them here keeps the steady-state scan path heap-free — growth
  // would allocate mid-run. Capped so a huge address window cannot demand
  // a huge up-front table; past the cap the tables grow like any hash map.
  {
    const std::uint64_t span =
        std::min(raw_base, config_.budget_cut_raw_slot);
    const std::uint64_t shards = config_.shards > 0
                                     ? static_cast<std::uint64_t>(config_.shards)
                                     : 1;
    constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 20;
    const std::size_t per_shard =
        static_cast<std::size_t>(std::min(span / shards + 1, kReserveCap));
    // Responses can outnumber targets (routers answer for silent hosts),
    // so the dedup set gets double headroom.
    seen_responses_.reserve(2 * per_shard);
    if (track_slots_) {
      // Provenance window (see slot_generation_): the settle time in slots
      // plus two draw blocks — a block is drawn while the previous one's
      // sweep dispatches, so a draw runs at most that far ahead of the
      // event stamp that bounds what has been delivered.
      const std::uint64_t width =
          settle_ns() / (static_cast<std::uint64_t>(copies_) * gap_ns_) + 1 +
          2 * kFreshBatch * shards;
      if (!config_.adaptive_rate && width < span) {
        slot_generation_ = width;
        next_generation_slot_ = width;
        const std::size_t per_generation = static_cast<std::size_t>(
            std::min<std::uint64_t>(width / shards + 2, per_shard));
        slots_current_.reserve(per_generation);
        slots_previous_.reserve(per_generation);
      } else {
        slots_current_.reserve(per_shard);
      }
    }
    if (track_rtt_ && !rtt_from_slots_) first_send_.reserve(per_shard);
  }

  current_pps_ = config_.probes_per_sec > 0 ? config_.probes_per_sec : 1e9;
  window_end_ = network()->now() + sim::kSecond / 2;
  next_fresh_at_ = network()->now();

  // One frame build per scan; send_copy re-aims it per target.
  template_ = module_.make_template(config_.source, config_.seed);

  stats_.first_send = origin_;
  assert(copies_ < (1 << 22));  // a timer tag's copy field
  schedule_timer(origin_, kTagDraw);
}

void SimChannelScanner::on_timer(std::uint64_t tag) {
  const auto slot = static_cast<std::uint32_t>((tag & ~kTagKindMask) >> 30);
  const auto copy = static_cast<std::uint32_t>((tag >> 8) & 0x3fffff);
  switch (tag & kTagKindMask) {
    case kTagSweep:
      run_sweep(slot, copy, static_cast<std::uint32_t>(tag & 0xff));
      break;
    case kTagAdaptive: {
      // Copy the target out: schedule_fresh may grow pending_.
      const net::Ipv6Address target = pending_[slot].target;
      if (--pending_[slot].live_copies == 0) pending_.release(slot);
      send_copy(target, static_cast<int>(copy));
      if (copy == 0) schedule_fresh(network()->now());
      break;
    }
    default:
      schedule_fresh(network()->now());
  }
}

bool SimChannelScanner::next_target(net::Ipv6Address& out,
                                    std::uint64_t& raw_slot) {
  while (current_spec_ < config_.targets.size()) {
    const TargetSpec& spec = config_.targets[current_spec_];
    SpecState& state = spec_state_[current_spec_];
    if (!state.iter->raw_remaining().is_zero()) {
      // Peek the next slot *before* consuming it: a stop here must leave
      // the iterator exactly at the frontier so a resumed scan starts with
      // this very target.
      const std::uint64_t next_slot =
          state.raw_base + state.iter->raw_visited().to_u64() *
                               static_cast<std::uint64_t>(config_.shards) +
          static_cast<std::uint64_t>(config_.shard);
      if (next_slot >= config_.budget_cut_raw_slot) return false;
      const bool signal_pending =
          config_.shutdown_flag != nullptr &&
          config_.shutdown_flag->load(std::memory_order_relaxed) != 0;
      if (signal_pending || next_slot >= config_.shutdown_at_raw_slot) {
        interrupted_ = true;
        return false;
      }
    }
    if (auto offset = state.iter->next()) {
      ++stats_.targets_generated;
      bump(cells_.targets_generated);
      if (progress_ != nullptr) {
        progress_->targets_generated.fetch_add(1, std::memory_order_relaxed);
      }
      // Global raw-cycle position of this target: the iterator has consumed
      // raw_visited() steps of its shard-strided walk, so the element just
      // yielded sits at shard-local raw index raw_visited()-1, i.e. global
      // index (raw_visited()-1)*shards + shard within the spec's cycle.
      const net::Uint128 visited = state.iter->raw_visited();
      const std::uint64_t local =
          (visited - net::Uint128{1}).to_u64() *
              static_cast<std::uint64_t>(config_.shards) +
          static_cast<std::uint64_t>(config_.shard);
      raw_slot = state.raw_base + local;
      out = spec.nth_address(*offset, config_.seed);
      return true;
    }
    ++current_spec_;
  }
  return false;
}

bool SimChannelScanner::draw_fresh(net::Ipv6Address& out,
                                   std::uint64_t& raw_slot) {
  // Scan-level lifecycle events are stamped with the target's packet-slot
  // time — a pure function of (seed, targets, rate, retries) — rather than
  // the load-dependent moment this function happens to run, so the trace
  // stays partition-invariant.
  bool have = false;
  // Skip blocklisted targets; their slots stay empty (the schedule is a
  // pure function of the permutation, not of the blocklist).
  while (next_target(out, raw_slot)) {
    if (config_.blocklist != nullptr && !config_.blocklist->permitted(out)) {
      ++stats_.blocked;
      bump(cells_.blocked);
      if (progress_ != nullptr) {
        progress_->blocked.fetch_add(1, std::memory_order_relaxed);
      }
      if (trace_ != nullptr && trace_->at(obs::TraceLevel::kScan)) {
        obs::TraceEvent e;
        e.ts = slot_time(raw_slot);
        e.name = "target_blocked";
        e.cat = "scan";
        e.addr1_key = "target";
        e.addr1 = out;
        trace_->add(e);
      }
      continue;
    }
    have = true;
    break;
  }
  if (!have) return false;
  if (trace_ != nullptr && trace_->at(obs::TraceLevel::kScan)) {
    obs::TraceEvent e;
    e.ts = slot_time(raw_slot);
    e.name = "target_generated";
    e.cat = "scan";
    e.addr1_key = "target";
    e.addr1 = out;
    e.i0 = {"raw_slot", raw_slot};
    trace_->add(e);
  }
  if (checkpoint_hook_ && checkpoint_every_ != 0 && !config_.adaptive_rate &&
      ++targets_since_checkpoint_ >= checkpoint_every_) {
    targets_since_checkpoint_ = 0;
    checkpoint_hook_(stable_cursor());
  }
  return true;
}

void SimChannelScanner::schedule_fresh(sim::SimTime settled) {
  obs::ScopedStageTimer timer{profile_, obs::Stage::kGenerate};

  net::Ipv6Address target;
  std::uint64_t raw_slot = 0;

  if (config_.adaptive_rate) {
    if (!draw_fresh(target, raw_slot)) {
      fresh_done_ = true;
      maybe_finish_sending();
      return;
    }
    if (track_slots_) remember_slots(&target, &raw_slot, 1, settled);
    // Load-driven pacing: fresh probes are spaced (1+retries) slots of the
    // *current* rate apart; retransmits ride at fixed offsets after their
    // fresh copy. Aggregate stays below current_pps_.
    adapt_rate();
    const sim::SimTime gap = gap_for(current_pps_);
    const sim::SimTime t0 =
        std::max(next_fresh_at_, network()->now());
    next_fresh_at_ = t0 + static_cast<sim::SimTime>(copies_) * gap;
    const auto spacing = static_cast<sim::SimTime>(
        std::max(0.0, config_.retry_spacing_ms) *
        static_cast<double>(sim::kMillisecond));
    const std::uint32_t pidx = pending_.acquire();
    pending_[pidx] = PendingTarget{target, static_cast<std::uint32_t>(copies_)};
    for (int c = 0; c < copies_; ++c) {
      ++pending_sends_;
      const sim::SimTime tc =
          t0 + static_cast<sim::SimTime>(c) * std::max(spacing, gap);
      schedule_timer(
          tc, make_tag(kTagAdaptive, pidx, static_cast<std::uint64_t>(c)));
    }
    return;
  }

  // Deterministic slot pacing: every copy owns one global packet slot, so
  // send times depend only on (seed, targets, rate, retries) — never on
  // shard count or thread count. Draws come in blocks of kFreshBatch, one
  // sweep timer per copy (see SendBlock); the next block is drawn at the
  // last target's copy-0 send.
  const std::uint32_t bidx = blocks_.acquire();
  SendBlock& blk = blocks_[bidx];
  blk.count = 0;
  bool more = true;
  for (std::uint64_t b = 0; b < kFreshBatch; ++b) {
    if (!draw_fresh(target, raw_slot)) {
      more = false;
      fresh_done_ = true;
      break;
    }
    blk.targets[blk.count] = target;
    blk.raw_slots[blk.count] = raw_slot;
    ++blk.count;
    pending_sends_ += static_cast<std::uint64_t>(copies_);
  }
  if (track_slots_) {
    remember_slots(blk.targets, blk.raw_slots, blk.count, settled);
  }
  if (blk.count == 0) {
    blocks_.release(bidx);
    maybe_finish_sending();
    return;
  }
  blk.rearm = more;
  blk.live_copies = static_cast<std::uint32_t>(copies_);
  blk.seq_base = network()->loop().reserve_seqs(
      static_cast<std::uint64_t>(blk.count) *
      static_cast<std::uint64_t>(copies_));
  for (int c = 0; c < copies_; ++c) {
    const auto copy = static_cast<std::uint32_t>(c);
    schedule_reserved_timer(copy_time(blk.raw_slots[0], copy),
                            blk.seq_base + copy,
                            make_tag(kTagSweep, bidx, copy));
  }
  if (!more) maybe_finish_sending();
}

void SimChannelScanner::run_sweep(std::uint32_t bidx, std::uint32_t copy,
                                  std::uint32_t idx) {
  sim::EventLoop& loop = network()->loop();
  const sim::SimTime horizon = loop.bulk_horizon();
  // Exact order while a checkpoint hook (an order observer) or the network
  // needs it; otherwise all stamps are analytic and the sweep runs free.
  const bool exact = !network()->free_running();
  SendBlock& blk = blocks_[bidx];
  const auto copies = static_cast<std::uint64_t>(copies_);
  // The first item's key was the queue minimum, so it always goes. Every
  // send is stamped with its analytic slot time.
  sim::SimTime tc = copy_time(blk.raw_slots[idx], copy);
  const sim::SimTime settled = tc;
  for (;;) {
    loop.set_time(tc);
    send_copy(blk.targets[idx], static_cast<int>(copy));
    if (++idx == blk.count) break;
    tc = copy_time(blk.raw_slots[idx], copy);
    const std::uint64_t seq = blk.seq_base + idx * copies + copy;
    if (tc > horizon || (exact && !loop.before_head(tc, seq))) {
      schedule_reserved_timer(tc, seq, make_tag(kTagSweep, bidx, copy, idx));
      return;
    }
  }
  // Sweep complete. Copy 0 of a full block draws the next block at the
  // last target's copy-0 slot, so checkpoint cursors and fresh_done_
  // timing follow the send schedule alone. Free before re-arming:
  // schedule_fresh may grow blocks_, invalidating `blk`.
  const bool rearm = blk.rearm && copy == 0;
  if (--blk.live_copies == 0) blocks_.release(bidx);
  if (rearm) schedule_fresh(settled);
}

std::uint64_t SimChannelScanner::frontier_slot() const {
  for (std::size_t i = current_spec_; i < spec_state_.size(); ++i) {
    const SpecState& state = spec_state_[i];
    if (!state.iter->raw_remaining().is_zero()) {
      return state.raw_base +
             state.iter->raw_visited().to_u64() *
                 static_cast<std::uint64_t>(config_.shards) +
             static_cast<std::uint64_t>(config_.shard);
    }
  }
  if (spec_state_.empty()) return 0;
  return spec_state_.back().raw_base + spec_state_.back().order;
}

ScanCursor SimChannelScanner::cursor() const {
  ScanCursor cursor;
  cursor.spec_steps.reserve(spec_state_.size());
  for (const SpecState& state : spec_state_) {
    cursor.spec_steps.push_back(state.iter->raw_visited().to_u64());
  }
  cursor.frontier_slot = frontier_slot();
  return cursor;
}

ScanCursor SimChannelScanner::cursor_at_slot(std::uint64_t slot) const {
  ScanCursor cursor;
  cursor.spec_steps.reserve(spec_state_.size());
  const auto shard = static_cast<std::uint64_t>(config_.shard);
  const auto shards = static_cast<std::uint64_t>(config_.shards);
  for (const SpecState& state : spec_state_) {
    // Within-spec global raw index the cut falls at, clamped to the spec.
    const std::uint64_t g =
        slot <= state.raw_base
            ? 0
            : std::min(slot - state.raw_base, state.order);
    // Shard-local steps below g: positions k*shards + shard < g.
    cursor.spec_steps.push_back(g > shard ? (g - shard + shards - 1) / shards
                                          : 0);
  }
  cursor.frontier_slot = slot;
  return cursor;
}

sim::SimTime SimChannelScanner::settle_ns() const {
  const std::uint64_t tail_slots =
      static_cast<std::uint64_t>(copies_ - 1) *
      (spacing_periods_ * static_cast<std::uint64_t>(copies_) + 1);
  return tail_slots * gap_ns_ + kStableHorizonNs;
}

void SimChannelScanner::remember_slots(const net::Ipv6Address* targets,
                                       const std::uint64_t* raw_slots,
                                       std::uint32_t count,
                                       sim::SimTime settled) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (raw_slots[i] >= next_generation_slot_) {
      rotate_slots(raw_slots[i], settled);
    }
    slots_current_.insert(addr_key(targets[i]), raw_slots[i]);
    current_max_slot_ = raw_slots[i];
  }
}

void SimChannelScanner::rotate_slots(std::uint64_t raw_slot,
                                     sim::SimTime settled) {
  // Dropping the previous generation is safe once its last slot has
  // settled: every response to it was stamped before `settled`, so it has
  // been delivered and looked up. Until then the current table keeps
  // taking inserts (it only happens after a gap of blocklisted or
  // out-of-range slots, and costs a table growth, never a wrong slot).
  if (!slots_previous_.empty() &&
      slot_time(previous_max_slot_) + settle_ns() >= settled) {
    return;
  }
  std::swap(slots_current_, slots_previous_);
  slots_current_.reset();
  previous_max_slot_ = current_max_slot_;
  next_generation_slot_ =
      (raw_slot / slot_generation_ + 1) * slot_generation_;
}

std::uint64_t SimChannelScanner::probe_slot(const net::Ipv6Address& probe_dst) {
  const std::uint64_t key = addr_key(probe_dst);
  // The previous generation first: a target drawn twice keeps its first
  // slot, as a single table's keep-first insert would.
  const std::uint64_t* slot = slots_previous_.find(key);
  if (slot == nullptr) slot = slots_current_.find(key);
  if (slot != nullptr) return *slot;
  ++stats_.provenance_misses;
  return kNoBudgetCut;
}

ScanCursor SimChannelScanner::stable_cursor() const {
  // The last retransmit copy of fresh slot q fires at
  //   (q*copies + (copies-1)*(spacing_periods*copies+1)) * gap.
  // Find the largest q whose last copy is at least a response horizon in
  // the past; everything at or below it has completed its lifecycle.
  // Slot times count from origin_.
  const sim::SimTime now = network()->now() - origin_;
  const sim::SimTime settle = settle_ns();
  std::uint64_t frontier = 0;
  if (now > settle) {
    frontier =
        (now - settle) / (static_cast<std::uint64_t>(copies_) * gap_ns_) + 1;
  }
  frontier = std::min(frontier, frontier_slot());
  return cursor_at_slot(frontier);
}

void SimChannelScanner::send_copy(const net::Ipv6Address& target, int copy) {
  obs::ScopedStageTimer timer{profile_, obs::Stage::kSend};
  --pending_sends_;
  // Re-aim the cached frame: patch dst + keyed fields, incremental
  // checksum. The copy below recycles a pool block.
  module_.patch_probe(template_, config_.source, target, config_.seed);
  pkt::Bytes probe = template_.frame();
  if (trace_ != nullptr) {
    if (trace_->at(obs::TraceLevel::kPacket)) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = "probe_encoded";
      e.cat = "scan";
      e.addr1_key = "target";
      e.addr1 = target;
      e.i0 = {"bytes", probe.size()};
      trace_->add(e);
    }
    if (trace_->at(obs::TraceLevel::kScan)) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = copy > 0 ? "probe_retransmit" : "probe_sent";
      e.cat = "scan";
      e.addr1_key = "target";
      e.addr1 = target;
      e.i0 = {"copy", static_cast<std::uint64_t>(copy)};
      trace_->add(e);
    }
  }
  if (track_rtt_ && copy == 0 && !rtt_from_slots_) {
    first_send_.insert(addr_key(target), network()->now());
  }
  send(iface_, std::move(probe));
  ++stats_.sent;
  bump(cells_.sent);
  ++window_sent_;
  if (copy > 0) {
    ++stats_.retransmits;
    bump(cells_.retransmits);
    if (progress_ != nullptr) {
      progress_->retransmits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (progress_ != nullptr) {
    progress_->sent.fetch_add(1, std::memory_order_relaxed);
  }
  // Max, not assignment: block sweeps execute different copies' sends out
  // of global stamp order, and the cooldown deadline must anchor on the
  // latest send stamp either way.
  stats_.last_send = std::max(stats_.last_send, network()->now());
  maybe_finish_sending();
}

void SimChannelScanner::maybe_finish_sending() {
  if (sending_done_ || !fresh_done_ || pending_sends_ != 0) return;
  sending_done_ = true;
  // ZMap cooldown semantics: the receive window stays open for
  // cooldown_secs after the last send, then closes; later arrivals are
  // accounted as `late` instead of validated.
  const double cooldown = std::max(0.0, config_.cooldown_secs);
  recv_deadline_ =
      stats_.last_send + static_cast<sim::SimTime>(
                             cooldown * static_cast<double>(sim::kSecond));
}

void SimChannelScanner::adapt_rate() {
  if (network()->now() < window_end_) return;
  // Evaluate only windows with enough sends for a meaningful rate.
  if (window_sent_ >= 16) {
    const double hr = static_cast<double>(window_validated_) /
                      static_cast<double>(window_sent_);
    if (hr > best_hit_rate_) best_hit_rate_ = hr;
    const double base =
        config_.probes_per_sec > 0 ? config_.probes_per_sec : 1e9;
    const double floor = std::max(1.0, base / 64.0);
    bool adjusted = false;
    if (best_hit_rate_ > 0 && hr < 0.5 * best_hit_rate_ &&
        current_pps_ > floor) {
      // Hit rate collapsed: suspected ICMPv6 rate limiting — back off.
      current_pps_ = std::max(floor, current_pps_ / 2.0);
      adjusted = true;
    } else if (hr >= 0.8 * best_hit_rate_ && current_pps_ < base) {
      current_pps_ = std::min(base, current_pps_ * 1.25);
      adjusted = true;
    }
    if (adjusted) {
      ++stats_.rate_adjustments;
      bump(cells_.rate_adjustments);
      if (progress_ != nullptr) {
        progress_->rate_adjustments.fetch_add(1, std::memory_order_relaxed);
      }
      if (trace_ != nullptr && trace_->at(obs::TraceLevel::kScan)) {
        obs::TraceEvent e;
        e.ts = network()->now();
        e.name = "rate_adjusted";
        e.cat = "scan";
        e.i0 = {"pps", static_cast<std::uint64_t>(current_pps_)};
        trace_->add(e);
      }
    }
  }
  window_sent_ = 0;
  window_validated_ = 0;
  window_end_ = network()->now() + sim::kSecond / 2;
}

void SimChannelScanner::receive(pkt::Bytes packet, int /*iface*/) {
  obs::ScopedStageTimer timer{profile_, obs::Stage::kReceive};
  const bool scan_trace =
      trace_ != nullptr && trace_->at(obs::TraceLevel::kScan);
  ++stats_.received;
  bump(cells_.received);
  if (progress_ != nullptr) {
    progress_->received.fetch_add(1, std::memory_order_relaxed);
  }
  if (sending_done_ && network()->now() > recv_deadline_) {
    ++stats_.late;
    bump(cells_.late);
    if (progress_ != nullptr) {
      progress_->late.fetch_add(1, std::memory_order_relaxed);
    }
    if (scan_trace) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = "response_late";
      e.cat = "scan";
      e.i0 = {"bytes", packet.size()};
      trace_->add(e);
    }
    return;
  }
  if (!wire_intact(packet)) {
    ++stats_.corrupted;
    bump(cells_.corrupted);
    if (progress_ != nullptr) {
      progress_->corrupted.fetch_add(1, std::memory_order_relaxed);
    }
    if (scan_trace) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = "response_corrupted";
      e.cat = "scan";
      e.i0 = {"bytes", packet.size()};
      trace_->add(e);
    }
    return;
  }
  std::optional<ProbeResponse> response;
  {
    obs::ScopedStageTimer classify_timer{profile_, obs::Stage::kClassify};
    response = module_.classify(packet, config_.source, config_.seed);
  }
  if (!response) {
    ++stats_.discarded;
    bump(cells_.discarded);
    if (progress_ != nullptr) {
      progress_->discarded.fetch_add(1, std::memory_order_relaxed);
    }
    if (scan_trace) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = "response_discarded";
      e.cat = "scan";
      e.i0 = {"bytes", packet.size()};
      trace_->add(e);
    }
    return;
  }
  ++stats_.validated;
  bump(cells_.validated);
  ++window_validated_;
  if (progress_ != nullptr) {
    progress_->validated.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t raw_slot =
      track_slots_ ? probe_slot(response->probe_dst) : kNoBudgetCut;
  sim::SimTime rtt = 0;
  bool have_rtt = false;
  if (track_rtt_) {
    sim::SimTime sent = 0;
    bool have_sent = false;
    if (rtt_from_slots_) {
      if (raw_slot != kNoBudgetCut) {
        // Copy 0 owns packet slot raw_slot * copies; its send fired at
        // exactly that slot's boundary (see schedule_fresh).
        sent = slot_time(raw_slot);
        have_sent = true;
      }
    } else {
      const sim::SimTime* p =
          first_send_.find(addr_key(response->probe_dst));
      if (p != nullptr) {
        sent = *p;
        have_sent = true;
      }
    }
    if (have_sent && network()->now() >= sent) {
      rtt = network()->now() - sent;
      have_rtt = true;
    }
  }
  if (rtt_hist_ != nullptr && have_rtt) rtt_hist_->observe(rtt);
  if (scan_trace) {
    // Renders as a span covering first-send -> validated-response when the
    // send time is known (the Perfetto slice for this probe's round trip).
    obs::TraceEvent e;
    e.ts = have_rtt ? network()->now() - rtt : network()->now();
    e.dur = rtt;
    e.name = "response_validated";
    e.cat = "scan";
    e.addr1_key = "responder";
    e.addr1 = response->responder;
    e.addr2_key = "target";
    e.addr2 = response->probe_dst;
    e.str_key = "kind";
    e.str_val = response_kind_name(response->kind);
    trace_->add(e);
  }
  if (!seen_responses_.insert(response_key(*response))) {
    ++stats_.duplicates;
    bump(cells_.duplicates);
    if (progress_ != nullptr) {
      progress_->duplicates.fetch_add(1, std::memory_order_relaxed);
    }
    if (scan_trace) {
      obs::TraceEvent e;
      e.ts = network()->now();
      e.name = "response_duplicate";
      e.cat = "scan";
      e.addr1_key = "responder";
      e.addr1 = response->responder;
      e.addr2_key = "target";
      e.addr2 = response->probe_dst;
      trace_->add(e);
    }
  }
  if (callback_) {
    callback_(*response, network()->now(), raw_slot);
  }
}

}  // namespace xmap::scan
