#include "sim/faults.h"

#include <cmath>

#include "netbase/random.h"

namespace xmap::sim {
namespace {

// Domain-separation salts for the keyed draws.
constexpr std::uint64_t kSaltIid = 0x69696471;      // "iid"
constexpr std::uint64_t kSaltDup = 0x64757031;      // "dup"
constexpr std::uint64_t kSaltCorrupt = 0x636f7272;  // "corr"
constexpr std::uint64_t kSaltJitter = 0x6a697474;   // "jitt"
constexpr std::uint64_t kSaltBurst = 0x62757273;    // "burs"
constexpr std::uint64_t kSaltFlap = 0x666c6170;     // "flap"
constexpr std::uint64_t kSaltSilent = 0x73696c74;   // "silt"

// Burst windows are regenerated per 1-second epoch; a burst may straddle at
// most one epoch boundary (durations are capped at one epoch), so any query
// only needs epochs k and k-1.
constexpr SimTime kBurstEpoch = kSecond;

std::uint64_t fnv1a64(const pkt::Bytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double keyed_unit(std::uint64_t key, std::uint64_t salt) {
  const std::uint64_t v = net::mix64(net::hash_combine64(key, salt));
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

// Verdict kinds in the [kind] index order of verdict_cells_ / note_verdict.
enum : int {
  kKindIidDrop = 0,
  kKindBurstDrop,
  kKindFlapDrop,
  kKindDuplicate,
  kKindCorrupt,
  kKindJitter,
};
constexpr const char* kFaultKindNames[6] = {
    "iid_drop", "burst_drop", "flap_drop", "duplicate", "corrupt", "jitter",
};
constexpr const char* kFaultEventNames[6] = {
    "fault_iid_drop",  "fault_burst_drop", "fault_flap_drop",
    "fault_duplicate", "fault_corrupt",    "fault_jitter",
};

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t network_seed)
    : plan_(plan),
      seed_(plan.seed != 0 ? plan.seed : network_seed) {}

void FaultInjector::set_obs(obs::TraceBuffer* trace,
                            obs::MetricsShard* metrics) {
  trace_ = trace;
  if (metrics == nullptr) {
    for (auto& row : verdict_cells_) row[0] = row[1] = row[2] = nullptr;
    silent_cell_ = nullptr;
    return;
  }
  for (int kind = 0; kind < kVerdictKinds; ++kind) {
    for (int cls = 0; cls < 3; ++cls) {
      verdict_cells_[kind][cls] = metrics->counter(
          "fault_verdicts",
          {{"kind", kFaultKindNames[kind]},
           {"link_class", link_class_name(static_cast<LinkClass>(cls))}},
          "Fault-injection verdicts by kind and link class");
    }
  }
  silent_cell_ = metrics->counter(
      "fault_verdicts", {{"kind", "silent_drop"}, {"link_class", "node"}},
      "Fault-injection verdicts by kind and link class");
}

void FaultInjector::note_verdict(int kind, const char* event_name,
                                 LinkClass cls, LinkId link, SimTime when,
                                 std::uint64_t extra) {
  if (std::uint64_t* cell = verdict_cells_[kind][static_cast<int>(cls)]) {
    ++*cell;
  }
  if (trace_ != nullptr && trace_->at(obs::TraceLevel::kPacket)) {
    obs::TraceEvent e;
    e.ts = when;
    e.name = event_name;
    e.cat = "fault";
    e.str_key = "link_class";
    e.str_val = link_class_name(cls);
    e.i0 = {"link", link};
    if (kind == kKindJitter) e.i1 = {"delay_ns", extra};
    trace_->add(e);
  }
}

void FaultInjector::note_silent_drop(NodeId node, SimTime when) {
  ++stats_.silent_dropped;
  if (silent_cell_ != nullptr) ++*silent_cell_;
  if (trace_ != nullptr && trace_->at(obs::TraceLevel::kPacket)) {
    obs::TraceEvent e;
    e.ts = when;
    e.name = "fault_silent_drop";
    e.cat = "fault";
    e.i0 = {"node", node};
    trace_->add(e);
  }
}

const LinkFaultParams& FaultInjector::params_for(LinkClass cls) const {
  switch (cls) {
    case LinkClass::kCore:
      return plan_.core;
    case LinkClass::kAccess:
      return plan_.access;
    case LinkClass::kOther:
      break;
  }
  return plan_.other;
}

bool FaultInjector::in_burst(LinkId link, LinkClass cls, SimTime when) const {
  const BurstLossParams& burst = params_for(cls).burst;
  if (burst.rate_per_sec <= 0) return false;

  const std::uint64_t link_key =
      net::hash_combine64(net::hash_combine64(seed_, kSaltBurst), link);
  const SimTime epoch = when / kBurstEpoch;
  // Check the current epoch and (for straddling bursts) the previous one.
  for (int back = 0; back < 2; ++back) {
    if (back == 1 && epoch == 0) break;
    const SimTime e = epoch - static_cast<SimTime>(back);
    net::Rng rng{net::hash_combine64(link_key, e)};
    // Bursts starting in this epoch: floor(rate) plus a Bernoulli for the
    // fractional part (expected count == rate_per_sec per epoch-second).
    const double rate = burst.rate_per_sec;
    int count = static_cast<int>(rate);
    if (rng.bernoulli(rate - std::floor(rate))) ++count;
    for (int i = 0; i < count; ++i) {
      const SimTime start =
          e * kBurstEpoch + rng.uniform(kBurstEpoch);
      // Exponential duration with the configured mean, capped at one epoch
      // so a burst can straddle at most one boundary.
      const double mean_ns = burst.mean_ms * static_cast<double>(kMillisecond);
      double dur = -mean_ns * std::log(1.0 - rng.unit());
      if (dur > static_cast<double>(kBurstEpoch)) {
        dur = static_cast<double>(kBurstEpoch);
      }
      if (when >= start && when < start + static_cast<SimTime>(dur)) {
        return true;
      }
    }
  }
  return false;
}

bool FaultInjector::link_down(LinkId link, LinkClass cls, SimTime when) const {
  const FlapParams& flap = params_for(cls).flap;
  if (flap.period_ms <= 0 || flap.down_ms <= 0) return false;

  const std::uint64_t link_key =
      net::hash_combine64(net::hash_combine64(seed_, kSaltFlap), link);
  if (flap.fraction < 1.0 &&
      keyed_unit(link_key, 1) >= flap.fraction) {
    return false;
  }
  const auto period =
      static_cast<SimTime>(flap.period_ms * static_cast<double>(kMillisecond));
  const auto down =
      static_cast<SimTime>(flap.down_ms * static_cast<double>(kMillisecond));
  if (period == 0) return false;
  // Per-link phase desynchronizes the flaps across the class.
  const SimTime phase = net::mix64(net::hash_combine64(link_key, 2)) % period;
  return (when + phase) % period < (down < period ? down : period);
}

FaultInjector::Verdict FaultInjector::on_transmit(LinkId link, LinkClass cls,
                                                  SimTime when,
                                                  const pkt::Bytes& packet) {
  Verdict verdict;
  const LinkFaultParams& params = params_for(cls);
  if (!params.any()) return verdict;

  if (link_down(link, cls, when)) {
    verdict.drop = true;
    ++stats_.flap_dropped;
    note_verdict(kKindFlapDrop, kFaultEventNames[kKindFlapDrop], cls, link,
                 when);
    return verdict;
  }

  const std::uint64_t pkt_hash = fnv1a64(packet);
  const std::uint64_t pair_key =
      net::hash_combine64(net::hash_combine64(seed_, link), pkt_hash);
  const std::uint32_t attempt = attempts_[pair_key]++;
  const std::uint64_t key = net::hash_combine64(pair_key, attempt);

  if (in_burst(link, cls, when) &&
      keyed_unit(key, kSaltBurst) < params.burst.loss) {
    verdict.drop = true;
    ++stats_.burst_dropped;
    note_verdict(kKindBurstDrop, kFaultEventNames[kKindBurstDrop], cls, link,
                 when);
    return verdict;
  }
  if (params.loss > 0 && keyed_unit(key, kSaltIid) < params.loss) {
    verdict.drop = true;
    ++stats_.iid_dropped;
    note_verdict(kKindIidDrop, kFaultEventNames[kKindIidDrop], cls, link,
                 when);
    return verdict;
  }
  if (params.duplicate > 0 && keyed_unit(key, kSaltDup) < params.duplicate) {
    verdict.duplicate = true;
    ++stats_.duplicated;
    note_verdict(kKindDuplicate, kFaultEventNames[kKindDuplicate], cls, link,
                 when);
  }
  if (params.corrupt > 0 && keyed_unit(key, kSaltCorrupt) < params.corrupt) {
    verdict.corrupt = true;
    verdict.corrupt_key = net::mix64(net::hash_combine64(key, kSaltCorrupt));
    ++stats_.corrupted;
    note_verdict(kKindCorrupt, kFaultEventNames[kKindCorrupt], cls, link,
                 when);
  }
  if (params.jitter_ms > 0) {
    const double u = keyed_unit(key, kSaltJitter);
    verdict.extra_delay = static_cast<SimTime>(
        u * params.jitter_ms * static_cast<double>(kMillisecond));
    if (verdict.extra_delay > 0) {
      ++stats_.jittered;
      note_verdict(kKindJitter, kFaultEventNames[kKindJitter], cls, link,
                   when, verdict.extra_delay);
    }
  }
  return verdict;
}

void FaultInjector::choose_silent(const std::vector<NodeId>& candidates) {
  if (plan_.silent.fraction <= 0) return;
  const std::uint64_t base =
      net::hash_combine64(seed_, kSaltSilent);
  const auto start = static_cast<SimTime>(
      plan_.silent.start_ms * static_cast<double>(kMillisecond));
  const SimTime end =
      plan_.silent.duration_ms <= 0
          ? ~SimTime{0}
          : start + static_cast<SimTime>(plan_.silent.duration_ms *
                                         static_cast<double>(kMillisecond));
  for (const NodeId node : candidates) {
    if (keyed_unit(net::hash_combine64(base, node), 1) <
        plan_.silent.fraction) {
      silent_[node] = {start, end};
    }
  }
}

bool FaultInjector::node_silent(NodeId node, SimTime when) const {
  const auto it = silent_.find(node);
  if (it == silent_.end()) return false;
  return when >= it->second.first && when < it->second.second;
}

}  // namespace xmap::sim
