// Scan results: what a bulk scan produces, and their aggregation.
//
// Every bulk executor (the parallel engine, the fabric, and a checkpoint
// that carries an interrupted scan) speaks one data model: a ScanRecord
// per validated response, a ScanCursor per permutation sub-shard, and one
// deterministic content order over the records (sort_records).
//
// The paper reports *unique, non-aliased last hops*: responses are deduped
// by responder address, and responders that answer for an implausible
// number of distinct probes (ISP edge routers emitting errors for a whole
// block, aliased space) are flagged and excluded from periphery statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/event_loop.h"
#include "xmap/probe_module.h"

namespace xmap::scan {

// A sub-shard's resumable permutation position. spec_steps[i] is the
// number of shard-local raw-cycle steps consumed from target spec i's
// iterator; frontier_slot is the global raw slot of the next target the
// sub-shard would draw (every slot below it that belongs to the sub-shard
// has been fully handled or is covered by the checkpoint's record set).
struct ScanCursor {
  std::vector<std::uint64_t> spec_steps;
  std::uint64_t frontier_slot = 0;
};

// One validated response. `when` is its sim-clock arrival on the replica
// that saw it; `shard` is the permutation sub-shard that produced it (the
// engine's worker index, the fabric's shard index — the same sub-shard
// when equal); `raw_slot` is the global permutation slot of the probe that
// elicited it (checkpoint and failover provenance). The scanner keeps the
// slots of the targets it drew within the response horizon
// (kStableHorizonNs plus the retransmit tail, the window periodic
// checkpoints and failover already assume), so raw_slot is exact for
// every response arriving within it; a later one carries kNoBudgetCut
// and counts as a provenance miss (ScanStats::provenance_misses).
struct ScanRecord {
  ProbeResponse response;
  sim::SimTime when = 0;
  int shard = 0;
  std::uint64_t raw_slot = 0;

  friend bool operator==(const ScanRecord&, const ScanRecord&) = default;
};

// The deterministic content order every merge uses: (sim time, responder,
// probe, kind), then the sub-shard as the final tiebreak. Sim clocks are
// deterministic, so the order is byte-stable across runs; the shard comes
// last so same-time records never sort by sharding, which would break
// byte-identity across --threads values, node counts and resumes.
inline void sort_records(std::vector<ScanRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const ScanRecord& a, const ScanRecord& b) {
              return std::tuple(a.when, a.response.responder,
                                a.response.probe_dst,
                                static_cast<int>(a.response.kind), a.shard) <
                     std::tuple(b.when, b.response.responder,
                                b.response.probe_dst,
                                static_cast<int>(b.response.kind), b.shard);
            });
}

struct LastHop {
  net::Ipv6Address address;
  ResponseKind first_kind = ResponseKind::kOther;
  std::uint8_t first_icmp_code = 0;
  net::Ipv6Address first_probe_dst;
  std::uint64_t responses = 0;
  // Did the first response come from the same /64 as the probed address?
  // (Table II's "same" vs "diff" columns.)
  [[nodiscard]] bool same_prefix64() const {
    return address.prefix64() == first_probe_dst.prefix64();
  }
};

class ResultCollector {
 public:
  // `alias_threshold`: a responder answering for more distinct probes than
  // this is treated as aliased (e.g. an ISP router), not a periphery.
  explicit ResultCollector(std::uint64_t alias_threshold = 16)
      : alias_threshold_(alias_threshold) {}

  void add(const ProbeResponse& response) {
    ++total_;
    ++by_kind_[static_cast<int>(response.kind)];
    auto [it, inserted] = hops_.try_emplace(response.responder);
    LastHop& hop = it->second;
    if (inserted) {
      hop.address = response.responder;
      hop.first_kind = response.kind;
      hop.first_icmp_code = response.icmp_code;
      hop.first_probe_dst = response.probe_dst;
    }
    ++hop.responses;
  }

  // Union with another collector (the parallel executor's merge step):
  // response counts add, so the alias-threshold verdict over the union is
  // identical to a single-collector run. For responders seen by both sides
  // this collector's first_* fields win — "first" is per-shard arrival
  // order, which is not globally ordered across workers.
  void merge(const ResultCollector& other) {
    total_ += other.total_;
    for (int k = 0; k < 8; ++k) by_kind_[k] += other.by_kind_[k];
    for (const auto& [addr, hop] : other.hops_) {
      auto [it, inserted] = hops_.try_emplace(addr, hop);
      if (!inserted) it->second.responses += hop.responses;
    }
  }

  [[nodiscard]] std::uint64_t total_responses() const { return total_; }
  [[nodiscard]] std::uint64_t count_of(ResponseKind kind) const {
    return by_kind_[static_cast<int>(kind)];
  }

  // Unique responders below the alias threshold — the periphery candidates.
  [[nodiscard]] std::vector<LastHop> last_hops() const {
    std::vector<LastHop> out;
    out.reserve(hops_.size());
    for (const auto& [addr, hop] : hops_) {
      if (hop.responses <= alias_threshold_) out.push_back(hop);
    }
    return out;
  }

  // Responders answering for many probes (ISP routers, aliased prefixes).
  [[nodiscard]] std::vector<LastHop> aliased() const {
    std::vector<LastHop> out;
    for (const auto& [addr, hop] : hops_) {
      if (hop.responses > alias_threshold_) out.push_back(hop);
    }
    return out;
  }

  [[nodiscard]] std::size_t unique_responders() const { return hops_.size(); }

 private:
  std::uint64_t alias_threshold_;
  std::unordered_map<net::Ipv6Address, LastHop> hops_;
  std::uint64_t total_ = 0;
  std::uint64_t by_kind_[8] = {};
};

}  // namespace xmap::scan
