// World construction, the ground-truth oracle and the direct-scanner replay
// shared by the workloads.
//
// The oracle answers, from the built world alone (DeviceRecord plus each
// CPE's configuration), what a device must do when the scanner's probe for
// its delegation arrives: answer itself, send the probe into a routing
// loop, or drop it silently (firmware that caps looping flows). The probe
// address is re-derived with the public TargetSpec::nth_address, exactly
// as the scanner draws it, so the oracle knows which part of the
// delegation (own address, LAN subnet, not-used space, WAN /64) is hit.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/faults.h"
#include "sim/network.h"
#include "common.h"
#include "spans.h"
#include "topology/builder.h"
#include "xmap/probe_module.h"
#include "xmap/scanner.h"
#include "xmap/target_spec.h"

namespace perfbench {

using namespace xmap;

struct World {
  std::unique_ptr<sim::Network> net;
  topo::BuiltInternet internet;
  double build_s = 0;
  double prepare_s = 0;
  double rss_delta_mb = 0;
};

// topo::build_internet + Network::prepare, each under its own span
// ("topology.build", "sim.prepare").
[[nodiscard]] World build_world(Spans& spans,
                                const std::vector<topo::IspSpec>& specs,
                                const topo::BuildConfig& config);

// The scan window of one ISP as the engine and the pipelines probe it.
[[nodiscard]] scan::TargetSpec window_spec(const topo::IspInstance& isp);

// Every window of the world, in ISP order.
[[nodiscard]] std::vector<scan::TargetSpec> window_specs(
    const topo::BuiltInternet& internet);

// topology.build_s / rss_mb / devices and sim.prepare_s of `world`.
void fill_world_ledger(const World& world, Ledger& ledger);

// The address a scan with `seed` probes for device `d` of `isp`.
[[nodiscard]] net::Ipv6Address slot_probe(const topo::IspInstance& isp,
                                          const topo::DeviceRecord& d,
                                          std::uint64_t seed);

enum class Expect : std::uint8_t {
  kSelf,    // the device itself answers (echo reply or unreachable)
  kLoop,    // the probe enters a routing loop; a Time Exceeded comes back
  kSilent,  // looping flow capped by firmware: nothing comes back
};

[[nodiscard]] Expect expect_for(const sim::Network& net,
                                const topo::BuiltInternet& internet,
                                const topo::DeviceRecord& d,
                                const net::Ipv6Address& probe);

// The discovery check of a one-probe-per-delegation echo scan.
struct DiscoveryTruth {
  std::uint64_t devices = 0;       // ground-truth devices in the windows
  std::uint64_t found = 0;         // device addresses among the responders
  std::uint64_t unaccounted = 0;   // expected self-answers that never came
  // Looping probes whose Time Exceeded came from neither end of the loop.
  // A looping probe crosses the access link once per hop-limit step, so
  // on lossy links these are expected; on clean links they are misses.
  std::uint64_t loop_unaccounted = 0;
  std::uint64_t misattributed = 0; // a device answered a foreign delegation
};

[[nodiscard]] DiscoveryTruth check_discovery(
    const sim::Network& net, const topo::BuiltInternet& internet,
    const std::vector<scan::ProbeResponse>& records, std::uint64_t seed);

// A direct SimChannelScanner run on a world nobody has run yet: the
// engine's worker body without the engine, so the substrate's own
// counters (events, hops, bulk mode, clamps, fault drops) are readable.
struct SimReplay {
  scan::ScanStats stats;
  std::vector<scan::ProbeResponse> records;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
  bool bulk = false;
  std::uint64_t clamped = 0;
  std::uint64_t fault_drops = 0;
  double run_s = 0;
};

[[nodiscard]] SimReplay run_sim_replay(Spans& spans, World& world,
                                       const scan::ScanConfig& config,
                                       const scan::ProbeModule& module,
                                       const sim::FaultPlan& faults,
                                       const net::Ipv6Prefix& vantage);

// The scanner source and vantage every workload uses.
[[nodiscard]] net::Ipv6Address scan_source();
[[nodiscard]] net::Ipv6Prefix scan_vantage();

}  // namespace perfbench
