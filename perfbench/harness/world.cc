#include "world.h"

#include <unordered_set>

#include "common.h"
#include "topology/devices.h"
#include "topology/paper_profiles.h"

namespace perfbench {

net::Ipv6Address scan_source() {
  return *net::Ipv6Address::parse("2001:500::1");
}

net::Ipv6Prefix scan_vantage() {
  return *net::Ipv6Prefix::parse("2001:500::/48");
}

World build_world(Spans& spans, const std::vector<topo::IspSpec>& specs,
                  const topo::BuildConfig& config) {
  World world;
  const double rss0 = current_rss_mb();
  auto t0 = Clock::now();
  {
    Spans::Scope span{spans, "topology.build"};
    world.net = std::make_unique<sim::Network>(config.seed);
    world.internet = topo::build_internet(*world.net, specs,
                                          topo::paper::vendor_catalog(),
                                          config);
  }
  world.build_s = seconds_since(t0);
  world.rss_delta_mb = current_rss_mb() - rss0;
  t0 = Clock::now();
  {
    Spans::Scope span{spans, "sim.prepare"};
    world.net->prepare();
  }
  world.prepare_s = seconds_since(t0);
  return world;
}

void fill_world_ledger(const World& world, Ledger& ledger) {
  ledger["topology.build_s"] = {world.build_s, "s"};
  ledger["topology.rss_mb"] = {world.rss_delta_mb, "MB"};
  ledger["topology.devices"] = {
      static_cast<double>(world.internet.total_devices()), "count"};
  ledger["sim.prepare_s"] = {world.prepare_s, "s"};
}

scan::TargetSpec window_spec(const topo::IspInstance& isp) {
  return scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi};
}

std::vector<scan::TargetSpec> window_specs(
    const topo::BuiltInternet& internet) {
  std::vector<scan::TargetSpec> specs;
  for (const auto& isp : internet.isps) specs.push_back(window_spec(isp));
  return specs;
}

net::Ipv6Address slot_probe(const topo::IspInstance& isp,
                            const topo::DeviceRecord& d, std::uint64_t seed) {
  const int width = isp.window_hi - isp.window_lo;
  const net::Uint128 mask = (net::Uint128{1} << width) - net::Uint128{1};
  const net::Uint128 index =
      (d.slot.address().value() >> (128 - isp.window_hi)) & mask;
  return window_spec(isp).nth_address(index, seed);
}

Expect expect_for(const sim::Network& net, const topo::BuiltInternet& internet,
                  const topo::DeviceRecord& d, const net::Ipv6Address& probe) {
  const auto* cpe = dynamic_cast<const topo::CpeRouter*>(net.node(d.node));
  if (cpe == nullptr) return Expect::kSelf;  // UEs answer for their /64
  // Mirrors the forwarding precedence a CPE applies to inbound traffic.
  const auto& cfg = cpe->config();
  const net::Ipv6Address lan_gw =
      cfg.subnet_prefix.address_with_suffix(net::Uint128{1});
  bool looping = false;
  if (probe == cfg.wan_address || probe == lan_gw ||
      cfg.subnet_prefix.contains(probe)) {
    looping = false;
  } else if (cfg.lan_prefix.contains(probe)) {
    looping = cfg.loop_lan;
  } else if (cfg.wan_prefix.contains(probe)) {
    looping = cfg.loop_wan;
  }
  if (!looping) return Expect::kSelf;
  return internet.vendor(d.vendor).loop_cap >= 0 ? Expect::kSilent
                                                 : Expect::kLoop;
}

DiscoveryTruth check_discovery(const sim::Network& net,
                               const topo::BuiltInternet& internet,
                               const std::vector<scan::ProbeResponse>& records,
                               std::uint64_t seed) {
  // responder -> probe destinations it answered; Time Exceeded probes.
  std::unordered_map<net::Ipv6Address, std::vector<net::Ipv6Address>> by_responder;
  std::unordered_set<net::Ipv6Address> looped;
  by_responder.reserve(records.size());
  for (const auto& r : records) {
    by_responder[r.responder].push_back(r.probe_dst);
    if (r.kind == scan::ResponseKind::kTimeExceeded) looped.insert(r.probe_dst);
  }
  DiscoveryTruth truth;
  for (const auto& isp : internet.isps) {
    for (const auto& d : isp.devices) {
      ++truth.devices;
      const net::Ipv6Address probe = slot_probe(isp, d, seed);
      const auto it = by_responder.find(d.address);
      const bool found = it != by_responder.end();
      if (found) {
        ++truth.found;
        for (const auto& dst : it->second) {
          if (!d.slot.contains(dst)) ++truth.misattributed;
        }
      }
      switch (expect_for(net, internet, d, probe)) {
        case Expect::kSelf:
          if (!found) ++truth.unaccounted;
          break;
        case Expect::kLoop:
          // Which end of the loop emits the Time Exceeded depends on the
          // hop limit's parity; either end proves the loop was reached.
          if (!found && looped.count(probe) == 0) ++truth.loop_unaccounted;
          break;
        case Expect::kSilent:
          break;
      }
    }
  }
  return truth;
}

SimReplay run_sim_replay(Spans& spans, World& world,
                         const scan::ScanConfig& config,
                         const scan::ProbeModule& module,
                         const sim::FaultPlan& faults,
                         const net::Ipv6Prefix& vantage) {
  sim::Network& net = *world.net;
  if (faults.any()) {
    // Same silent-window candidates as the engine's and fabric's workers.
    sim::FaultInjector* injector = net.install_faults(faults);
    std::vector<sim::NodeId> candidates;
    for (const auto& isp : world.internet.isps) {
      for (const auto& d : isp.devices) candidates.push_back(d.node);
    }
    injector->choose_silent(candidates);
  }
  scan::ScanConfig cfg = config;
  if (cfg.targets.empty()) cfg.targets = window_specs(world.internet);
  auto* scanner = net.make_node<scan::SimChannelScanner>(cfg, module);
  scanner->set_iface(topo::attach_vantage(net, world.internet, scanner,
                                          vantage));
  SimReplay replay;
  scanner->on_response([&replay](const scan::ProbeResponse& r, sim::SimTime) {
    replay.records.push_back(r);
  });
  net.prepare();
  const std::uint64_t events0 = net.loop().events_processed();
  const std::uint64_t hops0 = net.packets_delivered();
  const auto t0 = Clock::now();
  {
    Spans::Scope span{spans, "sim.replay_scan"};
    scanner->start();
    net.run();
  }
  replay.run_s = seconds_since(t0);
  replay.stats = scanner->stats();
  replay.events = net.loop().events_processed() - events0;
  replay.hops = net.packets_delivered() - hops0;
  replay.bulk = net.bulk_mode();
  replay.clamped = net.loop().clamped();
  replay.fault_drops =
      net.faults() != nullptr ? net.faults()->stats().dropped_total() : 0;
  return replay;
}

}  // namespace perfbench
