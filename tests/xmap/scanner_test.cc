// Integration tests: the scanner engine against the built synthetic
// Internet — the paper's discovery methodology end to end.
#include "xmap/scanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/config.h"
#include "obs/metrics.h"
#include "topology/builder.h"
#include "topology/paper_profiles.h"
#include "xmap/results.h"

namespace xmap::scan {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using net::Uint128;

const Ipv6Address kScannerAddr = *Ipv6Address::parse("2001:500::1");
const Ipv6Prefix kVantagePrefix = *Ipv6Prefix::parse("2001:500::/48");

struct ScanWorld {
  sim::Network net{101};
  topo::BuiltInternet internet;

  explicit ScanWorld(int window_bits = 8, std::uint64_t seed = 42)
      : internet([&] {
          topo::BuildConfig cfg;
          cfg.window_bits = window_bits;
          cfg.seed = seed;
          return topo::build_internet(net, topo::paper::isp_specs(),
                                      topo::paper::vendor_catalog(), cfg);
        }()) {}

  // Runs a discovery scan over the given ISP indices; returns the collector.
  ResultCollector scan(std::initializer_list<int> isp_indices,
                       const ProbeModule& module, double pps = 1e6,
                       int shard = 0, int shards = 1) {
    ScanConfig cfg;
    for (int i : isp_indices) {
      const auto& isp = internet.isps[static_cast<std::size_t>(i)];
      cfg.targets.push_back(TargetSpec{isp.scan_base, isp.window_lo,
                                       isp.window_hi});
    }
    cfg.source = kScannerAddr;
    cfg.seed = 7;
    cfg.probes_per_sec = pps;
    cfg.shard = shard;
    cfg.shards = shards;
    auto* scanner = net.make_node<SimChannelScanner>(cfg, module);
    const int iface =
        topo::attach_vantage(net, internet, scanner, kVantagePrefix);
    scanner->set_iface(iface);
    ResultCollector collector;
    scanner->on_response(
        [&collector](const ProbeResponse& r, sim::SimTime) {
          collector.add(r);
        });
    scanner->start();
    net.run();
    last_stats = scanner->stats();
    return collector;
  }

  ScanStats last_stats;
};

TEST(ScannerIntegration, DiscoversEssentiallyAllPeripheries) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  auto collector = world.scan({0}, probe);  // Reliance Jio block

  const auto& isp = world.internet.isps[0];
  // One probe per slot.
  EXPECT_EQ(world.last_stats.sent, 256u);
  // Expected responders: the device WAN addresses.
  std::unordered_set<Ipv6Address> expected;
  for (const auto& dev : isp.devices) expected.insert(dev.address);

  std::unordered_set<Ipv6Address> found;
  for (const auto& hop : collector.last_hops()) found.insert(hop.address);

  // Every found last hop is a real device; discovery covers ~all devices
  // (vulnerable loop-wan devices may surface via Time Exceeded from the
  // ISP instead — rare at Jio's loop rate).
  std::size_t known = 0;
  for (const auto& addr : found) {
    known += expected.count(addr);
  }
  EXPECT_GE(found.size(), expected.size() * 95 / 100);
  EXPECT_EQ(known, found.size()) << "scanner found non-device addresses";
}

TEST(ScannerIntegration, SameDiffSplitMatchesIspModel) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  // ISP 0 = Jio (same-dominated), ISP 5 = AT&T broadband (diff-dominated).
  auto same_side = world.scan({0}, probe);
  std::size_t same = 0, total = 0;
  for (const auto& hop : same_side.last_hops()) {
    ++total;
    if (hop.same_prefix64()) ++same;
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(total), 0.9);

  ScanWorld world2{8};
  auto diff_side = world2.scan({5}, probe);
  same = total = 0;
  for (const auto& hop : diff_side.last_hops()) {
    ++total;
    if (hop.same_prefix64()) ++same;
  }
  ASSERT_GT(total, 10u);
  EXPECT_LT(static_cast<double>(same) / static_cast<double>(total), 0.1);
}

TEST(ScannerIntegration, ChattyIspRouterIsAliasedOut) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  // ISP 1 (BSNL) answers unallocated slots from its edge router; the router
  // must show up as aliased, not as hundreds of peripheries.
  auto collector = world.scan({1}, probe);
  const auto aliased = collector.aliased();
  ASSERT_EQ(aliased.size(), 1u);
  EXPECT_EQ(aliased[0].address, world.internet.isps[1].router->address());
  for (const auto& hop : collector.last_hops()) {
    EXPECT_NE(hop.address, world.internet.isps[1].router->address());
  }
}

TEST(ScannerIntegration, ShardsUnionEqualsWholeScan) {
  IcmpEchoProbe probe{64};
  std::unordered_set<Ipv6Address> whole;
  {
    ScanWorld world{8};
    auto collector = world.scan({3}, probe);
    for (const auto& hop : collector.last_hops()) whole.insert(hop.address);
  }
  std::unordered_set<Ipv6Address> sharded;
  std::uint64_t total_sent = 0;
  for (int s = 0; s < 3; ++s) {
    ScanWorld world{8};  // identical builds (same seed)
    auto collector = world.scan({3}, probe, 1e6, s, 3);
    total_sent += world.last_stats.sent;
    for (const auto& hop : collector.last_hops()) sharded.insert(hop.address);
  }
  EXPECT_EQ(total_sent, 256u);  // shards partition the probe space
  EXPECT_EQ(sharded, whole);
}

TEST(ScannerIntegration, BlocklistSuppressesProbes) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  Blocklist blocklist;
  blocklist.block(world.internet.isps[0].scan_base);  // block everything

  ScanConfig cfg;
  const auto& isp = world.internet.isps[0];
  cfg.targets.push_back(TargetSpec{isp.scan_base, isp.window_lo,
                                   isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.blocklist = &blocklist;
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);
  scanner->start();
  world.net.run();
  EXPECT_EQ(scanner->stats().sent, 0u);
  EXPECT_EQ(scanner->stats().blocked, 256u);
}

TEST(ScannerIntegration, RateLimitSpreadsSendsOverTime) {
  ScanWorld world{6};  // 64 slots
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = world.internet.isps[0];
  cfg.targets.push_back(TargetSpec{isp.scan_base, isp.window_lo,
                                   isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.probes_per_sec = 64;  // 64 probes at 64 pps ≈ 1 second of sending
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);
  scanner->start();
  world.net.run();
  EXPECT_EQ(scanner->stats().sent, 64u);
  const auto duration = scanner->stats().last_send - scanner->stats().first_send;
  EXPECT_NEAR(static_cast<double>(duration) / sim::kSecond, 1.0, 0.05);
}

TEST(ScannerIntegration, MaxProbesCapsTheScan) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = world.internet.isps[0];
  cfg.targets.push_back(TargetSpec{isp.scan_base, isp.window_lo,
                                   isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.max_probes = 10;
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);
  scanner->start();
  world.net.run();
  EXPECT_EQ(scanner->stats().sent, 10u);
}

TEST(ScannerIntegration, StatsValidatedMatchesCallbacks) {
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  auto collector = world.scan({0, 5}, probe);
  EXPECT_EQ(world.last_stats.validated, collector.total_responses());
  EXPECT_GT(world.last_stats.hit_rate(), 0.05);
  EXPECT_EQ(world.last_stats.discarded + world.last_stats.validated,
            world.last_stats.received);
}

// Property: discovery completeness holds for arbitrary world/scan seeds.
class DiscoverySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscoverySeedSweep, FindsEssentiallyAllDevicesNoFalsePositives) {
  sim::Network net{GetParam()};
  topo::BuildConfig bcfg;
  bcfg.window_bits = 8;
  bcfg.seed = GetParam();
  auto internet = topo::build_internet(net, topo::paper::isp_specs(),
                                       topo::paper::vendor_catalog(), bcfg);
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = internet.isps[5];  // AT&T broadband: clean CPE block
  cfg.targets.push_back(
      TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.seed = GetParam() ^ 0xabcd;
  auto* scanner = net.make_node<SimChannelScanner>(cfg, probe);
  const int iface =
      topo::attach_vantage(net, internet, scanner, kVantagePrefix);
  scanner->set_iface(iface);
  ResultCollector collector;
  scanner->on_response(
      [&collector](const ProbeResponse& r, sim::SimTime) { collector.add(r); });
  scanner->start();
  net.run();

  std::unordered_set<Ipv6Address> truth;
  for (const auto& dev : isp.devices) truth.insert(dev.address);
  std::size_t known = 0;
  for (const auto& hop : collector.last_hops()) {
    known += truth.count(hop.address);
    EXPECT_TRUE(truth.count(hop.address))
        << "false positive " << hop.address.to_string();
  }
  EXPECT_GE(known, truth.size() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoverySeedSweep,
                         ::testing::Values(3, 1234, 98765, 0xfeedface));

TEST(ScannerIntegration, RetriesRecoverFromLossyLinks) {
  // Build a lossy world: 30% loss on core and access links. Without
  // retries a third of the periphery is missed; with retries coverage
  // recovers (stateless validation makes duplicates harmless).
  auto run = [](int retries) {
    sim::Network net{314};
    topo::BuildConfig bcfg;
    bcfg.window_bits = 8;
    bcfg.seed = 314;
    bcfg.core_link.loss = 0.3;
    auto internet = topo::build_internet(net, topo::paper::isp_specs(),
                                         topo::paper::vendor_catalog(), bcfg);
    IcmpEchoProbe probe{64};
    ScanConfig cfg;
    const auto& isp = internet.isps[5];
    cfg.targets.push_back(
        TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    cfg.source = kScannerAddr;
    cfg.retries = retries;
    auto* scanner = net.make_node<SimChannelScanner>(cfg, probe);
    const int iface =
        topo::attach_vantage(net, internet, scanner, kVantagePrefix);
    scanner->set_iface(iface);
    ResultCollector collector;
    scanner->on_response(
        [&collector](const ProbeResponse& r, sim::SimTime) {
          collector.add(r);
        });
    scanner->start();
    net.run();
    return std::pair{collector.last_hops().size(),
                     internet.isps[5].devices.size()};
  };

  const auto [found_plain, truth] = run(0);
  const auto [found_retry, truth2] = run(3);
  ASSERT_EQ(truth, truth2);
  EXPECT_LT(found_plain, truth);  // loss bites
  EXPECT_GT(found_retry, found_plain);
  EXPECT_GE(found_retry, truth * 9 / 10);  // retries recover coverage
}

TEST(ScannerIntegration, RetriesMultiplySentCount) {
  ScanWorld world{6};
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = world.internet.isps[0];
  cfg.targets.push_back(
      TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.retries = 2;
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);
  scanner->start();
  world.net.run();
  EXPECT_EQ(scanner->stats().sent, 64u * 3u);
}

TEST(ScannerIntegration, RetransmitsAreSpacedAndRespectTheRate) {
  // The pre-fix scanner emitted retry copies back to back, tripling the
  // instantaneous rate. Spaced slot pacing must keep every inter-send gap
  // at >= 1/pps and land copies ~retry_spacing_ms after their original.
  ScanWorld world{6};  // 64 targets
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = world.internet.isps[0];
  cfg.targets.push_back(
      TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.probes_per_sec = 192;
  cfg.retries = 2;
  cfg.retry_spacing_ms = 100;
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);

  // The vantage link has fixed latency and no loss, so delivery times at
  // the first hop reproduce send times shifted by a constant.
  std::vector<sim::SimTime> sends;
  world.net.set_tracer([&](sim::SimTime when, sim::NodeId from, sim::NodeId,
                           const pkt::Bytes&) {
    if (from == scanner->id()) sends.push_back(when);
  });
  scanner->start();
  world.net.run();

  EXPECT_EQ(scanner->stats().sent, 64u * 3u);
  EXPECT_EQ(scanner->stats().retransmits, 64u * 2u);
  ASSERT_EQ(sends.size(), 64u * 3u);
  std::sort(sends.begin(), sends.end());
  const auto gap =
      static_cast<sim::SimTime>(static_cast<double>(sim::kSecond) / 192.0);
  for (std::size_t i = 1; i < sends.size(); ++i) {
    // Send-rate invariant: no two packets closer than one pacing slot.
    EXPECT_GE(sends[i] - sends[i - 1], gap)
        << "burst at packet " << i;
  }
  // Aggregate rate stays at the configured pps, not pps * (1+retries).
  const auto span = sends.back() - sends.front();
  EXPECT_GE(span, static_cast<sim::SimTime>(sends.size() - 1) * gap);
}

TEST(ScannerIntegration, CooldownBoundsTheReceiveWindow) {
  // Slow links + zero cooldown: every response lands after the receive
  // deadline and is accounted `late`, never validated.
  auto run = [](double cooldown_secs) {
    sim::Network net{55};
    topo::BuildConfig bcfg;
    bcfg.window_bits = 6;
    bcfg.seed = 55;
    bcfg.core_link.latency = 300 * sim::kMillisecond;
    auto internet = topo::build_internet(net, topo::paper::isp_specs(),
                                         topo::paper::vendor_catalog(), bcfg);
    IcmpEchoProbe probe{64};
    ScanConfig cfg;
    const auto& isp = internet.isps[5];
    cfg.targets.push_back(
        TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    cfg.source = kScannerAddr;
    cfg.probes_per_sec = 1e6;
    cfg.cooldown_secs = cooldown_secs;
    auto* scanner = net.make_node<SimChannelScanner>(cfg, probe);
    const int iface =
        topo::attach_vantage(net, internet, scanner, kVantagePrefix);
    scanner->set_iface(iface);
    scanner->start();
    net.run();
    return scanner->stats();
  };

  const auto cut = run(0.0);
  EXPECT_GT(cut.received, 0u);
  EXPECT_EQ(cut.validated, 0u);
  EXPECT_EQ(cut.late, cut.received);

  const auto open = run(8.0);
  EXPECT_GT(open.validated, 0u);
  EXPECT_EQ(open.late, 0u);
}

TEST(ScannerIntegration, FaultCountersUpholdTheAccountingInvariant) {
  // Duplication + corruption + loss on access links: every received packet
  // is accounted exactly once across validated/discarded/corrupted/late,
  // and duplicate responses are flagged without double-counting.
  ScanWorld world{8};
  sim::FaultPlan plan;
  plan.access.duplicate = 1.0;
  plan.access.corrupt = 0.15;
  plan.access.loss = 0.1;
  world.net.install_faults(plan);
  IcmpEchoProbe probe{64};
  auto collector = world.scan({5}, probe);

  const auto& s = world.last_stats;
  EXPECT_GT(s.received, 0u);
  EXPECT_EQ(s.validated + s.discarded + s.corrupted + s.late, s.received);
  EXPECT_GT(s.duplicates, 0u);   // duplicate=1 echoes everything twice
  EXPECT_GT(s.corrupted, 0u);    // bit flips break checksums
  EXPECT_LE(s.duplicates, s.validated);
  // The collector still sees only real devices (no corrupted acceptances).
  std::unordered_set<Ipv6Address> truth;
  for (const auto& dev : world.internet.isps[5].devices) {
    truth.insert(dev.address);
  }
  for (const auto& hop : collector.last_hops()) {
    EXPECT_TRUE(truth.count(hop.address))
        << "corrupted packet validated: " << hop.address.to_string();
  }
}

TEST(ScannerIntegration, BulkDeliveryMatchesPerPacketPath) {
  // Free-running trains (whole channel backlogs and block sweeps per
  // dispatch) must be a pure reordering of processing, never of results:
  // over a fault-injected world (duplication + corruption keeping those
  // links in exact order, silent windows pruning deliveries), the
  // canonicalized record stream and the full accounting stats must match
  // the exact-order reference — every train stepping in per-packet
  // (when, seq) order, as a declared order observer forces. Also run with
  // a checkpoint hook armed, which declares that observer itself — same
  // requirement. No run may schedule into the past.
  auto run = [](bool exact, bool hook) {
    ScanWorld world{8};
    sim::FaultPlan plan;
    plan.access.duplicate = 0.3;
    plan.access.corrupt = 0.1;
    plan.silent.fraction = 0.25;
    plan.silent.start_ms = 5;
    sim::FaultInjector* inj = world.net.install_faults(plan);
    std::vector<sim::NodeId> candidates;
    for (const auto& dev : world.internet.isps[5].devices) {
      candidates.push_back(dev.node);
    }
    inj->choose_silent(candidates);
    world.net.set_order_observed(exact);
    IcmpEchoProbe probe{64};
    ScanConfig cfg;
    for (int i : {0, 5}) {
      const auto& isp = world.internet.isps[static_cast<std::size_t>(i)];
      cfg.targets.push_back(
          TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    }
    cfg.source = kScannerAddr;
    cfg.seed = 7;
    cfg.probes_per_sec = 1e6;
    auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
    const int iface =
        topo::attach_vantage(world.net, world.internet, scanner,
                             kVantagePrefix);
    scanner->set_iface(iface);
    std::vector<std::string> records;
    scanner->on_response_slotted(
        [&records](const ProbeResponse& r, sim::SimTime when,
                   std::uint64_t raw_slot) {
          records.push_back(std::to_string(when) + "|" +
                            r.responder.to_string() + "|" +
                            r.probe_dst.to_string() + "|" +
                            std::to_string(static_cast<int>(r.kind)) + "|" +
                            std::to_string(raw_slot));
        });
    if (hook) {
      scanner->set_checkpoint_hook(32, [](const ScanCursor&) {});
    }
    scanner->start();
    world.net.run();
    EXPECT_EQ(world.net.loop().clamped(), 0u);
    // Canonical order — downstream consumers (store, xmap_sim) sort
    // records before use, so arrival order is not part of the contract.
    std::sort(records.begin(), records.end());
    const ScanStats& s = scanner->stats();
    records.push_back("stats|" + std::to_string(s.sent) + "|" +
                      std::to_string(s.received) + "|" +
                      std::to_string(s.validated) + "|" +
                      std::to_string(s.discarded) + "|" +
                      std::to_string(s.corrupted) + "|" +
                      std::to_string(s.duplicates) + "|" +
                      std::to_string(s.late));
    return records;
  };
  const auto strict = run(/*exact=*/true, /*hook=*/false);
  ASSERT_GT(strict.size(), 40u);  // the fault world still yields records
  EXPECT_EQ(run(/*exact=*/false, /*hook=*/false), strict);
  EXPECT_EQ(run(/*exact=*/false, /*hook=*/true), strict);
}

TEST(ScannerIntegration, ConcurrentScannersOnOneNetworkEachSendEveryProbe) {
  // Two scanners started together on one network — each at its own
  // vantage, over its own ISP block — must each send and find exactly what
  // it sends and finds alone: their sweep timers dispatch by node, so
  // neither can run (or swallow) the other's probe blocks.
  struct Vantage {
    Ipv6Address source;
    Ipv6Prefix prefix;
    int isp;
  };
  const Vantage kA{kScannerAddr, kVantagePrefix, 0};
  const Vantage kB{*Ipv6Address::parse("2001:501::1"),
                   *Ipv6Prefix::parse("2001:501::/48"), 5};
  struct Result {
    std::uint64_t sent = 0;
    std::vector<std::string> records;
  };
  IcmpEchoProbe probe{64};
  const auto attach = [&probe](ScanWorld& world, const Vantage& v,
                               Result& out) {
    const auto& isp = world.internet.isps[static_cast<std::size_t>(v.isp)];
    ScanConfig cfg;
    cfg.targets.push_back(
        TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    cfg.source = v.source;
    cfg.seed = 7;
    cfg.probes_per_sec = 1e6;
    auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
    scanner->set_iface(
        topo::attach_vantage(world.net, world.internet, scanner, v.prefix));
    scanner->on_response([&out](const ProbeResponse& r, sim::SimTime when) {
      out.records.push_back(std::to_string(when) + "|" +
                            r.responder.to_string() + "|" +
                            r.probe_dst.to_string() + "|" +
                            std::to_string(static_cast<int>(r.kind)));
    });
    return scanner;
  };
  const auto alone = [&attach](const Vantage& v) {
    ScanWorld world{8};
    Result r;
    SimChannelScanner* scanner = attach(world, v, r);
    scanner->start();
    world.net.run();
    r.sent = scanner->stats().sent;
    std::sort(r.records.begin(), r.records.end());
    return r;
  };
  const Result solo_a = alone(kA);
  const Result solo_b = alone(kB);
  ASSERT_EQ(solo_a.sent, 256u);
  ASSERT_EQ(solo_b.sent, 256u);
  ASSERT_GT(solo_a.records.size(), 10u);
  ASSERT_GT(solo_b.records.size(), 10u);

  ScanWorld world{8};
  Result a;
  Result b;
  SimChannelScanner* sa = attach(world, kA, a);
  SimChannelScanner* sb = attach(world, kB, b);
  sa->start();
  sb->start();
  world.net.run();
  std::sort(a.records.begin(), a.records.end());
  std::sort(b.records.begin(), b.records.end());
  EXPECT_EQ(sa->stats().sent, solo_a.sent);
  EXPECT_EQ(sb->stats().sent, solo_b.sent);
  EXPECT_EQ(a.records, solo_a.records);
  EXPECT_EQ(b.records, solo_b.records);
  EXPECT_EQ(world.net.loop().clamped(), 0u);
}

TEST(ScannerIntegration, SecondScanOnOneNetworkSendsFromItsStart) {
  // A scanner started on a network whose clock already ran (a follow-up
  // pass, a second pipeline) must count its send slots from its own start:
  // nothing scheduled into the past, a forward send window, responses no
  // earlier than the start — and the same records the first scan found.
  ScanWorld world{8};
  IcmpEchoProbe probe{64};
  struct Run {
    sim::SimTime start = 0;
    sim::SimTime first_when = ~sim::SimTime{0};
    std::uint64_t clamped = 0;
    ScanStats stats;
    std::vector<std::string> records;
  };
  const auto run = [&world, &probe](Run& r) {
    ScanConfig cfg;
    for (int i : {0, 5}) {
      const auto& isp = world.internet.isps[static_cast<std::size_t>(i)];
      cfg.targets.push_back(
          TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    }
    cfg.source = kScannerAddr;
    cfg.seed = 7;
    cfg.probes_per_sec = 1e6;
    auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
    scanner->set_iface(topo::attach_vantage(world.net, world.internet,
                                            scanner, kVantagePrefix));
    scanner->on_response([&r](const ProbeResponse& resp, sim::SimTime when) {
      r.first_when = std::min(r.first_when, when);
      r.records.push_back(resp.responder.to_string() + "|" +
                          resp.probe_dst.to_string() + "|" +
                          std::to_string(static_cast<int>(resp.kind)));
    });
    r.start = world.net.now();
    const std::uint64_t clamped_before = world.net.loop().clamped();
    scanner->start();
    world.net.run();
    r.clamped = world.net.loop().clamped() - clamped_before;
    r.stats = scanner->stats();
    std::sort(r.records.begin(), r.records.end());
  };
  Run first;
  Run second;
  run(first);
  run(second);
  ASSERT_GT(first.records.size(), 40u);
  EXPECT_EQ(first.clamped, 0u);
  ASSERT_GT(second.start, 0u);
  EXPECT_EQ(second.clamped, 0u);
  EXPECT_EQ(second.stats.first_send, second.start);
  EXPECT_LE(second.stats.first_send, second.stats.last_send);
  EXPECT_GE(second.first_when, second.start);
  EXPECT_EQ(second.records, first.records);
}

// Probe provenance through the slotted callback: every record's probe
// address with the raw slot it was reported under, plus the scanner's miss
// count and the RTT histogram's sample count (metrics on). One ISP at `window_bits`, `core_latency` per core link.
// `exact_order` installs a (no-op) checkpoint hook, which pins the network
// to exact (when, seq) processing; otherwise trains run free and deliver
// responses ahead of their stamps.
struct SlotRun {
  std::map<Ipv6Address, std::uint64_t> slot_of;
  std::uint64_t records = 0;
  std::uint64_t unslotted = 0;
  std::uint64_t misses = 0;
  std::uint64_t validated = 0;
  std::uint64_t rtt_samples = 0;
};

SlotRun slotted_scan(int window_bits, double pps, bool exact_order,
                     sim::SimTime core_latency = 0) {
  sim::Network net{101};
  topo::BuildConfig bcfg;
  bcfg.window_bits = window_bits;
  bcfg.seed = 42;
  if (core_latency != 0) bcfg.core_link.latency = core_latency;
  auto internet = topo::build_internet(net, topo::paper::isp_specs(),
                                       topo::paper::vendor_catalog(), bcfg);
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = internet.isps[5];
  cfg.targets.push_back(
      TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.seed = 7;
  cfg.probes_per_sec = pps;
  auto* scanner = net.make_node<SimChannelScanner>(cfg, probe);
  scanner->set_iface(
      topo::attach_vantage(net, internet, scanner, kVantagePrefix));
  obs::ObsConfig obs_config;
  obs_config.metrics = true;
  obs::MetricsShard metrics;
  scanner->set_obs(obs_config, nullptr, &metrics, nullptr);
  SlotRun run;
  scanner->on_response_slotted([&run](const ProbeResponse& r, sim::SimTime,
                                      std::uint64_t raw_slot) {
    ++run.records;
    if (raw_slot == kNoBudgetCut) {
      ++run.unslotted;
      return;
    }
    const auto [it, inserted] = run.slot_of.emplace(r.probe_dst, raw_slot);
    EXPECT_TRUE(inserted || it->second == raw_slot)
        << r.probe_dst.to_string();
  });
  if (exact_order) scanner->set_checkpoint_hook(64, [](const ScanCursor&) {});
  scanner->start();
  net.run();
  run.misses = scanner->stats().provenance_misses;
  run.validated = scanner->stats().validated;
  for (const auto& [key, series] : metrics.series()) {
    if (key.first == "icmp_rtt_sim_ns") {
      run.rtt_samples = series.histogram->count();
    }
  }
  return run;
}

TEST(ScannerIntegration, ProvenanceIsExactWhetherTheWindowRotatesOrNot) {
  // raw_slot is a pure function of the permutation, not of the rate. At
  // 1 Mpps the two-second settle window spans the whole scan (one table);
  // at 200 pps a generation is ~900 slots of the 16k-slot scan, so the
  // window rotates over a dozen times. Every run must report the same
  // slot for every probe, with no miss, in free and in exact order.
  const SlotRun whole = slotted_scan(14, 1e6, /*exact_order=*/false);
  ASSERT_GT(whole.slot_of.size(), 1000u);
  EXPECT_EQ(whole.misses, 0u);
  EXPECT_EQ(whole.unslotted, 0u);
  EXPECT_EQ(whole.rtt_samples, whole.validated);
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact order" : "free running");
    const SlotRun rotating = slotted_scan(14, 200, exact);
    EXPECT_EQ(rotating.misses, 0u);
    EXPECT_EQ(rotating.unslotted, 0u);
    EXPECT_EQ(rotating.rtt_samples, rotating.validated);
    EXPECT_EQ(rotating.records, whole.records);
    EXPECT_EQ(rotating.slot_of, whole.slot_of);
  }
}

TEST(ScannerIntegration, ResponsePastTheProvenanceWindowIsACountedMiss) {
  // 1.5 s per core link puts every round trip at 3 s, past the two-second
  // response horizon. At 2000 pps a generation is ~4.5k slots (2.26 s),
  // and in exact order a generation is dropped about 2.1 s after its last
  // send, before the late answers to its tail arrive: those are misses,
  // counted and reported with kNoBudgetCut instead of a wrong slot. At
  // 1 Mpps the window covers the whole scan and nothing is dropped.
  const sim::SimTime slow = 1500 * sim::kMillisecond;
  const SlotRun late = slotted_scan(14, 2000, /*exact_order=*/true, slow);
  ASSERT_GT(late.records, 0u);
  EXPECT_GT(late.misses, 0u);
  EXPECT_EQ(late.unslotted, late.misses);
  // A miss has no send time either: it is left out of the RTT histogram.
  EXPECT_EQ(late.rtt_samples, late.validated - late.misses);
  const SlotRun covered = slotted_scan(14, 1e6, /*exact_order=*/true, slow);
  EXPECT_EQ(covered.records, late.records);
  EXPECT_EQ(covered.misses, 0u);
  EXPECT_EQ(covered.unslotted, 0u);
  EXPECT_EQ(covered.rtt_samples, covered.validated);
  // Where provenance was found it is still the exact slot.
  for (const auto& [dst, slot] : late.slot_of) {
    const auto it = covered.slot_of.find(dst);
    ASSERT_NE(it, covered.slot_of.end()) << dst.to_string();
    EXPECT_EQ(it->second, slot) << dst.to_string();
  }
}

TEST(ScannerIntegration, AdaptiveRateBacksOffWhenHitRateCollapses) {
  // Every CPE goes silent one second into the scan: the windowed hit rate
  // collapses to zero and the AIMD controller must halve the rate at least
  // once (counted in rate_adjustments) while still covering every target.
  ScanWorld world{8};
  sim::FaultPlan plan;
  plan.silent.fraction = 1.0;
  plan.silent.start_ms = 1000;
  sim::FaultInjector* inj = world.net.install_faults(plan);
  std::vector<sim::NodeId> cpes;
  for (const auto& dev : world.internet.isps[5].devices) {
    cpes.push_back(dev.node);
  }
  inj->choose_silent(cpes);
  IcmpEchoProbe probe{64};
  ScanConfig cfg;
  const auto& isp = world.internet.isps[5];
  cfg.targets.push_back(
      TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = kScannerAddr;
  cfg.probes_per_sec = 64;  // ~4s of sending: several 500ms windows
  cfg.adaptive_rate = true;
  auto* scanner = world.net.make_node<SimChannelScanner>(cfg, probe);
  const int iface = topo::attach_vantage(world.net, world.internet, scanner,
                                         kVantagePrefix);
  scanner->set_iface(iface);
  scanner->start();
  world.net.run();
  EXPECT_GT(scanner->stats().rate_adjustments, 0u);
  EXPECT_EQ(scanner->stats().sent, 256u);  // backoff delays, never drops
}

TEST(ResultCollectorUnit, DedupAndCounts) {
  ResultCollector collector{2};
  ProbeResponse r;
  r.kind = ResponseKind::kDestUnreachable;
  r.responder = *Ipv6Address::parse("3fff::1");
  r.probe_dst = *Ipv6Address::parse("3fff::2");
  collector.add(r);
  collector.add(r);
  EXPECT_EQ(collector.total_responses(), 2u);
  EXPECT_EQ(collector.unique_responders(), 1u);
  EXPECT_EQ(collector.count_of(ResponseKind::kDestUnreachable), 2u);
  ASSERT_EQ(collector.last_hops().size(), 1u);
  EXPECT_EQ(collector.last_hops()[0].responses, 2u);
  // Exceed the alias threshold.
  collector.add(r);
  EXPECT_TRUE(collector.last_hops().empty());
  ASSERT_EQ(collector.aliased().size(), 1u);
}

TEST(ResultCollectorUnit, MergeUnionsResponderMapsExactly) {
  ProbeResponse r;
  r.kind = ResponseKind::kDestUnreachable;
  r.responder = *Ipv6Address::parse("3fff::1");
  r.probe_dst = *Ipv6Address::parse("3fff::2");

  // Split the same response stream across two collectors (two workers)...
  ResultCollector left{2};
  ResultCollector right{2};
  left.add(r);
  left.add(r);
  right.add(r);
  ProbeResponse other = r;
  other.responder = *Ipv6Address::parse("3fff::99");
  right.add(other);

  // ...the merged union must classify like a single collector that saw all
  // four: 3fff::1 crossed the alias threshold only across the shards.
  left.merge(right);
  EXPECT_EQ(left.total_responses(), 4u);
  EXPECT_EQ(left.count_of(ResponseKind::kDestUnreachable), 4u);
  EXPECT_EQ(left.unique_responders(), 2u);
  ASSERT_EQ(left.aliased().size(), 1u);
  EXPECT_EQ(left.aliased()[0].responses, 3u);
  ASSERT_EQ(left.last_hops().size(), 1u);
  EXPECT_EQ(left.last_hops()[0].address, other.responder);

  // Merging an empty collector is a no-op.
  const std::uint64_t before = left.total_responses();
  left.merge(ResultCollector{2});
  EXPECT_EQ(left.total_responses(), before);
}

TEST(ResultCollectorUnit, SamePrefix64Flag) {
  ProbeResponse same;
  same.responder = *Ipv6Address::parse("3fff:1:2:3::aa");
  same.probe_dst = *Ipv6Address::parse("3fff:1:2:3::bb");
  ProbeResponse diff;
  diff.responder = *Ipv6Address::parse("3fff:1:2:4::aa");
  diff.probe_dst = *Ipv6Address::parse("3fff:1:2:3::bb");
  ResultCollector collector;
  collector.add(same);
  collector.add(diff);
  int same_count = 0;
  for (const auto& hop : collector.last_hops()) {
    if (hop.same_prefix64()) ++same_count;
  }
  EXPECT_EQ(same_count, 1);
}

}  // namespace
}  // namespace xmap::scan
