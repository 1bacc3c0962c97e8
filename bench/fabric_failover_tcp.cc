// TCP-transport fail-over cost: the fabric_failover scenarios with every
// frame on a real socket. Three runs are timed — clean over TCP,
// kill-and-migrate (a worker killed mid-shard, heartbeat-timeout death,
// lease migration), and kill-and-reconnect (the worker's connection cut
// mid-frame by the chaos proxy; the rejoin handshake resumes the same
// lease with no failover) — and the deltas are what socket recovery costs
// end to end: TCP overhead itself (clean tcp / clean loopback), migration
// under a socket transport, and the much cheaper reconnect path.
//
// Byte identity is asserted before anything is reported: all three TCP
// merges must equal the loopback clean merge, and the reconnect run must
// show zero reassignments (a reconnect that quietly migrated is a failed
// measurement, not a fast one).
//
// XMAP_WINDOW_BITS overrides the world size; XMAP_REPS the repetitions
// (median reported, default 3). Emits BENCH_fabric_failover_tcp.json for
// tools/check_bench_regression.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fabric/chaos_proxy.h"
#include "fabric/coordinator.h"
#include "fabric/tcp_transport.h"
#include "topology/paper_profiles.h"

namespace {

using namespace xmap;

fabric::FabricConfig make_config(int window_bits, bool tcp) {
  static const scan::IcmpEchoProbe module{64};
  fabric::FabricConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = window_bits;
  cfg.build.seed = 42;
  cfg.module = &module;
  cfg.scan.source = *net::Ipv6Address::parse("2001:500::1");
  cfg.scan.seed = 7;
  // Sim-paced slowly enough that checkpoints carry a nonzero stable
  // cursor (see fabric_failover.cc); sim time costs no wall clock.
  cfg.scan.probes_per_sec = 1000;
  cfg.nodes = 4;
  cfg.shards = 8;
  cfg.checkpoint_interval_targets = 64;
  if (tcp) cfg.transport = fabric::TransportKind::kTcp;
  return cfg;
}

std::string fingerprint(const fabric::FabricResult& result) {
  std::ostringstream out;
  for (const auto& rec : result.records) {
    out << rec.when << '|' << rec.response.responder.to_string() << '|'
        << rec.response.probe_dst.to_string() << '|' << rec.shard << '|'
        << rec.raw_slot << '\n';
  }
  return out.str();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main() {
  int window_bits = 8;
  if (const char* env = std::getenv("XMAP_WINDOW_BITS")) {
    window_bits = std::atoi(env);
  }
  int reps = 3;
  if (const char* env = std::getenv("XMAP_REPS")) reps = std::atoi(env);

  const std::uint64_t kill_slot = 3000;
  std::vector<double> clean_wall, migrate_wall, reconnect_wall;
  std::uint64_t reconnects = 0, bytes_on_wire = 0;

  auto loopback = fabric::run_fabric_scan(make_config(window_bits, false));
  if (!loopback.ok || loopback.failed) {
    std::fprintf(stderr, "loopback reference failed: %s\n",
                 loopback.error.c_str());
    return 1;
  }
  const std::string expect = fingerprint(loopback);

  for (int rep = 0; rep < reps; ++rep) {
    auto clean = fabric::run_fabric_scan(make_config(window_bits, true));
    if (!clean.ok || clean.failed || fingerprint(clean) != expect) {
      std::fprintf(stderr, "BYTE-IDENTITY VIOLATION: clean tcp run (rep %d): %s\n",
                   rep, clean.error.c_str());
      return 1;
    }
    clean_wall.push_back(clean.wall_seconds);
    bytes_on_wire = clean.bytes_sent + clean.bytes_received;

    auto mcfg = make_config(window_bits, true);
    mcfg.kills.push_back(
        fabric::NodeKill{1, kill_slot, /*close_transport=*/true});
    auto migrated = fabric::run_fabric_scan(mcfg);
    if (!migrated.ok || migrated.failed || fingerprint(migrated) != expect) {
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: kill+migrate tcp run (rep %d): "
                   "%s\n", rep, migrated.error.c_str());
      return 1;
    }
    migrate_wall.push_back(migrated.wall_seconds);

    // Kill-and-reconnect: node 1's link is cut mid-frame; the rejoin
    // handshake must land inside the heartbeat timeout and resume the
    // same lease.
    auto rcfg = make_config(window_bits, true);
    std::unique_ptr<fabric::ChaosProxy> proxy;
    rcfg.tcp_worker_tweak = [&proxy](int node,
                                     fabric::TcpWorkerOptions& opts) {
      if (node != 1) return;
      fabric::ChaosProxyOptions popts;
      popts.upstream = opts.connect_address;
      popts.cut_connection = 0;
      popts.cut_after_frames = 4;
      popts.cut_frame_bytes = 3;
      std::string error;
      proxy = fabric::ChaosProxy::create(std::move(popts), error);
      if (proxy == nullptr) {
        std::fprintf(stderr, "chaos proxy: %s\n", error.c_str());
        std::exit(1);
      }
      opts.connect_address = proxy->address();
    };
    auto reconnected = fabric::run_fabric_scan(rcfg);
    if (proxy != nullptr) proxy->stop();
    if (!reconnected.ok || reconnected.failed ||
        fingerprint(reconnected) != expect) {
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: kill+reconnect tcp run "
                   "(rep %d): %s\n", rep, reconnected.error.c_str());
      return 1;
    }
    if (reconnected.reassignments != 0 || reconnected.reconnects == 0) {
      std::fprintf(stderr,
                   "reconnect run degraded to failover (rep %d): "
                   "%llu reassignments, %llu reconnects\n", rep,
                   static_cast<unsigned long long>(reconnected.reassignments),
                   static_cast<unsigned long long>(reconnected.reconnects));
      return 1;
    }
    reconnect_wall.push_back(reconnected.wall_seconds);
    reconnects = reconnected.reconnects;
  }

  const double clean_s = median(clean_wall);
  const double migrate_s = median(migrate_wall);
  const double reconnect_s = median(reconnect_wall);
  const double tcp_overhead = clean_s / loopback.wall_seconds;

  std::printf("fabric fail-over over TCP (window_bits %d, 4 nodes, 8 "
              "shards, kill node 1 at slot %llu)\n", window_bits,
              static_cast<unsigned long long>(kill_slot));
  std::printf("  %-30s %8.3f s\n", "clean tcp wall (median)", clean_s);
  std::printf("  %-30s %8.2fx\n", "tcp/loopback clean ratio", tcp_overhead);
  std::printf("  %-30s %8.3f s\n", "kill+migrate wall (median)", migrate_s);
  std::printf("  %-30s %8.3f s\n", "kill+reconnect wall (median)",
              reconnect_s);
  std::printf("  %-30s %8.2fx\n", "migrate ratio", migrate_s / clean_s);
  std::printf("  %-30s %8.2fx\n", "reconnect ratio", reconnect_s / clean_s);
  std::printf("  %-30s %8llu\n", "stream bytes (clean run)",
              static_cast<unsigned long long>(bytes_on_wire));
  std::printf("  %-30s %8llu\n", "rejoins in reconnect run",
              static_cast<unsigned long long>(reconnects));
  std::printf("  byte-identity: OK (%d reps, all three scenarios)\n", reps);

  bench::BenchJson json("fabric_failover_tcp");
  json.add("clean_tcp_wall_seconds", clean_s, "s",
           /*higher_is_better=*/false);
  json.add("migrate_wall_seconds", migrate_s, "s",
           /*higher_is_better=*/false);
  json.add("reconnect_wall_seconds", reconnect_s, "s",
           /*higher_is_better=*/false);
  json.add("reconnect_ratio", reconnect_s / clean_s, "x",
           /*higher_is_better=*/false);
  json.write();
  return 0;
}
