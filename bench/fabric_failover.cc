// Fabric fail-over cost: wall-clock of a distributed scan with no failures
// versus the same scan with one node killed mid-shard (connection-drop
// detection) — the delta is what a migration costs end to end: death
// detection, re-lease, cursor fast-forward, and the re-scan of the tail of
// the dead shard. Also reports the recovery ratio (failover wall / clean
// wall; 1.0 = free) and the fraction of slots saved by resuming from the
// streamed checkpoint instead of rescanning the whole shard.
//
// The merged outputs are asserted byte-identical before anything is
// reported — a fast failover that corrupts the merge is not a result.
//
// XMAP_WINDOW_BITS overrides the world size; XMAP_REPS the repetitions
// (median reported, default 3). Emits BENCH_fabric_failover.json for
// tools/check_bench_regression.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fabric/coordinator.h"
#include "topology/paper_profiles.h"

namespace {

using namespace xmap;

fabric::FabricConfig make_config(int window_bits) {
  static const scan::IcmpEchoProbe module{64};
  fabric::FabricConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = window_bits;
  cfg.build.seed = 42;
  cfg.module = &module;
  cfg.scan.source = *net::Ipv6Address::parse("2001:500::1");
  cfg.scan.seed = 7;
  // Sim-paced slowly enough that probe lifecycles complete mid-scan and
  // checkpoints carry a nonzero stable cursor — the failover then
  // exercises the fast-forward resume, not a full shard rescan. Sim time
  // costs no wall clock; the event count is what's measured.
  cfg.scan.probes_per_sec = 1000;
  cfg.nodes = 4;
  cfg.shards = 8;
  cfg.checkpoint_interval_targets = 64;
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

  std::vector<double> clean_wall, failover_wall;
  std::uint64_t resumed_slots = 0, kill_slot = 3000;
  std::string clean_print, failover_print;
  for (int rep = 0; rep < reps; ++rep) {
    auto clean = fabric::run_fabric_scan(make_config(window_bits));
    if (!clean.ok || clean.failed) {
      std::fprintf(stderr, "clean run failed: %s\n", clean.error.c_str());
      return 1;
    }
    clean_wall.push_back(clean.wall_seconds);
    clean_print = fingerprint(clean);

    auto cfg = make_config(window_bits);
    cfg.kills.push_back(
        fabric::NodeKill{1, kill_slot, /*close_transport=*/true});
    auto failed_over = fabric::run_fabric_scan(cfg);
    if (!failed_over.ok || failed_over.failed) {
      std::fprintf(stderr, "failover run failed: %s\n",
                   failed_over.error.c_str());
      return 1;
    }
    failover_wall.push_back(failed_over.wall_seconds);
    failover_print = fingerprint(failed_over);
    resumed_slots = failed_over.resumed_slots;

    if (clean_print != failover_print) {
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: failover merge differs from "
                   "the clean merge (rep %d)\n", rep);
      return 1;
    }
  }

  const double clean_s = median(clean_wall);
  const double failover_s = median(failover_wall);
  const double ratio = failover_s / clean_s;

  std::printf("fabric fail-over (window_bits %d, 4 nodes, 8 shards, "
              "kill node 1 at slot %llu)\n", window_bits,
              static_cast<unsigned long long>(kill_slot));
  std::printf("  %-28s %8.3f s\n", "clean wall (median)", clean_s);
  std::printf("  %-28s %8.3f s\n", "kill+migrate wall (median)", failover_s);
  std::printf("  %-28s %8.2fx\n", "recovery ratio", ratio);
  std::printf("  %-28s %8llu\n", "slots resumed from checkpoint",
              static_cast<unsigned long long>(resumed_slots));
  std::printf("  byte-identity: OK (%d reps)\n", reps);

  bench::BenchJson json("fabric_failover");
  json.add("clean_wall_seconds", clean_s, "s", /*higher_is_better=*/false);
  json.add("failover_wall_seconds", failover_s, "s",
           /*higher_is_better=*/false);
  json.add("recovery_ratio", ratio, "x", /*higher_is_better=*/false);
  json.write();
  return 0;
}
