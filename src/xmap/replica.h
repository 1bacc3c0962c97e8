// The deterministic scan replica every bulk executor runs.
//
// The world is a pure function of (specs, BuildConfig) and the fault plan
// is keyed per node, so any thread or process that builds a replica from
// the same inputs gets the same network, the same faults and the same
// scanner — which is what lets the parallel engine's workers and the
// fabric's shard leases each walk a slice of one permutation and still
// merge byte-identical results.
#pragma once

#include <vector>

#include "sim/faults.h"
#include "topology/builder.h"
#include "xmap/scanner.h"

namespace xmap::scan {

// Installs `plan` (if any dial is set) on `net`, with every periphery
// device of `internet` a silent-window candidate. The injector picks the
// configured fraction with a keyed per-node coin, so the selection is
// identical in every replica.
void install_world_faults(sim::Network& net,
                          const topo::BuiltInternet& internet,
                          const sim::FaultPlan& plan);

// The bulk-scan preparation every executor runs once on the machine
// shard's config, before any replica starts: empty `targets` become every
// block of the world (window placement is a pure function of the spec, so
// no throwaway world build), the blocklist index is compiled (every
// replica reads it), and `max_probes` becomes one budget cut at a fixed
// permutation slot, so a capped scan is byte-identical however the machine
// shard is subdivided.
[[nodiscard]] ScanConfig prepare_bulk_scan(
    ScanConfig scan, const std::vector<topo::IspSpec>& specs,
    int window_bits);

// Sub-shard `index` of `count` under the machine shard of `base`: shard
// (base.shard * count + index) of (base.shards * count). Engine worker w
// and fabric shard s both come from here, so a fabric of S shards scans
// exactly what an engine of S threads does.
[[nodiscard]] ScanConfig sub_shard(const ScanConfig& base, int index,
                                   int count);

// What a replica is built from; every field is borrowed for the
// constructor call only.
struct ReplicaWorld {
  const std::vector<topo::IspSpec>& specs;
  const std::vector<topo::VendorProfile>& vendors;
  const topo::BuildConfig& build;
  const sim::FaultPlan& faults;
  const net::Ipv6Prefix& vantage;
};

// A network seeded with `build.seed` reporting into the given obs sinks,
// the world built into it under the kBuild stage timer, the fault plan
// installed, and a SimChannelScanner for `scan` attached at the vantage
// with the same sinks. All sinks are caller-owned, thread-confined with
// the replica, and may be null. Call scanner->start() then net.run().
struct ScanReplica {
  ScanReplica(const ReplicaWorld& world, const ScanConfig& scan,
              const ProbeModule& module, const obs::ObsConfig& obs,
              obs::TraceBuffer* trace, obs::MetricsShard* metrics,
              obs::StageProfile* profile);
  ScanReplica(const ScanReplica&) = delete;
  ScanReplica& operator=(const ScanReplica&) = delete;

  sim::Network net;
  topo::BuiltInternet internet;
  SimChannelScanner* scanner = nullptr;
};

}  // namespace xmap::scan
