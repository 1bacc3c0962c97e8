#include "xmap/replica.h"

namespace xmap::scan {

void install_world_faults(sim::Network& net,
                          const topo::BuiltInternet& internet,
                          const sim::FaultPlan& plan) {
  if (!plan.any()) return;
  sim::FaultInjector* injector = net.install_faults(plan);
  std::vector<sim::NodeId> candidates;
  for (const auto& isp : internet.isps) {
    for (const auto& device : isp.devices) {
      candidates.push_back(device.node);
    }
  }
  injector->choose_silent(candidates);
}

ScanConfig prepare_bulk_scan(ScanConfig scan,
                             const std::vector<topo::IspSpec>& specs,
                             int window_bits) {
  if (scan.targets.empty()) {
    scan.targets.reserve(specs.size());
    for (const auto& spec : specs) {
      const topo::ScanWindow window = topo::scan_window(spec, window_bits);
      scan.targets.push_back(
          TargetSpec{window.scan_base, window.window_lo, window.window_hi});
    }
  }
  if (scan.blocklist != nullptr) scan.blocklist->compile();
  if (scan.max_probes != 0) {
    scan.budget_cut_raw_slot =
        compute_budget_cut(scan.targets, scan.seed, scan.blocklist,
                           scan.max_probes, scan.shard, scan.shards);
    scan.max_probes = 0;  // fully encoded in the cut; don't recompute
  }
  return scan;
}

ScanConfig sub_shard(const ScanConfig& base, int index, int count) {
  ScanConfig sub = base;
  sub.shard = base.shard * count + index;
  sub.shards = base.shards * count;
  return sub;
}

ScanReplica::ScanReplica(const ReplicaWorld& world, const ScanConfig& scan,
                         const ProbeModule& module, const obs::ObsConfig& obs,
                         obs::TraceBuffer* trace, obs::MetricsShard* metrics,
                         obs::StageProfile* profile)
    : net{world.build.seed} {
  net.set_obs(trace, metrics);
  {
    obs::ScopedStageTimer build_timer{profile, obs::Stage::kBuild};
    internet = topo::build_internet(net, world.specs, world.vendors,
                                    world.build);
  }
  install_world_faults(net, internet, world.faults);
  scanner = net.make_node<SimChannelScanner>(scan, module);
  scanner->set_iface(
      topo::attach_vantage(net, internet, scanner, world.vantage));
  scanner->set_obs(obs, trace, metrics, profile);
}

}  // namespace xmap::scan
