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
