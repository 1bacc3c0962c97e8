// Test helper: routes one fabric worker's TCP connection through a chaos
// proxy, the fabric's transport-fault substrate.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "fabric/chaos_proxy.h"
#include "fabric/coordinator.h"
#include "fabric/tcp_transport.h"

namespace xmap::fabric {

// The proxy is created at tweak time, aimed at the coordinator's actual
// bound address; `extra` may adjust the routed worker's options further.
inline void route_node_through_proxy(
    FabricConfig& cfg, int node, ChaosProxyOptions proxy_opts,
    std::unique_ptr<ChaosProxy>& proxy,
    std::function<void(TcpWorkerOptions&)> extra = {}) {
  cfg.tcp_worker_tweak = [&proxy, node, proxy_opts = std::move(proxy_opts),
                          extra = std::move(extra)](
                             int n, TcpWorkerOptions& opts) mutable {
    if (n != node) return;
    proxy_opts.upstream = opts.connect_address;
    std::string error;
    proxy = ChaosProxy::create(std::move(proxy_opts), error);
    ASSERT_NE(proxy, nullptr) << error;
    opts.connect_address = proxy->address();
    if (extra) extra(opts);
  };
}

// The hostile-transport scenario: the routed node's first connection is
// cut 3 bytes into its fifth frame, and 30% of relayed chunks stall 20 ms.
// Seed 7 leaves the opening Rejoin unstalled: a stalled join can let the
// other nodes drain every shard first, and the cut never comes.
inline ChaosProxyOptions cut_and_stall_options() {
  ChaosProxyOptions popts;
  popts.seed = 7;
  popts.cut_connection = 0;
  popts.cut_after_frames = 4;
  popts.cut_frame_bytes = 3;
  popts.stall_probability = 0.3;
  popts.stall_ms = 20;
  return popts;
}

}  // namespace xmap::fabric
