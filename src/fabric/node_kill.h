// A seeded worker crash for the scan fabric's failover tests and the CLI's
// --kill-node-at. Header-only and dependency-free, so the CLI can carry a
// kill plan without linking the fabric.
#pragma once

#include <cstdint>

namespace xmap::fabric {

// Worker `node` dies when its scan frontier reaches global permutation slot
// `at_slot`: it stops heartbeating and streaming without any goodbye, and,
// when `close_transport`, its connection drops like a TCP reset — an
// immediate death signal instead of a heartbeat timeout.
struct NodeKill {
  int node = 0;
  std::uint64_t at_slot = 0;
  bool close_transport = false;
};

}  // namespace xmap::fabric
