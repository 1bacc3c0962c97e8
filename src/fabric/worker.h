// One fabric worker node.
//
// A worker joins the coordinator over its Transport, heartbeats from a
// dedicated thread, and executes shard leases: for each Assign it builds
// its own deterministic world replica (exactly the parallel engine's
// per-thread recipe — the world is a pure function of the specs and seed),
// runs a SimChannelScanner over the leased sub-shard of the permutation,
// and streams validated responses back in reliable Records batches with a
// reliable Checkpoint (stable cursor + live stats) every
// checkpoint_interval_targets. The FIFO reliable channel makes the
// coordinator's failover filter sound: a Checkpoint in hand implies every
// record below its cursor is in hand.
//
// A lease is refused — never silently mangled — when its terms don't match
// this worker's scan: a fingerprint-hash mismatch (the handoff belongs to a
// different scan configuration) or a torn resume cursor (wrong spec-step
// arity) comes back as a Refuse frame with a "stored …, computed …" style
// diagnostic, mirroring src/recover's checkpoint validation.
//
// Seeded kills (node_kill.h) are honoured here: a worker with a kill arms
// ScanConfig::shutdown_at_raw_slot and, once the scanner stops at the kill
// slot, simply goes silent — no flush, no ShardDone, no heartbeats, and
// (when close_transport) a dropped connection — which is exactly what the
// coordinator's failover path must cope with.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fabric/channel.h"
#include "fabric/node_kill.h"
#include "fabric/obs_tap.h"
#include "fabric/transport.h"
#include "obs/config.h"
#include "obs/fabric_trace.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "sim/faults.h"
#include "topology/builder.h"
#include "xmap/scanner.h"

namespace xmap::fabric {

struct WorkerConfig {
  int id = 0;

  // The world this worker replicates (not owned; shared read-only).
  const std::vector<topo::IspSpec>* world_specs = nullptr;
  const std::vector<topo::VendorProfile>* vendors = nullptr;
  topo::BuildConfig build;
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  const scan::ProbeModule* module = nullptr;

  // Base scan parameters: machine shard in shard/shards, targets resolved.
  // Fabric sub-sharding composes underneath per Assign.
  scan::ScanConfig base;
  sim::FaultPlan faults;

  // This worker's locally computed scan identity
  // (recover::fingerprint_hash); leases stamped with a different hash are
  // refused.
  std::uint64_t fingerprint = 0;

  std::uint64_t checkpoint_interval_targets = 256;
  int heartbeat_interval_ms = 25;
  std::size_t record_batch = 128;
  BackoffPolicy backoff;

  // Seeded crash, resolved from FabricConfig::kills for this worker.
  std::optional<NodeKill> kill;

  // Scan-content observability (deterministic: trace buffers and metrics
  // shards are shipped back per shard over ObsTrace/ObsMetrics frames).
  // When any() and a lease resumes from a cursor, the worker replays the
  // whole shard locally and filters transmitted records to slots >= the
  // cursor — record bytes stay identical and the shipped trace/metrics
  // cover the full shard, exactly the engine's per-shard values.
  obs::ObsConfig obs;

  // Deployment observability (wall clock, not owned, may be null): the
  // shared fabric tracer, the span to parent pre-lease frames under, and
  // this node's flight recorder.
  obs::FabricTracer* tracer = nullptr;
  std::uint64_t trace_root = 0;
  obs::FlightRecorder* recorder = nullptr;
};

class FabricWorker {
 public:
  FabricWorker(WorkerConfig config, Transport* transport);

  // Thread body: joins, serves leases until Bye/close/crash. Never throws
  // (failures close the connection and are reported via error()).
  void run();

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  // Reliable re-sends on this worker's uplink (read after run() returns).
  [[nodiscard]] std::uint64_t retransmits() const {
    return link_.retransmits();
  }
  // Wall-clock stage profile summed over every lease this worker ran
  // (read after run() returns; empty unless obs.profile).
  [[nodiscard]] const obs::StageProfile& profile() const { return profile_; }

 private:
  void handle_assign(const Message& assign);
  void run_shard(const Message& assign);
  // Blocks until the reliable queue drains (pumping acks and deferring
  // other inbound messages); false when the link died or the peer closed.
  bool send_reliable(Message msg);
  bool pump(bool until_idle);
  void start_heartbeats();
  void stop_heartbeats();

  WorkerConfig config_;
  Transport* transport_;
  ReliableLink link_;
  LinkTap tap_;
  obs::StageProfile profile_;
  std::uint64_t span_parent_ = 0;  // current parent for outbound frame spans
  std::vector<Message> deferred_;  // delivered while pumping a send
  bool peer_gone_ = false;
  bool done_ = false;
  bool crashed_ = false;
  std::string error_;

  std::thread heartbeat_;
  std::mutex heartbeat_mu_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;
};

}  // namespace xmap::fabric
