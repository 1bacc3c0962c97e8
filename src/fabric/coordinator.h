// The fabric coordinator: fault-tolerant distributed scan orchestration.
//
// run_fabric_scan splits the machine's permutation shard into
// `shards` fabric shards and leases them to `nodes` worker engines over the
// frame protocol (protocol.h) on the in-process loopback (transport.h) or
// real TCP sockets (tcp_transport.h) — one state machine drives both.
// Each shard is one lease: Assign carries the shard index, the shared
// budget cut, the scan's fingerprint hash, and (after a failover) the dead
// worker's last streamed checkpoint cursor.
//
// Fail-over, and why the merged output is byte-identical to a run with no
// failures at any node count:
//
//   * A shard's record stream is a pure function of (scan config, shard
//     index) — workers scan deterministic world replicas, so which node
//     runs a shard, and when, is invisible in the bytes.
//   * Workers stream reliable, FIFO Records batches and periodically a
//     Checkpoint carrying a *stable* cursor C: every record below C has a
//     completed lifecycle and was flushed before the Checkpoint frame.
//   * When a worker dies (connection drop, heartbeat timeout, or reliable
//     retransmission budget exhausted), the coordinator keeps exactly the
//     dead epoch's records with raw_slot < C, discards the rest, bumps the
//     shard's assignment epoch, and re-leases the shard with resume
//     cursor C. The survivor fast-forwards its permutation iterator to C
//     (CyclicGroup::Iterator::fast_forward under the hood) and probes only
//     slots >= C — no permutation slot below the cursor is ever re-probed,
//     and the regenerated records >= C are exactly the discarded ones.
//   * Frames from a stale epoch (a worker wrongly declared dead keeps
//     streaming) are fenced by the epoch check and ignored.
//
// Shard-count note: `shards` (S), not the node count, is the unit of
// determinism. Fabric shard s of S on machine shard m of M scans
// permutation shard m*S+s of M*S — the same composition as the engine's
// thread sub-sharding, so a fabric run at S shards produces record content
// identical to `run_parallel_scan` at S threads, for any node count.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "fabric/channel.h"
#include "fabric/node_kill.h"
#include "obs/config.h"
#include "obs/fabric_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "recover/state.h"
#include "sim/faults.h"
#include "topology/builder.h"
#include "xmap/results.h"
#include "xmap/scanner.h"

namespace xmap::fabric {

inline constexpr int kMaxNodes = 32;

struct TcpWorkerOptions;  // tcp_transport.h

// Which transport carries the fabric's frames. Loopback is the in-process
// reproduction substrate; TCP puts every frame on a real socket (one
// coordinator acceptor, one connection per worker, reconnect-with-epoch
// handshake on socket death — tcp_transport.h).
enum class TransportKind : std::uint8_t { kLoopback, kTcp };

struct FabricConfig {
  // The world every worker replicates.
  std::vector<topo::IspSpec> world_specs;
  std::vector<topo::VendorProfile> vendors;
  topo::BuildConfig build;
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  const scan::ProbeModule* module = nullptr;

  // Base scan parameters; scan.shard/scan.shards is the machine-level
  // partition, fabric shards compose underneath. adaptive_rate is refused:
  // without an analytic send schedule there is no stable cursor to hand
  // over, and determinism is the whole point of the fabric.
  scan::ScanConfig scan;
  sim::FaultPlan faults;
  // Seeded worker crashes (node_kill.h); the last entry naming a node wins.
  std::vector<NodeKill> kills;

  int nodes = 1;    // worker engines (1..kMaxNodes)
  int shards = 8;   // fabric shard count S — the determinism unit

  // Transport selection. With kTcp the coordinator binds listen_address
  // (port 0 picks an ephemeral port) and workers connect to
  // connect_address — empty means the coordinator's actual bound address,
  // which is how tests route workers through a chaos proxy instead (the
  // proxy is the fabric's only transport-fault substrate).
  TransportKind transport = TransportKind::kLoopback;
  std::string listen_address = "127.0.0.1:0";
  std::string connect_address;
  int connect_timeout_ms = 2000;
  // Socket-death recovery: a disconnected worker retries every
  // reconnect_delay_ms until reconnect_window_ms has elapsed, then gives
  // up; the heartbeat timeout stays the sole death arbiter meanwhile.
  int reconnect_window_ms = 1500;
  int reconnect_delay_ms = 10;
  // Test hook: adjust one worker's transport options (fingerprint
  // override, per-node proxy routing, reconnect pacing) before connect.
  std::function<void(int node, TcpWorkerOptions& options)> tcp_worker_tweak;

  // Worker checkpoint cadence (targets between streamed cursors). The only
  // failover granularity: a dead shard resumes from its last checkpoint.
  std::uint64_t checkpoint_interval_targets = 256;
  int heartbeat_interval_ms = 25;
  int heartbeat_timeout_ms = 250;
  BackoffPolicy backoff;        // reliable-channel retransmission schedule
  std::size_t record_batch = 128;
  std::uint64_t alias_threshold = 16;

  // The scan identity; its hash is stamped into every lease and workers
  // refuse mismatches (see recover::fingerprint_hash).
  recover::Fingerprint fingerprint;

  // Coordinator event log (assignment/failover lines); null = silent.
  std::ostream* log = nullptr;

  // Scan-content observability. Workers attach the engine's per-worker
  // sinks to their replicas and ship each shard's trace/metrics back over
  // ObsTrace/ObsMetrics frames; the merged FabricResult::trace /
  // scan_metrics are byte-identical to run_parallel_scan at `shards`
  // threads — including across failovers (a resumed lease replays its
  // shard locally and re-ships the full-shard observability).
  obs::ObsConfig obs;

  // Deployment tracing (wall clock, quarantined from the deterministic
  // outputs): record causal spans across the coordinator and every worker
  // into FabricResult::fabric_spans.
  bool fabric_trace = false;

  // Per-node flight recorders: > 0 sets the ring capacity (protocol events
  // kept per node). On worker death, lease refusal, or a failed fabric the
  // rings are dumped to "<flight_recorder_prefix>.<node>.jsonl" (paths in
  // FabricResult::recorder_dumps); an empty prefix keeps them in memory.
  std::size_t flight_recorder_events = 0;
  std::string flight_recorder_prefix;

  // Health timeline: interval JSONL snapshots of fabric state streamed to
  // this sink while the run is live (null = off).
  std::ostream* timeline = nullptr;
  int timeline_interval_ms = 50;
};

struct ShardOutcome {
  int shard = 0;
  bool completed = false;
  int epochs = 1;            // assignment generations (1 = no failover)
  std::vector<int> workers;  // every node that held the lease, in order
  std::uint64_t resumed_from_slot = 0;  // last failover handoff cursor
};

struct FabricResult {
  bool ok = false;     // false = invalid config (error says why)
  std::string error;
  // Some shard could never be completed (lease refused, or every node
  // died); records/stats are the partial union.
  bool failed = false;

  // All validated responses in the deterministic content order
  // (scan::sort_records; `shard` is the fabric shard that produced the
  // record) — byte-stable across runs, node counts, and failovers, and
  // equal to run_parallel_scan's records at `shards` threads.
  std::vector<scan::ScanRecord> records;
  scan::ResultCollector collector;
  // Summed per-shard stats. Exact for failover-free runs; after a failover
  // the dead epoch contributes its last checkpoint's live stats, which
  // overlap the resumed tail by up to one response horizon — the footer is
  // approximate, records and store artifacts stay exact (the same caveat
  // mid-flight checkpoint resume already carries).
  scan::ScanStats stats;

  std::vector<ShardOutcome> shards;
  std::vector<std::string> worker_errors;  // refusals, link failures
  int dead_workers = 0;

  // Fabric counters (also exported as fabric_* metrics series — all
  // registered wall_clock: they describe the deployment, not the scan, so
  // the deterministic Prometheus export omits them).
  std::uint64_t reassignments = 0;      // failover re-leases
  std::uint64_t missed_heartbeats = 0;  // intervals a live worker was silent
  std::uint64_t resumed_slots = 0;      // sum of failover handoff frontiers
  std::uint64_t frames_rejected = 0;    // undecodable frames dropped
  std::uint64_t retransmits = 0;        // reliable re-sends, both directions
  // Socket-transport link accounting (zero on loopback): accepted rejoin
  // handshakes after each worker's initial join, and raw stream bytes.
  std::uint64_t reconnects = 0;
  std::uint64_t bytes_sent = 0;      // coordinator -> workers
  std::uint64_t bytes_received = 0;  // workers -> coordinator
  obs::MetricsSnapshot metrics;

  // Scan-content observability (when FabricConfig::obs asks for it):
  // byte-identical to the engine at `shards` threads.
  std::vector<obs::TraceEvent> trace;
  obs::MetricsSnapshot scan_metrics;
  obs::StageProfile stage_profile;  // wall clock: workers + coordinator

  // Deployment spans (when fabric_trace): the causal cross-node tree.
  std::vector<obs::FabricSpan> fabric_spans;
  std::uint64_t fabric_trace_id = 0;

  // Flight-recorder dumps written on this run's failure paths.
  std::vector<std::string> recorder_dumps;

  double wall_seconds = 0;
};

[[nodiscard]] FabricResult run_fabric_scan(const FabricConfig& config);

}  // namespace xmap::fabric
