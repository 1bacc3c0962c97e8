// Command-line options for the xmap_sim driver.
//
// The flag vocabulary deliberately mirrors the released XMap/ZMap tools
// (--target-port via module suffix, --rate, --seed, --shards/--shard,
// --max-results style caps) so that someone who knows the real scanner can
// drive the simulation the same way. Parsing lives in the library so it is
// unit-testable without spawning the binary.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fabric/node_kill.h"
#include "obs/config.h"
#include "sim/faults.h"
#include "xmap/blocklist.h"
#include "xmap/target_spec.h"

namespace xmap::scan {

struct CliOptions {
  // Targets; empty = scan every block of the selected world.
  std::vector<TargetSpec> targets;

  // Probe module selector: "icmp_echo" (default), "icmp_echo:<hoplimit>",
  // "tcp_syn:<port>", "udp_dns", "udp_ntp", "traceroute".
  std::string probe_module = "icmp_echo";

  double rate_pps = 25000;  // --rate (paper's good-citizen default)
  std::uint64_t seed = 1;   // --seed
  int shard = 0;            // --shard
  int shards = 1;           // --shards
  std::uint64_t max_probes = 0;  // --max-probes (0 = all)
  int retries = 0;               // --retries
  double retry_spacing_ms = 100;  // --retry-spacing-ms
  double cooldown_secs = 8;       // --cooldown-secs (ZMap semantics)
  bool adaptive_rate = false;     // --adaptive-rate (AIMD backoff)
  bool use_default_blocklist = true;  // --no-blocklist disables

  // Fault injection (sim substrate). The flags build an access/core-scoped
  // plan; when none is given, a plan embedded in a file: world applies.
  sim::FaultPlan faults;
  bool faults_given = false;
  // RFC 4443 ICMPv6 error rate limits (tokens/sec; 0 = unlimited).
  std::uint32_t device_icmp_rate = 0;  // --device-icmp-rate
  std::uint32_t router_icmp_rate = 0;  // --router-icmp-rate

  std::string output_format = "csv";  // --output-format csv|jsonl
  std::string output_file;            // --output-file (empty = stdout)
  // Results-store snapshot (src/store): the sorted, checksummed, queryable
  // form of the scan's records, written atomically alongside the flat
  // output. Byte-identical for a fixed config across --threads values.
  std::string store_file;             // --store-file (empty = off)
  bool quiet = false;                 // --quiet (suppress the stats footer)

  // Observability (src/obs). CLI flags override any "obs" section of a
  // file: world spec. --trace-file without --trace-level implies scan
  // level; --metrics-file implies the metrics registry.
  std::string trace_file;    // --trace-file (empty = no trace output)
  std::string trace_format;  // --trace-format jsonl|chrome ("" = by suffix)
  std::optional<obs::TraceLevel> trace_level;  // --trace-level
  std::string metrics_file;  // --metrics-file (Prometheus text)
  bool profile = false;      // --profile (stage table on stderr at exit)

  // Worker count of the parallel engine (src/engine), which runs every
  // bulk scan that is not a fabric run. 0 = flag absent: one worker.
  int threads = 0;  // --threads (1..64)
  // Live monitor destination: empty = off, "-" = stderr, else a file path.
  std::string status_updates_file;  // --status-updates-file
  int status_interval_ms = 250;     // --status-interval-ms

  // Distributed scan fabric (src/fabric): --fabric-nodes routes the scan
  // through the coordinator/worker fabric over the loopback transport.
  // 0 = flag absent. The fabric shard count — not the node count — is the
  // determinism unit: records match an engine run at that --threads value.
  int fabric_nodes = 0;                  // --fabric-nodes (1..32)
  int fabric_shards = 8;                 // --fabric-shards (default 8)
  int fabric_heartbeat_ms = 25;          // --fabric-heartbeat-ms
  int fabric_heartbeat_timeout_ms = 250;  // --fabric-heartbeat-timeout-ms
  // Transport: "loopback" (in-process, the default) or "tcp" (real
  // sockets: the coordinator binds --fabric-listen, workers connect to
  // --fabric-connect, default the coordinator's bound address).
  std::string fabric_transport = "loopback";  // --fabric-transport
  std::string fabric_listen = "127.0.0.1:0";  // --fabric-listen addr:port
  std::string fabric_connect;                 // --fabric-connect addr:port
  // Seeded worker crashes (--kill-node-at, repeatable).
  std::vector<fabric::NodeKill> fabric_kills;
  // Fabric-deployment observability (wall clock, quarantined from the
  // deterministic scan artifacts; the plain --trace-file/--metrics-file
  // flags stay byte-identical to an engine run at --fabric-shards threads).
  std::string fabric_trace_file;     // --fabric-trace-file (Perfetto JSON)
  std::string fabric_metrics_file;   // --fabric-metrics-file (incl. fabric_*)
  std::string fabric_timeline_file;  // --fabric-timeline-file (JSONL)
  // Flight recorders: ring capacity (0 = off) and the dump-path prefix
  // (defaults next to --output-file when recorders are on).
  std::size_t flight_recorder_events = 0;  // --flight-recorder-events
  std::string flight_recorder_prefix;      // --flight-recorder-prefix

  // Simulation substrate: "paper" (the 15 calibrated blocks),
  // "bgp:<n_ases>", or "file:<path>" (a JSON spec document; see
  // topology/spec_loader.h for the schema).
  std::string world = "paper";
  int window_bits = 10;  // --window-bits

  // Checkpoint/resume (src/recover). `checkpoint_file` is where snapshots
  // go (defaults to "<output-file>.state" or "xmap.state" when output goes
  // to stdout); a SIGINT/SIGTERM always writes one. `checkpoint_interval`
  // additionally snapshots every n drawn targets (0 = only on shutdown).
  // `resume` restarts from a state file after validating its fingerprint.
  std::string resume_file;                    // --resume
  std::string checkpoint_file;                // --checkpoint-file
  std::uint64_t checkpoint_interval = 0;      // --checkpoint-interval-probes
  // Deterministic interruption test hook: behave as if SIGTERM arrived when
  // the scan frontier reaches this global permutation slot (0 = off).
  std::uint64_t shutdown_after_probes = 0;    // --shutdown-after-probes

  bool help = false;
  bool list_probe_modules = false;
};

struct CliParseResult {
  std::optional<CliOptions> options;  // nullopt on error
  std::string error;                  // set on error
};

[[nodiscard]] CliParseResult parse_cli(int argc, const char* const* argv);

// The --help text.
[[nodiscard]] std::string cli_usage();

// Names accepted by --probe-module, for --list-probe-modules.
[[nodiscard]] std::vector<std::string> probe_module_names();

}  // namespace xmap::scan
