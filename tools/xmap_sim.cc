// xmap_sim — the XMap scanner as a command-line tool, driven against the
// simulated Internet (the repo's substitute for a raw-socket backend; see
// DESIGN.md). Run --help for the flag reference; the vocabulary mirrors
// the released XMap/ZMap tools.
//
//   $ xmap_sim --world paper --probe-module icmp_echo --rate 100000
//              --output-format jsonl --output-file scan.jsonl
//   $ xmap_sim --threads 4 --status-updates-file -
//
// Exit codes: 0 complete, 1 worker failure (partial results), 2 bad
// config / I/O error, 3 interrupted by SIGINT/SIGTERM (resumable — a state
// file was written; see docs/recovery.md).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "analysis/store_export.h"
#include "engine/executor.h"
#include "engine/probe_factory.h"
#include "fabric/coordinator.h"
#include "netbase/exit_codes.h"
#include "store/writer.h"
#include "obs/config.h"
#include "obs/fabric_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "recover/checkpoint.h"
#include "recover/signals.h"
#include "recover/state.h"
#include "topology/paper_profiles.h"
#include "topology/world.h"
#include "xmap/cli.h"
#include "xmap/output.h"
#include "xmap/replica.h"
#include "xmap/scanner.h"
#include "xmap/traceroute.h"

using namespace xmap;

namespace {

// Exit codes come from the shared taxonomy (netbase/exit_codes.h):
// kExitOk, kExitWorkerFailure, kExitConfig, kExitInterrupted.

void print_stats_footer(const scan::ScanStats& stats, int workers,
                        double wall_seconds) {
  std::fprintf(
      stderr,
      "xmap_sim: %llu probes sent (%llu blocked, %llu retransmits), "
      "%llu responses (%llu validated, %llu discarded), hit rate %.2f%%, "
      "simulated duration %.2fs",
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.blocked),
      static_cast<unsigned long long>(stats.retransmits),
      static_cast<unsigned long long>(stats.received),
      static_cast<unsigned long long>(stats.validated),
      static_cast<unsigned long long>(stats.discarded),
      100.0 * stats.hit_rate(),
      static_cast<double>(stats.last_send - stats.first_send) /
          static_cast<double>(sim::kSecond));
  if (stats.duplicates > 0 || stats.corrupted > 0 || stats.late > 0) {
    std::fprintf(stderr, " [%llu duplicate, %llu corrupt, %llu late]",
                 static_cast<unsigned long long>(stats.duplicates),
                 static_cast<unsigned long long>(stats.corrupted),
                 static_cast<unsigned long long>(stats.late));
  }
  if (stats.rate_adjustments > 0) {
    std::fprintf(stderr, ", %llu rate adjustments",
                 static_cast<unsigned long long>(stats.rate_adjustments));
  }
  if (stats.provenance_misses > 0) {
    std::fprintf(stderr,
                 ", %llu responses past the provenance window (no raw slot, "
                 "no RTT sample)",
                 static_cast<unsigned long long>(stats.provenance_misses));
  }
  std::fprintf(stderr, ", %d workers, wall %.2fs\n", workers, wall_seconds);
}

// Resolves the effective observability configuration: a file: world's
// "obs" section supplies the defaults, explicit CLI flags override field
// by field, and --trace-file / --metrics-file imply the matching pillar.
obs::ObsConfig resolve_obs(const scan::CliOptions& opts,
                           const std::optional<obs::ObsConfig>& world_obs) {
  obs::ObsConfig cfg = world_obs.value_or(obs::ObsConfig{});
  if (opts.trace_level) cfg.trace_level = *opts.trace_level;
  if (!opts.trace_file.empty() && cfg.trace_level == obs::TraceLevel::kOff &&
      !opts.trace_level) {
    cfg.trace_level = obs::TraceLevel::kScan;
  }
  if (!opts.metrics_file.empty()) cfg.metrics = true;
  if (opts.profile) cfg.profile = true;
  return cfg;
}

// Atomic artifact write (tmp + rename): a crash leaves the previous
// complete file or the new one, never a truncation. Paths under /dev/
// (e.g. --output-file /dev/null) are character devices a rename would
// clobber, so those stream directly.
bool emit_artifact(const std::string& path, const std::string& content) {
  if (path.rfind("/dev/", 0) == 0) {
    std::ofstream out{path};
    out << content;
    return static_cast<bool>(out);
  }
  std::string error;
  if (!recover::write_file_atomic(path, content, &error)) {
    std::fprintf(stderr, "xmap_sim: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Writes the trace and metrics files and prints the --profile table.
// Returns false (after a diagnostic) if an output file cannot be written.
bool write_obs_outputs(const scan::CliOptions& opts,
                       const std::vector<obs::TraceEvent>& trace,
                       const obs::MetricsSnapshot& metrics,
                       const obs::StageProfile& profile) {
  if (!opts.trace_file.empty()) {
    // --trace-format wins; otherwise a .json suffix selects the Chrome
    // trace-event form (Perfetto / chrome://tracing), anything else JSONL.
    const std::string& path = opts.trace_file;
    const bool chrome =
        opts.trace_format == "chrome" ||
        (opts.trace_format.empty() && path.size() >= 5 &&
         path.compare(path.size() - 5, 5, ".json") == 0);
    std::ostringstream buf;
    if (chrome) {
      obs::write_chrome_trace(buf, trace);
    } else {
      obs::write_trace_jsonl(buf, trace);
    }
    if (!emit_artifact(path, buf.str())) return false;
  }
  if (!opts.metrics_file.empty()) {
    if (!emit_artifact(opts.metrics_file, obs::prometheus_text(metrics))) {
      return false;
    }
  }
  if (opts.profile) {
    std::fputs(obs::stage_profile_table(profile).c_str(), stderr);
  }
  return true;
}

// The scan-configuration identity a checkpoint is bound to (and validated
// against on --resume). `targets` records the explicit --target specs;
// world-default targets are pinned by (world, window_bits, seed) instead.
recover::Fingerprint make_fingerprint(const scan::CliOptions& opts,
                                      const scan::Blocklist* blocklist,
                                      const sim::FaultPlan& faults) {
  recover::Fingerprint fp;
  fp.seed = opts.seed;
  fp.world = opts.world;
  fp.window_bits = opts.window_bits;
  fp.probe_module = opts.probe_module;
  fp.rate_pps = opts.rate_pps;
  fp.shard = opts.shard;
  fp.shards = opts.shards;
  // The engine's worker count, max(threads, 1); checkpoint cursor counts
  // follow from it. Fabric runs (which refuse --threads) record 0.
  fp.threads = opts.fabric_nodes > 0 ? 0 : std::max(opts.threads, 1);
  fp.retries = opts.retries;
  fp.retry_spacing_ms = opts.retry_spacing_ms;
  fp.cooldown_secs = opts.cooldown_secs;
  fp.max_probes = opts.max_probes;
  fp.adaptive_rate = opts.adaptive_rate;
  fp.output_format = opts.output_format;
  fp.blocklist_hash =
      blocklist != nullptr ? recover::blocklist_fingerprint(*blocklist) : 0;
  fp.fault_plan_hash = recover::fault_plan_fingerprint(faults);
  for (const auto& target : opts.targets) {
    fp.targets.push_back(target.to_string());
  }
  return fp;
}

std::string default_checkpoint_path(const scan::CliOptions& opts) {
  if (!opts.checkpoint_file.empty()) return opts.checkpoint_file;
  if (!opts.output_file.empty() &&
      opts.output_file.rfind("/dev/", 0) != 0) {
    return opts.output_file + ".state";
  }
  return "xmap.state";
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = scan::parse_cli(argc, argv);
  if (!parsed.options) {
    std::fprintf(stderr, "xmap_sim: %s\n(try --help)\n",
                 parsed.error.c_str());
    return kExitConfig;
  }
  const scan::CliOptions& opts = *parsed.options;
  if (opts.help) {
    std::fputs(scan::cli_usage().c_str(), stdout);
    return kExitOk;
  }
  if (opts.list_probe_modules) {
    for (const auto& name : scan::probe_module_names()) {
      std::printf("%s\n", name.c_str());
    }
    return kExitOk;
  }

  // --- World ---------------------------------------------------------------
  topo::BuildConfig build_cfg;
  build_cfg.window_bits = opts.window_bits;
  build_cfg.seed = opts.seed;
  build_cfg.device_icmp_rate = opts.device_icmp_rate;
  build_cfg.router_icmp_rate = opts.router_icmp_rate;
  auto world = topo::resolve_world(opts.world, opts.seed,
                                   topo::paper::vendor_catalog());
  if (!world.specs) {
    std::fprintf(stderr, "xmap_sim: %s\n", world.error.c_str());
    return kExitConfig;
  }
  const std::vector<topo::IspSpec>& specs = *world.specs;
  // CLI fault flags build a complete plan and beat a file: world's
  // embedded one; either way the plan is empty unless dials are nonzero.
  const sim::FaultPlan fault_plan = opts.faults_given
                                        ? opts.faults
                                        : world.faults.value_or(
                                              sim::FaultPlan{});
  const obs::ObsConfig obs_cfg = resolve_obs(opts, world.obs);

  // --- Output --------------------------------------------------------------
  // File output is buffered and written atomically at exit; a resumed run
  // rewrites the whole artifact, so the final file never mixes runs.
  const bool buffered_output = !opts.output_file.empty();
  std::ostringstream out_buf;
  std::ostream& out = buffered_output ? static_cast<std::ostream&>(out_buf)
                                      : std::cout;
  auto writer = scan::make_writer(opts.output_format, out);
  auto flush_output = [&]() -> bool {
    if (!buffered_output) return true;
    return emit_artifact(opts.output_file, out_buf.str());
  };

  // --- Scan configuration --------------------------------------------------
  scan::ScanConfig cfg;
  cfg.targets = opts.targets;
  cfg.source = *net::Ipv6Address::parse("2001:500::1");
  cfg.seed = opts.seed;
  cfg.probes_per_sec = opts.rate_pps;
  cfg.shard = opts.shard;
  cfg.shards = opts.shards;
  cfg.max_probes = opts.max_probes;
  cfg.retries = opts.retries;
  cfg.retry_spacing_ms = opts.retry_spacing_ms;
  cfg.cooldown_secs = opts.cooldown_secs;
  cfg.adaptive_rate = opts.adaptive_rate;
  const scan::Blocklist blocklist = scan::Blocklist::well_behaved_defaults();
  if (opts.use_default_blocklist) cfg.blocklist = &blocklist;

  if (opts.probe_module == "traceroute" && !opts.store_file.empty()) {
    // Traceroute records are per-hop path samples, not unique-responder
    // periphery results; the store's one-record-per-key model does not fit.
    std::fprintf(stderr,
                 "xmap_sim: --store-file is not supported with the "
                 "traceroute module\n");
    return kExitConfig;
  }

  if (opts.probe_module == "traceroute") {
    // Traceroute mode: hop-walk one address per delegation slot (bounded by
    // --max-probes, counted in targets). Each responding hop is one record.
    sim::Network net{opts.seed};
    auto internet = topo::build_internet(net, specs,
                                         topo::paper::vendor_catalog(),
                                         build_cfg);
    scan::install_world_faults(net, internet, fault_plan);
    if (cfg.targets.empty()) {
      for (const auto& isp : internet.isps) {
        cfg.targets.push_back(
            scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
      }
    }
    scan::TracerouteRunner::Config tr_cfg;
    tr_cfg.source = cfg.source;
    tr_cfg.seed = opts.seed;
    auto* runner = net.make_node<scan::TracerouteRunner>(tr_cfg);
    const int tr_iface = topo::attach_vantage(
        net, internet, runner, *net::Ipv6Prefix::parse("2001:500::/48"));
    runner->set_iface(tr_iface);

    std::uint64_t traced = 0;
    const std::uint64_t cap = opts.max_probes > 0 ? opts.max_probes : 256;
    for (const auto& spec : cfg.targets) {
      const std::uint64_t slots =
          spec.count().fits_u64() ? spec.count().to_u64() : cap;
      for (std::uint64_t i = 0; i < slots && traced < cap; ++i, ++traced) {
        runner->trace(spec.nth_address(net::Uint128{i}, opts.seed));
      }
    }
    net.run();

    writer->begin();
    std::uint64_t hops = 0;
    for (const auto& result : runner->results()) {
      for (const auto& hop : result.hops) {
        scan::ProbeResponse record;
        record.kind = hop.kind;
        record.responder = hop.router;
        record.probe_dst = result.target;
        record.hop_limit = static_cast<std::uint8_t>(hop.distance);
        writer->record(record, net.now());
        ++hops;
      }
    }
    writer->end();
    if (!flush_output()) return kExitConfig;
    if (!opts.quiet) {
      std::fprintf(stderr,
                   "xmap_sim: traced %llu targets, observed %llu hops\n",
                   static_cast<unsigned long long>(traced),
                   static_cast<unsigned long long>(hops));
    }
    return kExitOk;
  }

  auto module = engine::make_probe_module(opts.probe_module);
  if (!module.module) {
    std::fprintf(stderr, "xmap_sim: %s\n", module.error.c_str());
    return kExitConfig;
  }

  // --- Checkpoint/resume plumbing (bulk executors) -------------------------
  const recover::Fingerprint fingerprint = make_fingerprint(
      opts, opts.use_default_blocklist ? &blocklist : nullptr, fault_plan);
  const std::string checkpoint_path = default_checkpoint_path(opts);

  recover::CheckpointState resume_state;
  bool resuming = false;
  if (!opts.resume_file.empty()) {
    auto loaded = recover::load_checkpoint(opts.resume_file);
    if (!loaded.state) {
      std::fprintf(stderr, "xmap_sim: --resume %s: %s\n",
                   opts.resume_file.c_str(), loaded.error.c_str());
      return kExitConfig;
    }
    resume_state = std::move(*loaded.state);
    const std::string mismatch = resume_state.fingerprint.diff(fingerprint);
    if (!mismatch.empty()) {
      std::fprintf(stderr,
                   "xmap_sim: --resume %s: configuration does not match the "
                   "checkpoint (%s); rerun with the original flags\n",
                   opts.resume_file.c_str(), mismatch.c_str());
      return kExitConfig;
    }
    if (!resume_state.has_obs &&
        (!opts.trace_file.empty() || !opts.metrics_file.empty())) {
      std::fprintf(
          stderr,
          "xmap_sim: --resume %s: this is a mid-flight snapshot without "
          "trace/metrics state, so resumed observability artifacts would be "
          "incomplete; resume from a shutdown checkpoint or drop "
          "--trace-file/--metrics-file\n",
          opts.resume_file.c_str());
      return kExitConfig;
    }
    resuming = true;
  }

  recover::ShutdownController shutdown;
  shutdown.install();
  auto write_state = [&](recover::CheckpointState& state) -> bool {
    state.fingerprint = fingerprint;
    std::string error;
    if (!recover::write_checkpoint(checkpoint_path, state, &error)) {
      std::fprintf(stderr, "xmap_sim: checkpoint write failed: %s\n",
                   error.c_str());
      return false;
    }
    return true;
  };

  // The export tail both executors share. Records arrive in the
  // deterministic content order (checkpoint records included), so the
  // output stream is byte-identical across runs — interrupted-then-resumed
  // or not — for a fixed seed. Returns false after a diagnostic if an
  // artifact cannot be written.
  auto export_scan = [&](const std::vector<scan::ScanRecord>& records,
                         const scan::ScanStats& stats, int workers,
                         double wall_seconds,
                         const std::vector<obs::TraceEvent>& trace,
                         const obs::MetricsSnapshot& metrics,
                         const obs::StageProfile& profile) -> bool {
    writer->begin();
    for (const auto& record : records) {
      writer->record(record.response, record.when);
    }
    writer->end();
    if (!flush_output()) return false;
    if (!opts.store_file.empty()) {
      // The executors build their worlds inside their workers; rebuild one
      // on a scratch network for the deterministic geo/vendor attribution.
      // With StoreBuilder's order-independent duplicate merge, the written
      // bytes are a pure function of (config, seed) — identical across
      // --threads values and executors.
      sim::Network store_net{opts.seed};
      const auto internet = topo::build_internet(
          store_net, specs, topo::paper::vendor_catalog(), build_cfg);
      store::StoreBuilder builder;
      ana::fill_geo(builder, internet.geo);
      builder.set_config_fingerprint(
          ana::scan_config_fingerprint(fingerprint));
      for (const auto& record : records) {
        ana::add_response(builder, record.response,
                          record.when / sim::kMicrosecond, internet.oui);
      }
      std::string error;
      if (!builder.write(opts.store_file, &error)) {
        std::fprintf(stderr, "xmap_sim: --store-file: %s\n", error.c_str());
        return false;
      }
    }
    if (!write_obs_outputs(opts, trace, metrics, profile)) return false;
    if (!opts.quiet) print_stats_footer(stats, workers, wall_seconds);
    return true;
  };

  // --- Distributed fabric path ---------------------------------------------
  if (opts.fabric_nodes > 0) {
    fabric::FabricConfig fcfg;
    fcfg.world_specs = specs;
    fcfg.vendors = topo::paper::vendor_catalog();
    fcfg.build = build_cfg;
    fcfg.module = module.module.get();
    fcfg.scan = cfg;
    fcfg.faults = fault_plan;
    fcfg.kills = opts.fabric_kills;
    fcfg.nodes = opts.fabric_nodes;
    fcfg.shards = opts.fabric_shards;
    if (opts.checkpoint_interval != 0) {
      fcfg.checkpoint_interval_targets = opts.checkpoint_interval;
    }
    fcfg.heartbeat_interval_ms = opts.fabric_heartbeat_ms;
    fcfg.heartbeat_timeout_ms = opts.fabric_heartbeat_timeout_ms;
    if (opts.fabric_transport == "tcp") {
      fcfg.transport = fabric::TransportKind::kTcp;
      fcfg.listen_address = opts.fabric_listen;
      fcfg.connect_address = opts.fabric_connect;
    }
    fcfg.backoff.seed = opts.seed;
    fcfg.fingerprint = fingerprint;
    if (!opts.quiet) fcfg.log = &std::clog;
    // Scan-content observability rides the protocol: --trace-file /
    // --metrics-file / --profile come back byte-identical to an engine run
    // at --fabric-shards threads. The fabric-specific artifacts are wall
    // clock and live in their own files.
    fcfg.obs = obs_cfg;
    fcfg.fabric_trace = !opts.fabric_trace_file.empty();
    fcfg.flight_recorder_events = opts.flight_recorder_events;
    fcfg.flight_recorder_prefix = opts.flight_recorder_prefix;
    if (fcfg.flight_recorder_events > 0 &&
        fcfg.flight_recorder_prefix.empty()) {
      fcfg.flight_recorder_prefix =
          (!opts.output_file.empty() && opts.output_file != "-" &&
           opts.output_file.rfind("/dev/", 0) != 0)
              ? opts.output_file + ".flightrec"
              : "fabric.flightrec";
    } else if (fcfg.flight_recorder_events == 0 &&
               !fcfg.flight_recorder_prefix.empty()) {
      fcfg.flight_recorder_events = obs::FlightRecorder::kDefaultCapacity;
    }
    std::ofstream timeline_file;
    if (!opts.fabric_timeline_file.empty()) {
      timeline_file.open(opts.fabric_timeline_file);
      if (!timeline_file) {
        std::fprintf(stderr, "xmap_sim: cannot open %s\n",
                     opts.fabric_timeline_file.c_str());
        return kExitConfig;
      }
      fcfg.timeline = &timeline_file;
    }
    auto result = fabric::run_fabric_scan(fcfg);
    if (!result.ok) {
      std::fprintf(stderr, "xmap_sim: %s\n", result.error.c_str());
      return kExitConfig;
    }
    if (timeline_file.is_open()) timeline_file.close();

    for (const auto& error : result.worker_errors) {
      std::fprintf(stderr, "xmap_sim: fabric: %s\n", error.c_str());
    }
    // Deterministic scan observability first (identical bytes to the
    // engine), then the wall-clock fabric artifacts.
    if (!export_scan(result.records, result.stats, opts.fabric_nodes,
                     result.wall_seconds, result.trace, result.scan_metrics,
                     result.stage_profile)) {
      return kExitConfig;
    }
    if (!opts.fabric_trace_file.empty()) {
      std::ostringstream buf;
      obs::write_fabric_chrome_trace(buf, result.fabric_spans);
      if (!emit_artifact(opts.fabric_trace_file, buf.str())) {
        return kExitConfig;
      }
    }
    if (!opts.fabric_metrics_file.empty()) {
      // Everything, deployment series included: the scan registry plus the
      // wall-clock fabric_* counters (per-node labels and all).
      const obs::MetricsSnapshot full = obs::merge_snapshots(
          {&result.scan_metrics, &result.metrics});
      if (!emit_artifact(opts.fabric_metrics_file,
                         obs::prometheus_text(full, true))) {
        return kExitConfig;
      }
    }
    for (const auto& dump : result.recorder_dumps) {
      std::fprintf(stderr, "xmap_sim: fabric: flight recorder dumped to %s\n",
                   dump.c_str());
    }
    if (!opts.quiet) {
      std::fprintf(
          stderr,
          "xmap_sim: fabric: %d node(s), %d shard(s), %llu reassignment(s), "
          "%d dead worker(s), %llu missed heartbeat(s), %llu retransmit(s), "
          "%llu rejected frame(s)\n",
          opts.fabric_nodes, opts.fabric_shards,
          static_cast<unsigned long long>(result.reassignments),
          result.dead_workers,
          static_cast<unsigned long long>(result.missed_heartbeats),
          static_cast<unsigned long long>(result.retransmits),
          static_cast<unsigned long long>(result.frames_rejected));
      if (opts.fabric_transport == "tcp") {
        std::fprintf(
            stderr,
            "xmap_sim: fabric: tcp transport: %llu reconnect(s), %llu bytes "
            "sent, %llu bytes received\n",
            static_cast<unsigned long long>(result.reconnects),
            static_cast<unsigned long long>(result.bytes_sent),
            static_cast<unsigned long long>(result.bytes_received));
      }
    }
    if (result.failed) {
      std::fprintf(stderr,
                   "xmap_sim: fabric: incomplete shards; results partial\n");
      return kExitWorkerFailure;
    }
    return kExitOk;
  }

  // --- Parallel engine ------------------------------------------------------
  // Every bulk scan that is not a fabric run: --threads workers (default 1).
  // Live status streams to "<path>.tmp" (tail-able mid-scan) and is
  // renamed into place at exit, like every other artifact.
  std::ofstream status_file;
  std::ostream* status_out = nullptr;
  std::string status_tmp;
  if (opts.status_updates_file == "-") {
    status_out = &std::clog;  // stderr, keeps result output clean
  } else if (!opts.status_updates_file.empty()) {
    status_tmp = opts.status_updates_file.rfind("/dev/", 0) == 0
                     ? opts.status_updates_file
                     : opts.status_updates_file + ".tmp";
    status_file.open(status_tmp);
    if (!status_file) {
      std::fprintf(stderr, "xmap_sim: cannot open %s\n", status_tmp.c_str());
      return kExitConfig;
    }
    status_out = &status_file;
  }
  auto finish_status = [&] {
    if (!status_file.is_open()) return;
    status_file.flush();
    status_file.close();
    if (status_tmp != opts.status_updates_file) {
      std::rename(status_tmp.c_str(), opts.status_updates_file.c_str());
    }
  };

  engine::EngineConfig engine_cfg;
  engine_cfg.world_specs = specs;
  engine_cfg.vendors = topo::paper::vendor_catalog();
  engine_cfg.build = build_cfg;
  engine_cfg.module = module.module.get();
  engine_cfg.scan = cfg;
  engine_cfg.threads = std::max(opts.threads, 1);
  engine_cfg.status_out = status_out;
  engine_cfg.status_interval_ms = opts.status_interval_ms;
  engine_cfg.faults = fault_plan;
  engine_cfg.obs = obs_cfg;
  engine_cfg.shutdown_flag = shutdown.flag();
  if (opts.shutdown_after_probes != 0) {
    engine_cfg.shutdown_at_raw_slot = opts.shutdown_after_probes;
  }
  if (resuming) engine_cfg.resume = &resume_state;
  if (opts.checkpoint_interval != 0) {
    engine_cfg.checkpoint_interval_targets = opts.checkpoint_interval;
    engine_cfg.checkpoint_file = checkpoint_path;
    engine_cfg.checkpoint_sink = [&](recover::CheckpointState& state) {
      (void)write_state(state);
    };
  }
  auto result = engine::run_parallel_scan(engine_cfg);
  if (!result.ok) {
    std::fprintf(stderr, "xmap_sim: %s\n", result.error.c_str());
    finish_status();
    return kExitConfig;
  }
  if (!export_scan(result.records, result.stats, engine_cfg.threads,
                   result.wall_seconds, result.trace, result.metrics_snapshot,
                   result.stage_profile)) {
    finish_status();
    return kExitConfig;
  }
  int exit_code = kExitOk;
  if (result.interrupted) {
    recover::CheckpointState state =
        engine::shutdown_checkpoint(result, shutdown.signal());
    if (!write_state(state)) {
      finish_status();
      return kExitConfig;
    }
    if (!opts.quiet) {
      std::fprintf(stderr, "xmap_sim: interrupted; resume with --resume %s\n",
                   checkpoint_path.c_str());
    }
    exit_code = kExitInterrupted;
  }
  finish_status();
  if (result.failed_workers > 0) {
    std::fprintf(stderr, "xmap_sim: %d worker(s) failed; results partial\n",
                 result.failed_workers);
    return kExitWorkerFailure;
  }
  return exit_code;
}
