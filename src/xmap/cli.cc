#include "xmap/cli.h"

#include <charconv>

namespace xmap::scan {
namespace {

bool parse_int(std::string_view text, long long& out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double& out) {
  // from_chars for double is not available everywhere; strtod via a copy.
  const std::string copy{text};
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

// Splits "a/b[/c...]" into numbers. Accepts min..max fields, fills `out`.
bool parse_slashed(std::string_view text, double* out, int min_fields,
                   int max_fields, int& n_fields) {
  n_fields = 0;
  for (;;) {
    const std::size_t cut = text.find('/');
    if (n_fields == max_fields) return false;  // too many fields
    if (!parse_double(text.substr(0, cut), out[n_fields])) return false;
    ++n_fields;
    if (cut == std::string_view::npos) break;
    text.remove_prefix(cut + 1);
  }
  return n_fields >= min_fields;
}

bool unit_range(double v) { return v >= 0 && v <= 1; }

}  // namespace

std::vector<std::string> probe_module_names() {
  return {"icmp_echo", "icmp_echo:<hoplimit>", "tcp_syn:<port>", "udp_dns",
          "udp_ntp", "traceroute"};
}

std::string cli_usage() {
  return R"(xmap_sim — the XMap scanner driven against the simulated Internet

Usage: xmap_sim [options]

Target selection:
  --target <addr/lo-hi>     scan window spec (repeatable);
                            default: every block of the selected world
  --world paper|bgp:<n>|file:<path>
                            substrate: the 15 calibrated ISP blocks, a
                            synthetic BGP table with <n> ASes, or a JSON
                            spec file (default paper)
  --window-bits <n>         slots per block = 2^n (default 10)

Scanning:
  --probe-module <name>     icmp_echo[:<hoplimit>] | tcp_syn:<port> |
                            udp_dns | udp_ntp | traceroute (default icmp_echo)
  --rate <pps>              probes per (simulated) second (default 25000)
  --seed <n>                permutation & validation seed (default 1)
  --shards <n> --shard <i>  partition the scan zmap-style
  --max-probes <n>          probe at most n targets (each sent 1+retries
                            times); cut at a fixed permutation slot, so the
                            output is identical at any --threads (default:
                            all)
  --retries <n>             send each probe 1+n times (default 0)
  --retry-spacing-ms <ms>   target gap between copies of a probe; rounded
                            to whole pacing slots (default 100)
  --cooldown-secs <s>       keep receiving this long after the last send,
                            zmap-style (default 8)
  --adaptive-rate           AIMD backoff: halve the rate when the hit rate
                            collapses, recover multiplicatively (note:
                            makes results depend on --threads)
  --no-blocklist            do not apply the special-use-prefix blocklist

Fault injection (deterministic, keyed off --fault-seed):
  --fault-seed <n>          fault stream seed (default: the scan seed)
  --access-loss <p>         i.i.d. loss on access links (0..1)
  --core-loss <p>           i.i.d. loss on core links (0..1)
  --burst <r>[/<ms>[/<p>]]  Gilbert-Elliott bursts on access links: r burst
                            starts per link-second, mean ms long, drop
                            probability p inside (defaults 50 ms, p=1)
  --duplicate <p>           access-link duplication probability
  --corrupt <p>             access-link bit-corruption probability
  --jitter-ms <ms>          max extra access-link delay (reorders)
  --flap <period>/<down>[/<frac>]
                            a fraction of access links goes down for
                            down ms out of every period ms
  --silent <frac>[/<start>/<dur_ms>]
                            fraction of CPEs ignores traffic during the
                            window (dur 0 = forever)
  --device-icmp-rate <n>    CPE ICMPv6 error tokens/sec (0 = unlimited)
  --router-icmp-rate <n>    router ICMPv6 error tokens/sec (0 = unlimited)

Parallel engine:
  --threads <n>             scan with n worker threads, each walking a
                            disjoint sub-shard of the permutation (1..64,
                            default 1)
  --status-updates-file <path|->
                            live monitor: periodic status lines plus a
                            final JSON metrics summary ('-' = stderr)
  --status-interval-ms <n>  monitor cadence (default 250)

Distributed fabric (src/fabric; see docs/distributed.md):
  --fabric-nodes <n>        scan through the coordinator/worker fabric with
                            n worker engines over the loopback transport
                            (1..32); exits 1 when any shard could not be
                            completed
  --fabric-shards <n>       fabric shard count — the determinism unit: the
                            records equal an engine run at --threads n for
                            any node count (default 8)
  --fabric-heartbeat-ms <n> worker heartbeat cadence (default 25)
  --fabric-heartbeat-timeout-ms <n>
                            silence after which a worker is declared dead
                            and its shard fails over (default 250)
  --fabric-transport <t>    loopback (in-process, default) or tcp: every
                            frame crosses a real socket; workers reconnect
                            after socket death via the rejoin handshake
  --fabric-listen <addr:port>
                            tcp: coordinator bind address (default
                            127.0.0.1:0 — port 0 picks an ephemeral port);
                            bind failures exit 2 naming address and errno
  --fabric-connect <addr:port>
                            tcp: worker connect address (default the
                            coordinator's actual bound address)
  --kill-node-at <node>:<slot>[:close]
                            seeded crash: worker <node> dies when its scan
                            frontier reaches permutation slot <slot>
                            (repeatable); with :close its connection drops
                            immediately, otherwise death is detected by
                            heartbeat timeout
  --fabric-trace-file <path>
                            causal cross-node deployment trace (Perfetto /
                            chrome://tracing JSON): lease grants, probe
                            streams, checkpoints, heartbeat loss, death
                            verdicts, lease migrations, retransmits — wall
                            clock, separate from the deterministic
                            --trace-file
  --fabric-metrics-file <path>
                            Prometheus text export including the wall-clock
                            fabric_* deployment series (per-node labels)
  --fabric-timeline-file <path>
                            health timeline: interval JSONL snapshots of
                            fabric state (live/busy/dead workers, shard
                            phases, retransmits)
  --flight-recorder-events <n>
                            per-node protocol flight recorder ring size
                            (0 = off); rings dump to JSONL on worker death,
                            lease refusal, or a failed fabric
  --flight-recorder-prefix <path>
                            where flight-recorder dumps go (default:
                            <output-file>.flightrec, or fabric.flightrec
                            for stdout output)

Observability:
  --trace-level off|scan|packet
                            deterministic sim-clock event trace: per-target
                            lifecycle (scan) or every substrate event
                            (packet); byte-identical across --threads
  --trace-file <path>       write the trace (implies --trace-level scan)
  --trace-format jsonl|chrome
                            trace serialization; default: chrome when the
                            file ends in .json, else jsonl
  --metrics-file <path>     Prometheus text export of the labeled metrics
                            registry (deterministic series only)
  --profile                 wall-clock stage timing table on stderr at exit

Recovery (see docs/recovery.md):
  --checkpoint-file <path>  where state snapshots go (default:
                            <output-file>.state, or xmap.state for stdout
                            output); SIGINT/SIGTERM always writes one and
                            exits 3 (resumable)
  --checkpoint-interval-probes <n>
                            additionally snapshot every n drawn targets
                            (default 0 = only on shutdown); incompatible
                            with --adaptive-rate
  --resume <path>           continue an interrupted scan from its state
                            file; the run configuration must match the
                            checkpoint's fingerprint exactly, and the
                            combined output is byte-identical to an
                            uninterrupted run
  --shutdown-after-probes <n>
                            deterministic test hook: act as if SIGTERM
                            arrived when the permutation frontier reaches
                            global slot n

Output:
  --output-format csv|jsonl (default csv)
  --output-file <path>      default: stdout
  --store-file <path>       also write a queryable results-store snapshot
                            (xmap_store info/query/agg/diff); byte-identical
                            across --threads for a fixed config
  --quiet                   suppress the stats footer
  --list-probe-modules      print module names and exit
  --help                    this text
)";
}

CliParseResult parse_cli(int argc, const char* const* argv) {
  CliOptions opts;
  auto fail = [](std::string message) {
    return CliParseResult{std::nullopt, std::move(message)};
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next_value = [&](std::string_view flag,
                          std::string& out) -> bool {
      if (i + 1 >= argc) {
        out.clear();
        return false;
      }
      (void)flag;
      out = argv[++i];
      return true;
    };

    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--list-probe-modules") {
      opts.list_probe_modules = true;
    } else if (arg == "--quiet" || arg == "-q") {
      opts.quiet = true;
    } else if (arg == "--no-blocklist") {
      opts.use_default_blocklist = false;
    } else if (arg == "--target") {
      std::string value;
      if (!next_value(arg, value)) return fail("--target needs a value");
      auto spec = TargetSpec::parse(value);
      if (!spec) return fail("bad target spec: " + value);
      opts.targets.push_back(*spec);
    } else if (arg == "--probe-module") {
      std::string value;
      if (!next_value(arg, value)) return fail("--probe-module needs a value");
      opts.probe_module = value;
    } else if (arg == "--world") {
      std::string value;
      if (!next_value(arg, value)) return fail("--world needs a value");
      if (value != "paper" && value.rfind("bgp:", 0) != 0 &&
          value.rfind("file:", 0) != 0) {
        return fail("--world must be 'paper', 'bgp:<n>' or 'file:<path>'");
      }
      opts.world = value;
    } else if (arg == "--rate") {
      std::string value;
      if (!next_value(arg, value)) return fail("--rate needs a value");
      if (!parse_double(value, opts.rate_pps) || opts.rate_pps <= 0) {
        return fail("bad --rate: " + value);
      }
    } else if (arg == "--seed") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --seed");
      }
      opts.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--shards") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 1) {
        return fail("bad --shards");
      }
      opts.shards = static_cast<int>(n);
    } else if (arg == "--shard") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --shard");
      }
      opts.shard = static_cast<int>(n);
    } else if (arg == "--retries") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0 || n > 16) {
        return fail("bad --retries (0..16)");
      }
      opts.retries = static_cast<int>(n);
    } else if (arg == "--max-probes") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --max-probes");
      }
      opts.max_probes = static_cast<std::uint64_t>(n);
    } else if (arg == "--resume") {
      std::string value;
      if (!next_value(arg, value)) return fail("--resume needs a value");
      opts.resume_file = value;
    } else if (arg == "--checkpoint-file") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--checkpoint-file needs a value");
      }
      opts.checkpoint_file = value;
    } else if (arg == "--checkpoint-interval-probes") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --checkpoint-interval-probes");
      }
      opts.checkpoint_interval = static_cast<std::uint64_t>(n);
    } else if (arg == "--shutdown-after-probes") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --shutdown-after-probes");
      }
      opts.shutdown_after_probes = static_cast<std::uint64_t>(n);
    } else if (arg == "--threads") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 1 ||
          n > 64) {
        return fail("bad --threads (1..64)");
      }
      opts.threads = static_cast<int>(n);
    } else if (arg == "--status-updates-file") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--status-updates-file needs a value");
      }
      opts.status_updates_file = value;
    } else if (arg == "--status-interval-ms") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 10 ||
          n > 60000) {
        return fail("bad --status-interval-ms (10..60000)");
      }
      opts.status_interval_ms = static_cast<int>(n);
    } else if (arg == "--window-bits") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 4 || n > 20) {
        return fail("bad --window-bits (4..20)");
      }
      opts.window_bits = static_cast<int>(n);
    } else if (arg == "--output-format") {
      std::string value;
      if (!next_value(arg, value)) return fail("--output-format needs a value");
      if (value != "csv" && value != "jsonl" && value != "json") {
        return fail("--output-format must be csv or jsonl");
      }
      opts.output_format = value;
    } else if (arg == "--output-file") {
      std::string value;
      if (!next_value(arg, value)) return fail("--output-file needs a value");
      opts.output_file = value;
    } else if (arg == "--store-file") {
      std::string value;
      if (!next_value(arg, value)) return fail("--store-file needs a value");
      opts.store_file = value;
    } else if (arg == "--trace-file") {
      std::string value;
      if (!next_value(arg, value)) return fail("--trace-file needs a value");
      opts.trace_file = value;
    } else if (arg == "--trace-format") {
      std::string value;
      if (!next_value(arg, value)) return fail("--trace-format needs a value");
      if (value != "jsonl" && value != "chrome") {
        return fail("--trace-format must be jsonl or chrome");
      }
      opts.trace_format = value;
    } else if (arg == "--trace-level") {
      std::string value;
      obs::TraceLevel level = obs::TraceLevel::kOff;
      if (!next_value(arg, value) ||
          !obs::trace_level_from_string(value, level)) {
        return fail("--trace-level must be off, scan or packet");
      }
      opts.trace_level = level;
    } else if (arg == "--metrics-file") {
      std::string value;
      if (!next_value(arg, value)) return fail("--metrics-file needs a value");
      opts.metrics_file = value;
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--retry-spacing-ms") {
      std::string value;
      if (!next_value(arg, value) ||
          !parse_double(value, opts.retry_spacing_ms) ||
          opts.retry_spacing_ms < 0 || opts.retry_spacing_ms > 60000) {
        return fail("bad --retry-spacing-ms (0..60000)");
      }
    } else if (arg == "--cooldown-secs") {
      std::string value;
      if (!next_value(arg, value) ||
          !parse_double(value, opts.cooldown_secs) ||
          opts.cooldown_secs < 0 || opts.cooldown_secs > 3600) {
        return fail("bad --cooldown-secs (0..3600)");
      }
    } else if (arg == "--adaptive-rate") {
      opts.adaptive_rate = true;
    } else if (arg == "--fault-seed") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0) {
        return fail("bad --fault-seed");
      }
      opts.faults.seed = static_cast<std::uint64_t>(n);
      opts.faults_given = true;
    } else if (arg == "--access-loss" || arg == "--core-loss" ||
               arg == "--duplicate" || arg == "--corrupt") {
      std::string value;
      double p = 0;
      if (!next_value(arg, value) || !parse_double(value, p) ||
          !unit_range(p)) {
        return fail("bad " + std::string{arg} + " (probability in 0..1)");
      }
      if (arg == "--access-loss") opts.faults.access.loss = p;
      if (arg == "--core-loss") opts.faults.core.loss = p;
      if (arg == "--duplicate") opts.faults.access.duplicate = p;
      if (arg == "--corrupt") opts.faults.access.corrupt = p;
      opts.faults_given = true;
    } else if (arg == "--jitter-ms") {
      std::string value;
      if (!next_value(arg, value) ||
          !parse_double(value, opts.faults.access.jitter_ms) ||
          opts.faults.access.jitter_ms < 0) {
        return fail("bad --jitter-ms");
      }
      opts.faults_given = true;
    } else if (arg == "--burst") {
      std::string value;
      double f[3] = {0, 50, 1};
      int n = 0;
      if (!next_value(arg, value) || !parse_slashed(value, f, 1, 3, n) ||
          f[0] < 0 || (n > 1 && f[1] <= 0) || (n > 2 && !unit_range(f[2]))) {
        return fail("bad --burst (<rate_per_sec>[/<mean_ms>[/<loss>]])");
      }
      opts.faults.access.burst.rate_per_sec = f[0];
      if (n > 1) opts.faults.access.burst.mean_ms = f[1];
      if (n > 2) opts.faults.access.burst.loss = f[2];
      opts.faults_given = true;
    } else if (arg == "--flap") {
      std::string value;
      double f[3] = {0, 0, 1};
      int n = 0;
      if (!next_value(arg, value) || !parse_slashed(value, f, 2, 3, n) ||
          f[0] < 0 || f[1] < 0 || f[1] > f[0] ||
          (n > 2 && !unit_range(f[2]))) {
        return fail("bad --flap (<period_ms>/<down_ms>[/<fraction>])");
      }
      opts.faults.access.flap.period_ms = f[0];
      opts.faults.access.flap.down_ms = f[1];
      if (n > 2) opts.faults.access.flap.fraction = f[2];
      opts.faults_given = true;
    } else if (arg == "--silent") {
      std::string value;
      double f[3] = {0, 0, 0};
      int n = 0;
      if (!next_value(arg, value) || !parse_slashed(value, f, 1, 3, n) ||
          !unit_range(f[0]) || f[1] < 0 || f[2] < 0) {
        return fail("bad --silent (<fraction>[/<start_ms>/<duration_ms>])");
      }
      opts.faults.silent.fraction = f[0];
      opts.faults.silent.start_ms = f[1];
      opts.faults.silent.duration_ms = f[2];
      opts.faults_given = true;
    } else if (arg == "--fabric-nodes") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 1 ||
          n > 32) {
        return fail("bad --fabric-nodes (1..32)");
      }
      opts.fabric_nodes = static_cast<int>(n);
    } else if (arg == "--fabric-shards") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 1 ||
          n > 1024) {
        return fail("bad --fabric-shards (1..1024)");
      }
      opts.fabric_shards = static_cast<int>(n);
    } else if (arg == "--fabric-heartbeat-ms") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 1 ||
          n > 10000) {
        return fail("bad --fabric-heartbeat-ms (1..10000)");
      }
      opts.fabric_heartbeat_ms = static_cast<int>(n);
    } else if (arg == "--fabric-heartbeat-timeout-ms") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 2 ||
          n > 60000) {
        return fail("bad --fabric-heartbeat-timeout-ms (2..60000)");
      }
      opts.fabric_heartbeat_timeout_ms = static_cast<int>(n);
    } else if (arg == "--fabric-transport") {
      std::string value;
      if (!next_value(arg, value) ||
          (value != "loopback" && value != "tcp")) {
        return fail("bad --fabric-transport (loopback|tcp)");
      }
      opts.fabric_transport = value;
    } else if (arg == "--fabric-listen") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--fabric-listen needs <addr:port>");
      }
      opts.fabric_listen = value;
    } else if (arg == "--fabric-connect") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--fabric-connect needs <addr:port>");
      }
      opts.fabric_connect = value;
    } else if (arg == "--fabric-trace-file") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--fabric-trace-file needs a value");
      }
      opts.fabric_trace_file = value;
    } else if (arg == "--fabric-metrics-file") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--fabric-metrics-file needs a value");
      }
      opts.fabric_metrics_file = value;
    } else if (arg == "--fabric-timeline-file") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--fabric-timeline-file needs a value");
      }
      opts.fabric_timeline_file = value;
    } else if (arg == "--flight-recorder-events") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0 ||
          n > 1000000) {
        return fail("bad --flight-recorder-events (0..1000000)");
      }
      opts.flight_recorder_events = static_cast<std::size_t>(n);
    } else if (arg == "--flight-recorder-prefix") {
      std::string value;
      if (!next_value(arg, value)) {
        return fail("--flight-recorder-prefix needs a value");
      }
      opts.flight_recorder_prefix = value;
    } else if (arg == "--kill-node-at") {
      std::string value;
      if (!next_value(arg, value)) return fail("--kill-node-at needs a value");
      fabric::NodeKill kill;
      std::string_view text = value;
      bool ok = true;
      const std::size_t first = text.find(':');
      long long node = 0;
      long long slot = 0;
      if (first == std::string_view::npos ||
          !parse_int(text.substr(0, first), node) || node < 0) {
        ok = false;
      } else {
        text.remove_prefix(first + 1);
        const std::size_t second = text.find(':');
        if (!parse_int(text.substr(0, second), slot) || slot < 1) {
          ok = false;
        } else if (second != std::string_view::npos) {
          if (text.substr(second + 1) != "close") ok = false;
          kill.close_transport = true;
        }
      }
      if (!ok) return fail("bad --kill-node-at (<node>:<slot>[:close])");
      kill.node = static_cast<int>(node);
      kill.at_slot = static_cast<std::uint64_t>(slot);
      opts.fabric_kills.push_back(kill);
    } else if (arg == "--device-icmp-rate" || arg == "--router-icmp-rate") {
      std::string value;
      long long n = 0;
      if (!next_value(arg, value) || !parse_int(value, n) || n < 0 ||
          n > 1000000) {
        return fail("bad " + std::string{arg} + " (0..1000000 tokens/sec)");
      }
      if (arg == "--device-icmp-rate") {
        opts.device_icmp_rate = static_cast<std::uint32_t>(n);
      } else {
        opts.router_icmp_rate = static_cast<std::uint32_t>(n);
      }
    } else {
      return fail("unknown flag: " + std::string{arg});
    }
  }

  if (opts.shard >= opts.shards) {
    return fail("--shard must be < --shards");
  }

  // Validate the probe module selector.
  const std::string& module = opts.probe_module;
  const bool known =
      module == "icmp_echo" || module.rfind("icmp_echo:", 0) == 0 ||
      module.rfind("tcp_syn:", 0) == 0 || module == "udp_dns" ||
      module == "udp_ntp" || module == "traceroute";
  if (!known) return fail("unknown probe module: " + module);
  if (module.rfind("tcp_syn:", 0) == 0) {
    long long port = 0;
    if (!parse_int(module.substr(8), port) || port < 1 || port > 65535) {
      return fail("bad tcp_syn port");
    }
  }
  if (module.rfind("icmp_echo:", 0) == 0) {
    long long hl = 0;
    if (!parse_int(module.substr(10), hl) || hl < 1 || hl > 255) {
      return fail("bad icmp_echo hop limit");
    }
  }
  if (module == "traceroute" &&
      (opts.threads > 0 || !opts.status_updates_file.empty())) {
    return fail(
        "--threads/--status-updates-file need a bulk probe module, not the "
        "traceroute runner");
  }
  if (module == "traceroute" &&
      (!opts.trace_file.empty() || !opts.metrics_file.empty() ||
       opts.profile || opts.trace_level.has_value())) {
    return fail(
        "observability flags need a bulk probe module, not the traceroute "
        "runner");
  }
  if (module == "traceroute" &&
      (!opts.resume_file.empty() || !opts.checkpoint_file.empty() ||
       opts.checkpoint_interval != 0 || opts.shutdown_after_probes != 0)) {
    return fail(
        "checkpoint/resume flags need a bulk probe module, not the "
        "traceroute runner");
  }
  if (opts.fabric_nodes == 0 && !opts.fabric_kills.empty()) {
    return fail("--kill-node-at needs --fabric-nodes");
  }
  if (opts.fabric_nodes == 0 &&
      (!opts.fabric_trace_file.empty() || !opts.fabric_metrics_file.empty() ||
       !opts.fabric_timeline_file.empty() || opts.flight_recorder_events > 0 ||
       !opts.flight_recorder_prefix.empty())) {
    return fail(
        "--fabric-trace-file/--fabric-metrics-file/--fabric-timeline-file/"
        "--flight-recorder-* need --fabric-nodes");
  }
  if (opts.fabric_nodes > 0) {
    if (opts.threads > 0 || !opts.status_updates_file.empty()) {
      return fail(
          "--fabric-nodes and --threads are different executors; fabric "
          "parallelism is --fabric-shards");
    }
    if (module == "traceroute") {
      return fail("--fabric-nodes needs a bulk probe module, not the "
                  "traceroute runner");
    }
    if (opts.adaptive_rate) {
      return fail(
          "--fabric-nodes is incompatible with --adaptive-rate (no stable "
          "cursor to hand over on failover under AIMD pacing)");
    }
    if (!opts.resume_file.empty() || !opts.checkpoint_file.empty() ||
        opts.shutdown_after_probes != 0) {
      return fail(
          "--resume/--checkpoint-file/--shutdown-after-probes are "
          "single-machine recovery flags; the fabric checkpoints shard "
          "leases internally (--checkpoint-interval-probes sets the "
          "cadence)");
    }
    for (const auto& kill : opts.fabric_kills) {
      if (kill.node >= opts.fabric_nodes) {
        return fail("--kill-node-at names node " + std::to_string(kill.node) +
                    " but there are only " +
                    std::to_string(opts.fabric_nodes) + " fabric nodes");
      }
    }
  }
  if (opts.fabric_nodes == 0 &&
      (opts.fabric_transport != "loopback" ||
       opts.fabric_listen != "127.0.0.1:0" || !opts.fabric_connect.empty())) {
    return fail(
        "--fabric-transport/--fabric-listen/--fabric-connect need "
        "--fabric-nodes");
  }
  if (opts.checkpoint_interval != 0 && opts.adaptive_rate) {
    // AIMD pacing makes the send schedule state-dependent, so there is no
    // analytically stable mid-flight cursor; only the quiescent shutdown
    // checkpoint is well-defined under --adaptive-rate.
    return fail(
        "--checkpoint-interval-probes is incompatible with --adaptive-rate "
        "(no stable mid-flight cursor under AIMD pacing)");
  }

  return CliParseResult{std::move(opts), {}};
}

}  // namespace xmap::scan
