#include "xmap/cli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "xmap/output.h"

namespace xmap::scan {
namespace {

CliParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"xmap_sim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsWhenNoFlags) {
  auto result = parse({});
  ASSERT_TRUE(result.options.has_value());
  const auto& opts = *result.options;
  EXPECT_TRUE(opts.targets.empty());
  EXPECT_EQ(opts.probe_module, "icmp_echo");
  EXPECT_DOUBLE_EQ(opts.rate_pps, 25000);
  EXPECT_EQ(opts.shards, 1);
  EXPECT_EQ(opts.world, "paper");
  EXPECT_EQ(opts.output_format, "csv");
  EXPECT_TRUE(opts.use_default_blocklist);
  EXPECT_FALSE(opts.help);
}

TEST(Cli, FullFlagSet) {
  auto result = parse({"--target", "2400::/32-48", "--target", "2600::/24-56",
                       "--probe-module", "tcp_syn:443", "--rate", "1000",
                       "--seed", "99", "--shards", "4", "--shard", "2",
                       "--max-probes", "5000", "--window-bits", "8",
                       "--world", "bgp:100", "--output-format", "jsonl",
                       "--output-file", "/tmp/x.jsonl", "--quiet",
                       "--no-blocklist"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  const auto& opts = *result.options;
  ASSERT_EQ(opts.targets.size(), 2u);
  EXPECT_EQ(opts.targets[0].to_string(), "2400::/32-48");
  EXPECT_EQ(opts.probe_module, "tcp_syn:443");
  EXPECT_DOUBLE_EQ(opts.rate_pps, 1000);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.shards, 4);
  EXPECT_EQ(opts.shard, 2);
  EXPECT_EQ(opts.max_probes, 5000u);
  EXPECT_EQ(opts.window_bits, 8);
  EXPECT_EQ(opts.world, "bgp:100");
  EXPECT_EQ(opts.output_format, "jsonl");
  EXPECT_EQ(opts.output_file, "/tmp/x.jsonl");
  EXPECT_TRUE(opts.quiet);
  EXPECT_FALSE(opts.use_default_blocklist);
}

TEST(Cli, ParallelEngineFlags) {
  auto result = parse({"--threads", "8", "--status-updates-file", "-",
                       "--status-interval-ms", "100"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  EXPECT_EQ(result.options->threads, 8);
  EXPECT_EQ(result.options->status_updates_file, "-");
  EXPECT_EQ(result.options->status_interval_ms, 100);

  // Defaults: one engine worker, monitor off.
  auto plain = parse({});
  EXPECT_EQ(plain.options->threads, 0);
  EXPECT_TRUE(plain.options->status_updates_file.empty());
  EXPECT_EQ(plain.options->status_interval_ms, 250);

  EXPECT_FALSE(parse({"--threads", "0"}).options.has_value());
  EXPECT_FALSE(parse({"--threads", "65"}).options.has_value());
  EXPECT_FALSE(parse({"--threads", "abc"}).options.has_value());
  EXPECT_FALSE(parse({"--status-updates-file"}).options.has_value());
  EXPECT_FALSE(
      parse({"--status-interval-ms", "5"}).options.has_value());
  // The traceroute runner is single-threaded and unmonitored.
  EXPECT_FALSE(parse({"--threads", "2", "--probe-module", "traceroute"})
                   .options.has_value());
  EXPECT_FALSE(parse({"--status-updates-file", "-", "--probe-module",
                      "traceroute"})
                   .options.has_value());
}

TEST(Cli, FabricTransportFlags) {
  auto result = parse({"--fabric-nodes", "2", "--fabric-transport", "tcp",
                       "--fabric-listen", "127.0.0.1:4500",
                       "--fabric-connect", "127.0.0.1:4501"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  EXPECT_EQ(result.options->fabric_transport, "tcp");
  EXPECT_EQ(result.options->fabric_listen, "127.0.0.1:4500");
  EXPECT_EQ(result.options->fabric_connect, "127.0.0.1:4501");

  // Defaults: loopback, ephemeral listen, connect to the bound address.
  auto plain = parse({"--fabric-nodes", "2"});
  ASSERT_TRUE(plain.options.has_value());
  EXPECT_EQ(plain.options->fabric_transport, "loopback");
  EXPECT_EQ(plain.options->fabric_listen, "127.0.0.1:0");
  EXPECT_TRUE(plain.options->fabric_connect.empty());

  EXPECT_FALSE(parse({"--fabric-nodes", "2", "--fabric-transport", "udp"})
                   .options.has_value());
  // Transport flags without the fabric make no sense.
  EXPECT_FALSE(parse({"--fabric-transport", "tcp"}).options.has_value());
  EXPECT_FALSE(
      parse({"--fabric-listen", "127.0.0.1:1"}).options.has_value());
  EXPECT_FALSE(
      parse({"--fabric-connect", "127.0.0.1:1"}).options.has_value());
  // Seeded kills stay valid over tcp (the crash is in the worker).
  EXPECT_TRUE(parse({"--fabric-nodes", "2", "--fabric-transport", "tcp",
                     "--kill-node-at", "1:500"})
                  .options.has_value());
}

TEST(Cli, RetriesFlag) {
  auto result = parse({"--retries", "3"});
  ASSERT_TRUE(result.options.has_value());
  EXPECT_EQ(result.options->retries, 3);
  EXPECT_FALSE(parse({"--retries", "-1"}).options.has_value());
  EXPECT_FALSE(parse({"--retries", "99"}).options.has_value());
}

TEST(Cli, HelpAndListFlags) {
  EXPECT_TRUE(parse({"--help"}).options->help);
  EXPECT_TRUE(parse({"-h"}).options->help);
  EXPECT_TRUE(parse({"--list-probe-modules"}).options->list_probe_modules);
  EXPECT_FALSE(cli_usage().empty());
  EXPECT_FALSE(probe_module_names().empty());
}

struct BadArgs {
  std::initializer_list<const char*> args;
  const char* why;
};

class CliRejects : public ::testing::TestWithParam<int> {};

TEST(Cli, RejectsBadInput) {
  const std::vector<std::vector<const char*>> cases = {
      {"--target"},                        // missing value
      {"--target", "garbage"},             // unparseable spec
      {"--target", "2400::/64-32"},        // inverted window
      {"--rate", "-5"},                    // negative rate
      {"--rate", "abc"},                   // non-numeric
      {"--seed", "x"},                     //
      {"--shards", "0"},                   //
      {"--shard", "3", "--shards", "2"},   // shard >= shards
      {"--window-bits", "30"},             // out of range
      {"--world", "mars"},                 //
      {"--output-format", "xml"},          //
      {"--probe-module", "nope"},          //
      {"--probe-module", "tcp_syn:0"},     // bad port
      {"--probe-module", "tcp_syn:99999"}, //
      {"--probe-module", "icmp_echo:0"},   // bad hop limit
      {"--frobnicate"},                    // unknown flag
  };
  for (const auto& args : cases) {
    std::vector<const char*> argv{"xmap_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    auto result = parse_cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(result.options.has_value())
        << "accepted: " << args[0] << " ...";
    EXPECT_FALSE(result.error.empty());
  }
}

TEST(Cli, AcceptsAllDocumentedModules) {
  for (const char* module :
       {"icmp_echo", "icmp_echo:32", "tcp_syn:80", "udp_dns", "udp_ntp",
        "traceroute"}) {
    auto result = parse({"--probe-module", module});
    EXPECT_TRUE(result.options.has_value()) << module << ": " << result.error;
  }
}

// ---------------------------------------------------------------------------
// Output writers
// ---------------------------------------------------------------------------

ProbeResponse sample_response() {
  ProbeResponse r;
  r.kind = ResponseKind::kDestUnreachable;
  r.responder = *net::Ipv6Address::parse("2400::1");
  r.probe_dst = *net::Ipv6Address::parse("2400:0:0:5::abcd");
  r.icmp_code = 3;
  r.hop_limit = 61;
  return r;
}

TEST(OutputWriters, CsvFormat) {
  std::ostringstream out;
  auto writer = make_writer("csv", out);
  ASSERT_NE(writer, nullptr);
  writer->begin();
  writer->record(sample_response(), 1500 * sim::kMicrosecond);
  writer->end();
  EXPECT_EQ(out.str(),
            "saddr,probe_dst,classification,icmp_code,hlim,timestamp_us\n"
            "2400::1,2400:0:0:5::abcd,dest-unreach,3,61,1500\n");
}

TEST(OutputWriters, JsonlFormat) {
  std::ostringstream out;
  auto writer = make_writer("jsonl", out);
  ASSERT_NE(writer, nullptr);
  writer->begin();
  writer->record(sample_response(), 2 * sim::kSecond);
  writer->end();
  EXPECT_EQ(out.str(),
            "{\"saddr\":\"2400::1\",\"probe_dst\":\"2400:0:0:5::abcd\","
            "\"classification\":\"dest-unreach\",\"icmp_code\":3,"
            "\"hlim\":61,\"timestamp_us\":2000000}\n");
}

TEST(Cli, ResilienceFlags) {
  auto result = parse({"--retries", "2", "--retry-spacing-ms", "250",
                       "--cooldown-secs", "4.5", "--adaptive-rate"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  const auto& opts = *result.options;
  EXPECT_EQ(opts.retries, 2);
  EXPECT_DOUBLE_EQ(opts.retry_spacing_ms, 250);
  EXPECT_DOUBLE_EQ(opts.cooldown_secs, 4.5);
  EXPECT_TRUE(opts.adaptive_rate);
  // Defaults when absent.
  auto plain = parse({});
  EXPECT_DOUBLE_EQ(plain.options->retry_spacing_ms, 100);
  EXPECT_DOUBLE_EQ(plain.options->cooldown_secs, 8);
  EXPECT_FALSE(plain.options->adaptive_rate);
  EXPECT_FALSE(plain.options->faults_given);
  EXPECT_FALSE(plain.options->faults.any());
}

TEST(Cli, FaultInjectionFlags) {
  auto result = parse({"--fault-seed", "99", "--access-loss", "0.2",
                       "--core-loss", "0.01", "--burst", "3/80/0.9",
                       "--duplicate", "0.05", "--corrupt", "0.02",
                       "--jitter-ms", "2.5", "--flap", "2000/200/0.3",
                       "--silent", "0.1/500/1500", "--device-icmp-rate",
                       "100", "--router-icmp-rate", "1000"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  const auto& opts = *result.options;
  EXPECT_TRUE(opts.faults_given);
  EXPECT_EQ(opts.faults.seed, 99u);
  EXPECT_DOUBLE_EQ(opts.faults.access.loss, 0.2);
  EXPECT_DOUBLE_EQ(opts.faults.core.loss, 0.01);
  EXPECT_DOUBLE_EQ(opts.faults.access.burst.rate_per_sec, 3);
  EXPECT_DOUBLE_EQ(opts.faults.access.burst.mean_ms, 80);
  EXPECT_DOUBLE_EQ(opts.faults.access.burst.loss, 0.9);
  EXPECT_DOUBLE_EQ(opts.faults.access.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(opts.faults.access.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(opts.faults.access.jitter_ms, 2.5);
  EXPECT_DOUBLE_EQ(opts.faults.access.flap.period_ms, 2000);
  EXPECT_DOUBLE_EQ(opts.faults.access.flap.down_ms, 200);
  EXPECT_DOUBLE_EQ(opts.faults.access.flap.fraction, 0.3);
  EXPECT_DOUBLE_EQ(opts.faults.silent.fraction, 0.1);
  EXPECT_DOUBLE_EQ(opts.faults.silent.start_ms, 500);
  EXPECT_DOUBLE_EQ(opts.faults.silent.duration_ms, 1500);
  EXPECT_EQ(opts.device_icmp_rate, 100u);
  EXPECT_EQ(opts.router_icmp_rate, 1000u);
  EXPECT_TRUE(opts.faults.any());
}

TEST(Cli, SlashedSpecsAcceptOptionalFields) {
  auto burst = parse({"--burst", "2"});
  ASSERT_TRUE(burst.options.has_value()) << burst.error;
  EXPECT_DOUBLE_EQ(burst.options->faults.access.burst.rate_per_sec, 2);
  EXPECT_DOUBLE_EQ(burst.options->faults.access.burst.mean_ms, 50);
  EXPECT_DOUBLE_EQ(burst.options->faults.access.burst.loss, 1);

  auto flap = parse({"--flap", "1000/100"});
  ASSERT_TRUE(flap.options.has_value()) << flap.error;
  EXPECT_DOUBLE_EQ(flap.options->faults.access.flap.fraction, 1);

  auto silent = parse({"--silent", "0.25"});
  ASSERT_TRUE(silent.options.has_value()) << silent.error;
  EXPECT_DOUBLE_EQ(silent.options->faults.silent.fraction, 0.25);
  EXPECT_DOUBLE_EQ(silent.options->faults.silent.duration_ms, 0);
}

TEST(Cli, RejectsBadFaultFlags) {
  EXPECT_FALSE(parse({"--access-loss", "1.5"}).options.has_value());
  EXPECT_FALSE(parse({"--corrupt", "-0.1"}).options.has_value());
  EXPECT_FALSE(parse({"--burst", "abc"}).options.has_value());
  EXPECT_FALSE(parse({"--burst", "1/2/3/4"}).options.has_value());
  EXPECT_FALSE(parse({"--flap", "100"}).options.has_value());
  EXPECT_FALSE(parse({"--flap", "100/200"}).options.has_value());  // down>per
  EXPECT_FALSE(parse({"--silent", "2"}).options.has_value());
  EXPECT_FALSE(parse({"--cooldown-secs", "-1"}).options.has_value());
  EXPECT_FALSE(parse({"--retry-spacing-ms", "x"}).options.has_value());
  EXPECT_FALSE(parse({"--device-icmp-rate", "-5"}).options.has_value());
}

TEST(Cli, UsageMentionsResilienceAndFaultFlags) {
  const std::string usage = cli_usage();
  for (const char* flag :
       {"--retry-spacing-ms", "--cooldown-secs", "--adaptive-rate",
        "--fault-seed", "--access-loss", "--burst", "--flap", "--silent",
        "--device-icmp-rate"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(Cli, ObservabilityFlags) {
  auto result = parse({"--trace-file", "/tmp/trace.jsonl", "--trace-level",
                       "packet", "--trace-format", "chrome", "--metrics-file",
                       "/tmp/metrics.prom", "--profile"});
  ASSERT_TRUE(result.options.has_value()) << result.error;
  const auto& opts = *result.options;
  EXPECT_EQ(opts.trace_file, "/tmp/trace.jsonl");
  ASSERT_TRUE(opts.trace_level.has_value());
  EXPECT_EQ(*opts.trace_level, obs::TraceLevel::kPacket);
  EXPECT_EQ(opts.trace_format, "chrome");
  EXPECT_EQ(opts.metrics_file, "/tmp/metrics.prom");
  EXPECT_TRUE(opts.profile);

  // Defaults: everything off, level unset (so a spec file can supply it).
  auto plain = parse({});
  ASSERT_TRUE(plain.options.has_value());
  EXPECT_TRUE(plain.options->trace_file.empty());
  EXPECT_FALSE(plain.options->trace_level.has_value());
  EXPECT_TRUE(plain.options->metrics_file.empty());
  EXPECT_FALSE(plain.options->profile);
}

TEST(Cli, RejectsBadObservabilityFlags) {
  EXPECT_FALSE(parse({"--trace-level", "verbose"}).options.has_value());
  EXPECT_FALSE(parse({"--trace-format", "xml"}).options.has_value());
  EXPECT_FALSE(parse({"--trace-file"}).options.has_value());
  // The traceroute runner bypasses the scanner, so obs flags are rejected.
  EXPECT_FALSE(parse({"--probe-module", "traceroute", "--metrics-file", "m"})
                   .options.has_value());
  EXPECT_FALSE(parse({"--probe-module", "traceroute", "--profile"})
                   .options.has_value());
}

TEST(Cli, UsageMentionsObservabilityFlags) {
  const std::string usage = cli_usage();
  for (const char* flag : {"--trace-level", "--trace-file", "--trace-format",
                           "--metrics-file", "--profile"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(OutputWriters, JsonAliasAndUnknown) {
  std::ostringstream out;
  EXPECT_NE(make_writer("json", out), nullptr);
  EXPECT_EQ(make_writer("xml", out), nullptr);
}

TEST(OutputWriters, MultipleRecords) {
  std::ostringstream out;
  auto writer = make_writer("csv", out);
  writer->begin();
  for (int i = 0; i < 3; ++i) writer->record(sample_response(), 0);
  // Header + 3 rows.
  int lines = 0;
  for (char c : out.str()) lines += c == '\n';
  EXPECT_EQ(lines, 4);
}

// One `xmap_sim` command found in a fenced code block of the docs.
struct DocCommand {
  std::string where;  // "<file>:<line>"
  std::vector<std::string> args;  // argv[1..], comments stripped
};

// Every xmap_sim invocation inside the ``` blocks of `path` (the program
// is `xmap_sim` or a path ending in `/xmap_sim`), with `\` continuations
// joined and trailing `# comments` dropped.
std::vector<DocCommand> doc_commands(const std::filesystem::path& path) {
  std::vector<DocCommand> out;
  std::ifstream in{path};
  std::string line;
  bool fenced = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("```", 0) == 0) {
      fenced = !fenced;
      continue;
    }
    if (!fenced) continue;
    const int first_line = line_no;
    while (!line.empty() && line.back() == '\\') {
      line.pop_back();
      std::string next;
      if (!std::getline(in, next)) break;
      ++line_no;
      line += " " + next;
    }
    std::istringstream tokens{line};
    std::string program;
    if (!(tokens >> program)) continue;
    if (program != "xmap_sim" &&
        (program.size() < 9 ||
         program.compare(program.size() - 9, 9, "/xmap_sim") != 0)) {
      continue;
    }
    DocCommand command;
    command.where = path.filename().string() + ":" +
                    std::to_string(first_line);
    std::string token;
    while (tokens >> token && token[0] != '#') command.args.push_back(token);
    // A command line starts with a flag; anything else (a diagram label
    // such as "tools/xmap_sim · bench/*") is prose.
    if (!command.args.empty() && command.args[0][0] != '-') continue;
    out.push_back(std::move(command));
  }
  return out;
}

// The documented command lines are part of the interface: each one must
// parse (nothing is run), so a renamed or misspelled flag in README.md or
// docs/*.md fails here instead of in a reader's shell.
TEST(DocExamples, EveryDocumentedXmapSimCommandParses) {
  const std::filesystem::path root{XMAP_SOURCE_DIR};
  std::vector<std::filesystem::path> files{root / "README.md"};
  for (const auto& entry : std::filesystem::directory_iterator{root / "docs"}) {
    if (entry.path().extension() == ".md") files.push_back(entry.path());
  }
  std::sort(files.begin() + 1, files.end());

  std::size_t checked = 0;
  for (const auto& file : files) {
    for (const auto& command : doc_commands(file)) {
      SCOPED_TRACE(command.where);
      std::vector<const char*> argv{"xmap_sim"};
      for (const auto& arg : command.args) argv.push_back(arg.c_str());
      const auto result =
          parse_cli(static_cast<int>(argv.size()), argv.data());
      EXPECT_TRUE(result.options.has_value()) << result.error;
      ++checked;
    }
  }
  // README, recovery, observability, distributed and results_store all
  // show the CLI; finding fewer means the extraction broke, not the docs.
  EXPECT_GE(checked, 9u);
}

}  // namespace
}  // namespace xmap::scan
