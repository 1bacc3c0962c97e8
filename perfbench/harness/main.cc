// The xmap6 benchmark harness.
//
//   perfbench_harness --workload census|lossy_fabric|audit|store_query
//                     --seed N --seconds S --trace 0|1
//                     [--size full|tiny] [--inject drop_record|wrong_answer]
//                     [--out-dir DIR] [--source-id ID]
//
// Untraced (--trace 0): repeats setup -> job -> ground-truth check until
// --seconds are spent and prints the end-to-end metrics as medians over the
// repetitions. Traced (--trace 1): interleaves untraced and traced
// repetitions (U T T U ...), then runs the per-layer replays, writes the
// spans as Chrome trace JSON and prints the per-layer metrics. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad arguments, 3 when the harness itself failed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Every per-layer metric a traced run reports, on every workload.
constexpr const char* kLayerMetrics[] = {
    "topology.build_s",       "topology.rss_mb",
    "topology.devices",       "sim.prepare_s",
    "sim.run_s",              "sim.events_per_probe",
    "sim.hops_per_probe",     "sim.bulk_mode",
    "sim.fault_drops",        "sim.clamped_events",
    "xmap.permute_ns",        "xmap.patch_ns",
    "xmap.classify_ns",       "xmap.output_ns",
    "netbase.checksum_ns",    "netbase.lpm_ns",
    "packet.parse_ns",        "engine.replica_build_s",
    "engine.merge_s",         "fabric.frame_encode_ns",
    "fabric.frame_decode_ns", "fabric.reassemble_ns",
    "fabric.bytes_per_record", "fabric.retransmits",
    "store.encode_s",         "store.bytes_per_record",
    "store.load_s",           "store.lookup_ns",
    "store.scan_ns_per_record", "store.aggregate_s",
    "analysis.grab_s",        "analysis.loop_scan_s",
    "analysis.loop_candidates", "loopattack.attack_s",
    "loopattack.amplification", "ledger.unattributed_share",
    "obs.trace_overhead_pct",
};

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Options& o) {
  std::printf(
      "provenance {\"source\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\"%s}\n",
      json_escape(o.source_id).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.tiny ? "tiny" : "full",
      o.workload == "lossy_fabric"
          ? ", \"note\": \"fabric traffic crossed the host loopback "
            "interface (127.0.0.1), not a real link\""
          : "");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      o.tiny = value == "tiny";
    } else if (flag == "--inject") {
      if (value != "drop_record" && value != "wrong_answer") return false;
      o.inject = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--source-id") {
      o.source_id = value;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "census") return make_census(o);
  if (o.workload == "lossy_fabric") return make_lossy_fabric(o);
  if (o.workload == "audit") return make_audit(o);
  if (o.workload == "store_query") return make_store_query(o);
  return nullptr;
}

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double ops = 0;
  double peak_mb = 0;
  double reference_s = 0;  // the reference work's time around this rep

  // Measured seconds -> calibrated seconds (see Calibrator).
  [[nodiscard]] double calibrated(double seconds) const {
    return seconds * kReferenceSeconds / reference_s;
  }
};

// Runs one repetition bracketed by the reference work: `before` is the
// reference time measured just ahead of it (the previous repetition's
// closing measurement) and is updated to this repetition's closing one.
Rep run_rep(Workload& w, Spans& spans, bool traced, Report& report,
            Calibrator& calibrator, double& before) {
  spans.set_enabled(traced);
  reset_peak_rss();
  Rep rep;
  {
    Spans::Scope span{spans, "repetition"};
    auto t0 = Clock::now();
    w.setup(spans);
    rep.setup_s = seconds_since(t0);
    t0 = Clock::now();
    w.job(spans, traced);
    rep.wall_s = seconds_since(t0);
  }
  rep.peak_mb = rep_peak_rss_mb();
  rep.ops = w.ops();
  spans.set_enabled(false);
  const double after = calibrator.measure_s();
  rep.reference_s = (before + after) / 2;
  before = after;
  w.check(report);
  return rep;
}

int run(const Options& o) {
  auto w = make(o);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  print_provenance(o);
  Report report;
  const std::uint64_t run_id =
      o.seed * 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(getpid());
  Spans spans{o.trace, run_id};
  w->prepare(spans);

  Calibrator calibrator;
  double reference = calibrator.measure_s();
  // One warm-up repetition (checked, not measured): the first pass pays
  // page faults and pool growth that every later pass reuses.
  (void)run_rep(*w, spans, false, report, calibrator, reference);

  const int min_reps = o.tiny ? 1 : 3;
  const auto start = Clock::now();
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  if (!o.trace) {
    while (plain.size() < static_cast<std::size_t>(min_reps) ||
           seconds_since(start) < o.seconds) {
      plain.push_back(
          run_rep(*w, spans, false, report, calibrator, reference));
    }
  } else {
    // U T T U U T T U ...: drift hits both modes alike. Stops after a
    // traced repetition so layers() reads a traced job's outputs.
    const std::size_t min_each = o.tiny ? 1 : 2;
    for (std::size_t i = 0;; ++i) {
      const bool t = i % 4 == 1 || i % 4 == 2;
      (t ? traced : plain)
          .push_back(run_rep(*w, spans, t, report, calibrator, reference));
      if (t && plain.size() >= min_each && traced.size() >= min_each &&
          seconds_since(start) >= o.seconds) {
        break;
      }
    }
  }

  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> raw_walls;
  std::vector<double> rates;
  std::vector<double> peaks;
  std::vector<double> references;
  for (const Rep& r : plain) {
    std::printf("rep setup_s %.4f wall_s %.4f reference_s %.4f "
                "peak_rss_mb %.1f\n",
                r.setup_s, r.wall_s, r.reference_s, r.peak_mb);
    setups.push_back(r.calibrated(r.setup_s));
    walls.push_back(r.calibrated(r.wall_s));
    raw_walls.push_back(r.wall_s);
    rates.push_back(r.ops / r.calibrated(r.wall_s));
    peaks.push_back(r.peak_mb);
    references.push_back(r.reference_s);
  }
  report.info("repetitions", static_cast<double>(plain.size()), "count");
  report.info("reference_s", median(references), "s");

  if (!o.trace) {
    const double raw_wall = median(raw_walls);
    report.info("measured_wall_s", raw_wall, "s");
    w->describe(report, raw_wall);
    report.info("miss_ratio",
                report.attempted() == 0
                    ? 0.0
                    : static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                "share");
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("ops_per_s", median(rates), "1/s");
    // Repetitions only add memory the allocator keeps between them, so
    // the smallest per-repetition peak is the one closest to a fresh
    // process running the job once.
    report.metric("peak_rss_mb", *std::min_element(peaks.begin(), peaks.end()),
                  "MB");
  } else {
    std::vector<double> traced_walls;
    for (const Rep& r : traced) {
      traced_walls.push_back(r.calibrated(r.wall_s));
    }
    spans.set_enabled(true);
    Ledger ledger;
    {
      Spans::Scope span{spans, "replay"};
      w->layers(spans, ledger, report);
    }
    const double untraced = median(walls);
    ledger["obs.trace_overhead_pct"] = {
        100.0 * (median(traced_walls) - untraced) / untraced, "%"};
    const std::string path = o.out_dir + "/trace_" + o.workload + "_seed" +
                             std::to_string(o.seed) + ".json";
    report.require(spans.write_chrome_json(path),
                   "cannot write trace file " + path);
    std::printf("trace file: %s\n", path.c_str());
    for (const char* name : kLayerMetrics) {
      const auto it = ledger.find(name);
      report.require(it != ledger.end(),
                     std::string{"per-layer metric missing: "} + name);
      if (it != ledger.end()) {
        report.metric(name, it->second.first, it->second.second);
      }
    }
  }
  report.print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--inject drop_record|wrong_answer] "
                 "[--out-dir DIR] [--source-id ID]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
