// Shared scaffolding for the benchmark harness: options, the result report
// (metrics + ground-truth check accounting), timing and memory probes, and
// the workload interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB;
// the process-lifetime peak (getrusage) where the kernel cannot reset it.
void reset_peak_rss();
[[nodiscard]] double rep_peak_rss_mb();
// Current resident set (/proc/self/statm), in MiB.
[[nodiscard]] double current_rss_mb();

// Fixed reference work timed next to every repetition. The machine this
// benchmark runs on is shared: its speed drifts by tens of percent over
// minutes, for every program alike. Times are reported in calibrated
// seconds, measured seconds x (kReferenceSeconds / the reference work's
// time around the same repetition), which cancels that drift while a
// change to the program still moves them. The reference work mixes a
// dependent random walk over 16 MiB (memory latency) with a hash chain
// (integer ALU), the two resources the workloads spend their time on.
inline constexpr double kReferenceSeconds = 0.05;

class Calibrator {
 public:
  Calibrator();
  // Runs the reference work once; returns its wall time in seconds.
  [[nodiscard]] double measure_s();

 private:
  std::vector<std::uint32_t> ring_;  // one random cycle over all slots
  std::uint64_t sink_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;         // self-test scale: small worlds, short runs
  std::string inject;        // "", "drop_record" or "wrong_answer"
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

// What one run reports: the metrics of the final JSON line, extra named
// figures printed for people, and the ground-truth accounting.
class Report {
 public:
  // A metric of the final JSON line (end-to-end or per-layer by mode).
  void metric(const std::string& name, double value, const std::string& unit);
  // A named figure printed with its unit but not part of the JSON line.
  void info(const std::string& name, double value, const std::string& unit);

  // Ground-truth accounting: `attempted` checked operations, of which
  // `failed` disagreed with the world's truth. A failure is also a note.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  // A hard invariant: one attempted operation, failed when !ok.
  void require(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  // Prints the info lines, then the final JSON line.
  void print() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> metrics_;
  std::vector<Row> infos_;
  // Failed check -> (attempted, failed), summed over repetitions.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Per-layer ledger entries collected by a traced run.
using Ledger = std::map<std::string, std::pair<double, std::string>>;

// One workload. The driver (main.cc) calls prepare() once, then repeats
// setup() -> job() -> check() until the measuring time is spent; setup()
// and job() are timed, check() is not. A traced run interleaves traced and
// untraced repetitions and then calls layers() once.
class Workload {
 public:
  virtual ~Workload() = default;

  // One-time untimed preparation (store_query generates its snapshot).
  virtual void prepare(Spans& spans) { (void)spans; }
  // What the user pays before the first probe or query (setup_s).
  virtual void setup(Spans& spans) = 0;
  // The timed job, from the first call into the entry point to the final
  // artifact (wall_s). `traced` asks for the extra outputs a traced run
  // reads (stage profiles); the calls are the same.
  virtual void job(Spans& spans, bool traced) = 0;
  // Ground-truth checks on the last job's outputs.
  virtual void check(Report& report) = 0;
  // Operations the last job performed (probes sent, store calls).
  [[nodiscard]] virtual double ops() const = 0;
  // Workload-specific end-to-end figures printed next to the JSON metrics.
  virtual void describe(Report& report, double wall_s) = 0;
  // Traced run only: per-layer metrics for the ledger. Replays that
  // re-derive an output (the direct-scanner replay) check it too.
  virtual void layers(Spans& spans, Ledger& ledger, Report& report) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_census(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_lossy_fabric(
    const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_audit(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_store_query(
    const Options& options);

}  // namespace perfbench
