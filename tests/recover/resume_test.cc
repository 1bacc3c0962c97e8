// Integration tests for checkpoint/resume and graceful shutdown: the hard
// guarantee is that an interrupted-then-resumed scan produces a record
// stream byte-identical to an uninterrupted run, at every thread count,
// pristine or fault-injected, whether the cut came from a shutdown drain
// or a mid-flight periodic snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/state.h"
#include "topology/paper_profiles.h"
#include "xmap/cyclic_group.h"
#include "xmap/scanner.h"

namespace xmap::engine {
namespace {

const net::Ipv6Address kScannerAddr = *net::Ipv6Address::parse("2001:500::1");

const scan::IcmpEchoProbe& shared_module() {
  static const scan::IcmpEchoProbe module{64};
  return module;
}

EngineConfig make_config(int threads, bool faults = false) {
  EngineConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.scan.source = kScannerAddr;
  cfg.scan.seed = 7;
  cfg.scan.probes_per_sec = 1e6;
  cfg.threads = threads;
  if (faults) {
    cfg.faults.access.loss = 0.15;
    cfg.faults.access.duplicate = 0.05;
    cfg.faults.access.jitter_ms = 1.0;
    cfg.faults.silent.fraction = 0.05;
    cfg.scan.retries = 1;
  }
  return cfg;
}

// The response stream without worker ids (worker assignment is a sharding
// artifact; the byte-identity guarantee is over the serialized output,
// which carries only response content and sim time).
std::string stream_fingerprint(const EngineResult& result) {
  std::ostringstream out;
  for (const auto& r : result.records) {
    out << r.response.responder.to_string() << '|'
        << r.response.probe_dst.to_string() << '|'
        << static_cast<int>(r.response.kind) << '|' << r.when << '\n';
  }
  return out.str();
}

std::string trace_jsonl(const std::vector<obs::TraceEvent>& trace) {
  std::ostringstream out;
  obs::write_trace_jsonl(out, trace);
  return out.str();
}

// Interrupt the scan at `slot`, then resume from the quiescent shutdown
// checkpoint; returns the resumed (combined) result.
EngineResult interrupt_and_resume(const EngineConfig& base,
                                  std::uint64_t slot) {
  EngineConfig cut = base;
  cut.shutdown_at_raw_slot = slot;
  auto interrupted = run_parallel_scan(cut);
  EXPECT_TRUE(interrupted.ok) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.cursors.size(),
            static_cast<std::size_t>(base.threads));

  const recover::CheckpointState state =
      shutdown_checkpoint(interrupted, /*signal=*/0);
  // Round-trip through the text format so the test also covers what a real
  // resume reads off disk.
  auto parsed =
      recover::parse_checkpoint(recover::serialize_checkpoint(state));
  EXPECT_TRUE(parsed.state.has_value()) << parsed.error;

  EngineConfig resume = base;
  resume.resume = &*parsed.state;
  auto result = run_parallel_scan(resume);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.resumed);
  EXPECT_FALSE(result.interrupted);
  return result;
}

TEST(FastForward, MatchesStepByStepIteration) {
  const scan::CyclicGroup group{net::Uint128{1000}, 99};
  for (const std::uint64_t skip : {0ull, 1ull, 7ull, 500ull, 999ull}) {
    SCOPED_TRACE("skip=" + std::to_string(skip));
    auto stepped = group.iterate();
    for (std::uint64_t i = 0; i < skip; ++i) (void)stepped.next();
    auto jumped = group.iterate();
    jumped.fast_forward(stepped.raw_visited());
    EXPECT_EQ(jumped.raw_visited(), stepped.raw_visited());
    EXPECT_EQ(jumped.raw_remaining(), stepped.raw_remaining());
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(jumped.next(), stepped.next());
    }
  }
}

TEST(FastForward, ClampsAtEndOfWalk) {
  const scan::CyclicGroup group{net::Uint128{50}, 3};
  auto it = group.iterate();
  it.fast_forward(net::Uint128{1000000});
  EXPECT_TRUE(it.raw_remaining().is_zero());
  EXPECT_EQ(it.next(), std::nullopt);
}

// Acceptance: interrupt at a spread of permutation slots, resume, and
// compare against the uninterrupted golden — at 1, 2, 4 and 8 workers.
TEST(Resume, ByteIdenticalAfterInterruptAtAnySlot) {
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const EngineConfig base = make_config(threads);
    auto golden = run_parallel_scan(base);
    ASSERT_TRUE(golden.ok) << golden.error;
    const std::string expect = stream_fingerprint(golden);
    ASSERT_FALSE(expect.empty());

    // A pseudo-random spread of cut points across the permutation,
    // including the degenerate near-zero cut.
    for (const std::uint64_t slot : {2ull, 97ull, 731ull, 1900ull}) {
      SCOPED_TRACE("slot=" + std::to_string(slot));
      auto resumed = interrupt_and_resume(base, slot);
      EXPECT_EQ(stream_fingerprint(resumed), expect);
      EXPECT_EQ(resumed.stats, golden.stats);
    }
  }
}

// Acceptance: the same property holds on a fault-injected world — loss,
// duplication, jitter, silent devices and retries all crossing the cut.
TEST(Resume, ByteIdenticalUnderFaultInjection) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const EngineConfig base = make_config(threads, /*faults=*/true);
    auto golden = run_parallel_scan(base);
    ASSERT_TRUE(golden.ok) << golden.error;
    EXPECT_GT(golden.stats.retransmits, 0u);
    const std::string expect = stream_fingerprint(golden);

    for (const std::uint64_t slot : {151ull, 1207ull}) {
      SCOPED_TRACE("slot=" + std::to_string(slot));
      auto resumed = interrupt_and_resume(base, slot);
      EXPECT_EQ(stream_fingerprint(resumed), expect);
      EXPECT_EQ(resumed.stats, golden.stats);
    }
  }
}

// Chained interruption: interrupt, resume, interrupt the resumed run
// again, resume again — cursors and carried records compose.
TEST(Resume, SurvivesChainedInterrupts) {
  const EngineConfig base = make_config(2);
  auto golden = run_parallel_scan(base);
  ASSERT_TRUE(golden.ok) << golden.error;

  EngineConfig first_cut = base;
  first_cut.shutdown_at_raw_slot = 100;
  auto first = run_parallel_scan(first_cut);
  ASSERT_TRUE(first.ok && first.interrupted);

  const recover::CheckpointState state1 =
      shutdown_checkpoint(first, /*signal=*/0);

  EngineConfig second_cut = base;
  second_cut.resume = &state1;
  second_cut.shutdown_at_raw_slot = 900;
  auto second = run_parallel_scan(second_cut);
  ASSERT_TRUE(second.ok && second.interrupted && second.resumed);

  const recover::CheckpointState state2 =
      shutdown_checkpoint(second, /*signal=*/0);

  EngineConfig final_leg = base;
  final_leg.resume = &state2;
  auto result = run_parallel_scan(final_leg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(stream_fingerprint(result), stream_fingerprint(golden));
  EXPECT_EQ(result.stats, golden.stats);
}

// The production shutdown checkpoint carries the obs sections: a scan with
// packet-level tracing and metrics, interrupted, written and read back as
// text, and resumed, ends with the trace and Prometheus export of an
// uninterrupted run — records, trace events and metric series all merge.
TEST(Resume, QuiescentCheckpointCarriesTraceAndMetrics) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineConfig base = make_config(threads, /*faults=*/true);
    base.obs.trace_level = obs::TraceLevel::kPacket;
    base.obs.metrics = true;
    auto golden = run_parallel_scan(base);
    ASSERT_TRUE(golden.ok) << golden.error;
    ASSERT_FALSE(golden.trace.empty());

    EngineConfig cut = base;
    cut.shutdown_at_raw_slot = 500;
    auto interrupted = run_parallel_scan(cut);
    ASSERT_TRUE(interrupted.ok && interrupted.interrupted);
    const recover::CheckpointState state =
        shutdown_checkpoint(interrupted, SIGTERM);
    EXPECT_TRUE(state.quiescent);
    EXPECT_EQ(state.signal, SIGTERM);
    ASSERT_TRUE(state.has_obs);
    ASSERT_FALSE(state.trace.empty());
    EXPECT_LT(state.trace.size(), golden.trace.size());

    auto parsed =
        recover::parse_checkpoint(recover::serialize_checkpoint(state));
    ASSERT_TRUE(parsed.state.has_value()) << parsed.error;
    EngineConfig resume = base;
    resume.resume = &*parsed.state;
    auto result = run_parallel_scan(resume);
    ASSERT_TRUE(result.ok) << result.error;

    EXPECT_EQ(stream_fingerprint(result), stream_fingerprint(golden));
    EXPECT_EQ(trace_jsonl(result.trace), trace_jsonl(golden.trace));
    EXPECT_EQ(obs::prometheus_text(result.metrics_snapshot),
              obs::prometheus_text(golden.metrics_snapshot));
  }
}

// Mid-flight (non-quiescent) periodic checkpoints: resuming from the last
// snapshot a full run produced regenerates the tail exactly. Stats may
// double-count the re-scanned window (documented); records must not.
TEST(Resume, PeriodicCheckpointRegeneratesTailExactly) {
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineConfig base = make_config(threads);
    auto golden = run_parallel_scan(base);
    ASSERT_TRUE(golden.ok) << golden.error;

    std::optional<recover::CheckpointState> snapshot;
    int snapshots = 0;
    EngineConfig periodic = base;
    periodic.checkpoint_interval_targets = 64;
    periodic.checkpoint_sink = [&](recover::CheckpointState& state) {
      snapshot = state;
      ++snapshots;
    };
    auto full = run_parallel_scan(periodic);
    ASSERT_TRUE(full.ok) << full.error;
    // The periodic hook must not perturb the scan itself.
    EXPECT_EQ(stream_fingerprint(full), stream_fingerprint(golden));
    ASSERT_TRUE(snapshot.has_value()) << "no periodic snapshot captured";
    EXPECT_GT(snapshots, 0);
    EXPECT_FALSE(snapshot->quiescent);
    EXPECT_FALSE(snapshot->has_obs);
    ASSERT_EQ(snapshot->cursors.size(),
              static_cast<std::size_t>(threads));

    // Every carried record must sit strictly below its worker's cursor.
    for (const auto& r : snapshot->records) {
      ASSERT_LT(static_cast<std::size_t>(r.shard), snapshot->cursors.size());
      EXPECT_LT(r.raw_slot, snapshot->cursors[r.shard].frontier_slot);
    }

    auto round =
        recover::parse_checkpoint(recover::serialize_checkpoint(*snapshot));
    ASSERT_TRUE(round.state.has_value()) << round.error;
    EngineConfig resume = base;
    resume.resume = &*round.state;
    auto result = run_parallel_scan(resume);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(stream_fingerprint(result), stream_fingerprint(golden));
  }
}

// At 100 pps the scanner's provenance window (two generations of ~700
// slots at one worker, ~1.2k at two) rotates several times over the
// 3.8k-slot scan. A periodic snapshot filters records by raw_slot, so a
// record whose provenance had been dropped would fall out of the snapshot
// and never come back: interrupt the scan, resume from its last periodic
// snapshot, and the records — raw_slot and shard included — must equal
// the uninterrupted run's, with no provenance miss anywhere.
TEST(Resume, PeriodicCheckpointResumeIsExactWhileProvenanceRotates) {
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineConfig base = make_config(threads);
    base.scan.probes_per_sec = 100;
    auto golden = run_parallel_scan(base);
    ASSERT_TRUE(golden.ok) << golden.error;
    ASSERT_GT(golden.records.size(), 100u);
    EXPECT_EQ(golden.stats.provenance_misses, 0u);

    std::optional<recover::CheckpointState> snapshot;
    EngineConfig cut = base;
    cut.checkpoint_interval_targets = 64;
    cut.shutdown_at_raw_slot = 2600;
    cut.checkpoint_sink = [&](recover::CheckpointState& state) {
      snapshot = state;
    };
    auto interrupted = run_parallel_scan(cut);
    ASSERT_TRUE(interrupted.ok) << interrupted.error;
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.stats.provenance_misses, 0u);
    ASSERT_TRUE(snapshot.has_value()) << "no periodic snapshot captured";
    EXPECT_FALSE(snapshot->quiescent);
    EXPECT_GT(snapshot->records.size(), 0u);
    for (const auto& c : snapshot->cursors) EXPECT_GT(c.frontier_slot, 1500u);

    auto round =
        recover::parse_checkpoint(recover::serialize_checkpoint(*snapshot));
    ASSERT_TRUE(round.state.has_value()) << round.error;
    EngineConfig resume = base;
    resume.resume = &*round.state;
    auto result = run_parallel_scan(resume);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.stats.provenance_misses, 0u);
    EXPECT_EQ(result.records, golden.records);
  }
}

// The cooperative shutdown flag (the signal handler's atomic) stops the
// scan the same way the deterministic slot hook does: quiescent, with
// cursors, and the monitor/telemetry tagged as interrupted.
TEST(Shutdown, FlagStopsScanQuiescentlyAndTagsTelemetry) {
  std::atomic<int> flag{SIGTERM};  // raised before the scan even starts
  std::ostringstream status;
  EngineConfig cfg = make_config(2);
  cfg.shutdown_flag = &flag;
  cfg.status_out = &status;
  cfg.checkpoint_file = "scan.state";
  auto result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.stats.sent, 0u);  // stopped before the first draw
  EXPECT_EQ(result.cursors.size(), 2u);

  const std::string text = status.str();
  EXPECT_NE(text.find("(interrupted)"), std::string::npos) << text;
  EXPECT_NE(text.find("\"interrupted\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"checkpoint_file\":\"scan.state\""),
            std::string::npos)
      << text;

  // And a clean run is tagged as done / not interrupted.
  std::ostringstream clean_status;
  EngineConfig clean = make_config(2);
  clean.status_out = &clean_status;
  auto clean_result = run_parallel_scan(clean);
  ASSERT_TRUE(clean_result.ok);
  EXPECT_FALSE(clean_result.interrupted);
  EXPECT_NE(clean_status.str().find("(done)"), std::string::npos);
  EXPECT_NE(clean_status.str().find("\"interrupted\":false"),
            std::string::npos);
}

// Satellite acceptance: --max-probes semantics are a global target budget
// cut at a fixed permutation slot — the capped output is byte-identical at
// every thread count, with and without retries.
TEST(MaxProbes, ThreadCountInvariant) {
  for (const int retries : {0, 2}) {
    SCOPED_TRACE("retries=" + std::to_string(retries));
    EngineConfig base = make_config(1);
    base.scan.max_probes = 500;
    base.scan.retries = retries;
    auto reference = run_parallel_scan(base);
    ASSERT_TRUE(reference.ok) << reference.error;
    EXPECT_EQ(reference.stats.targets_generated, 500u);
    EXPECT_EQ(reference.stats.sent,
              500u * static_cast<std::uint64_t>(1 + retries));
    const std::string expect = stream_fingerprint(reference);

    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EngineConfig cfg = make_config(threads);
      cfg.scan.max_probes = 500;
      cfg.scan.retries = retries;
      auto result = run_parallel_scan(cfg);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.stats.targets_generated, 500u);
      EXPECT_EQ(result.stats.sent,
                500u * static_cast<std::uint64_t>(1 + retries));
      EXPECT_EQ(stream_fingerprint(result), expect);
    }
  }
}

// A max-probes cut and an interrupt/resume compose: the capped scan can be
// interrupted and resumed to the same capped output.
TEST(MaxProbes, ComposesWithResume) {
  EngineConfig base = make_config(3);
  base.scan.max_probes = 800;
  auto golden = run_parallel_scan(base);
  ASSERT_TRUE(golden.ok) << golden.error;
  EXPECT_EQ(golden.stats.targets_generated, 800u);

  auto resumed = interrupt_and_resume(base, 400);
  EXPECT_EQ(stream_fingerprint(resumed), stream_fingerprint(golden));
  EXPECT_EQ(resumed.stats, golden.stats);
}

}  // namespace
}  // namespace xmap::engine
