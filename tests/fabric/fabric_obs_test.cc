// Fabric observability tests (the tentpole acceptance checks):
//
//   * the deployment trace of a kill-and-migrate run is one connected
//     causal span tree across the coordinator and worker tracks — every
//     parent link resolves, span ids are unique, and the failover story
//     (death verdict -> lease migration -> resumed shard_run) hangs off
//     the dead shard's spans;
//   * scan-content trace and metrics shipped over the protocol are
//     byte-identical to the parallel engine at the same shard count,
//     including across failovers (full-shard replay on resume);
//   * flight recorders dump JSONL on worker death and capture refusals;
//   * the health timeline emits well-formed interval snapshots;
//   * a hostile transport (a chaos-proxied socket cut mid-frame and
//     stalled) never produces orphan or duplicate spans.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_route.h"
#include "engine/executor.h"
#include "fabric/chaos_proxy.h"
#include "fabric/coordinator.h"
#include "fabric/protocol.h"
#include "fabric/transport.h"
#include "fabric/worker.h"
#include "obs/fabric_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/paper_profiles.h"

namespace xmap::fabric {
namespace {

const net::Ipv6Address kScannerAddr = *net::Ipv6Address::parse("2001:500::1");

const scan::IcmpEchoProbe& shared_module() {
  static const scan::IcmpEchoProbe module{64};
  return module;
}

FabricConfig make_config(int nodes, int shards = 4) {
  FabricConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.scan.source = kScannerAddr;
  cfg.scan.seed = 7;
  cfg.scan.probes_per_sec = 1e6;
  cfg.nodes = nodes;
  cfg.shards = shards;
  return cfg;
}

engine::EngineConfig engine_config(int threads) {
  engine::EngineConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.scan.source = kScannerAddr;
  cfg.scan.seed = 7;
  cfg.scan.probes_per_sec = 1e6;
  cfg.threads = threads;
  return cfg;
}

const obs::FabricSpan* find_span(const std::vector<obs::FabricSpan>& spans,
                                 std::uint64_t id) {
  for (const auto& s : spans) {
    if (s.span_id == id) return &s;
  }
  return nullptr;
}

const obs::FabricSpan* find_named(const std::vector<obs::FabricSpan>& spans,
                                  const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string arg_of(const obs::FabricSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return {};
}

// Every span id unique; every nonzero parent link resolves; exactly one
// root. The structural invariant behind "one connected causal tree".
void assert_connected_tree(const std::vector<obs::FabricSpan>& spans) {
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) {
    EXPECT_TRUE(ids.insert(s.span_id).second)
        << "duplicate span id 0x" << std::hex << s.span_id << " (" << s.name
        << ")";
  }
  int roots = 0;
  for (const auto& s : spans) {
    if (s.parent_id == 0) {
      ++roots;
      EXPECT_EQ(s.name, "fabric_run");
    } else {
      EXPECT_TRUE(ids.count(s.parent_id) != 0)
          << "orphan span " << s.name << " (node " << s.node
          << "): parent 0x" << std::hex << s.parent_id << " not in trace";
    }
  }
  EXPECT_EQ(roots, 1);
}

// Walks parent links from `span` to the root, returning the visited names
// (span first). Fails the test on a broken link or a cycle.
std::vector<std::string> path_to_root(
    const std::vector<obs::FabricSpan>& spans, const obs::FabricSpan& span) {
  std::vector<std::string> names;
  const obs::FabricSpan* cur = &span;
  for (int depth = 0; depth < 64; ++depth) {
    names.push_back(cur->name);
    if (cur->parent_id == 0) return names;
    cur = find_span(spans, cur->parent_id);
    if (cur == nullptr) {
      ADD_FAILURE() << "broken parent link under " << span.name;
      return names;
    }
  }
  ADD_FAILURE() << "parent chain too deep (cycle?) from " << span.name;
  return names;
}

// The tentpole acceptance: kill a node mid-shard with tracing on; the span
// tree is connected across coordinator and worker tracks and renders the
// shard's whole life — lease, worker run, death verdict, migration,
// resumed run — as one causal chain.
TEST(FabricObs, SpanTreeConnectedAcrossKillAndMigrate) {
  auto cfg = make_config(4);
  cfg.fabric_trace = true;
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{1, 600, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.failed);
  ASSERT_EQ(result.dead_workers, 1);
  ASSERT_FALSE(result.fabric_spans.empty());
  ASSERT_NE(result.fabric_trace_id, 0u);

  assert_connected_tree(result.fabric_spans);
  for (const auto& s : result.fabric_spans) {
    EXPECT_EQ(s.trace_id, result.fabric_trace_id);
  }

  // Both sides of the wire are present as separate tracks.
  std::set<int> nodes;
  for (const auto& s : result.fabric_spans) nodes.insert(s.node);
  EXPECT_TRUE(nodes.count(obs::kCoordinatorNode) != 0);
  EXPECT_GE(nodes.size(), 3u);  // coordinator + at least two workers

  // The failover story. Find the migration instant; its shard had a dead
  // epoch 0 lease (with the death verdict under it) and a resumed epoch 1
  // shard_run on a surviving worker, causally chained to the re-lease.
  const obs::FabricSpan* migration =
      find_named(result.fabric_spans, "lease_migration");
  ASSERT_NE(migration, nullptr);
  EXPECT_EQ(migration->node, obs::kCoordinatorNode);
  const std::string shard = arg_of(*migration, "shard");

  const obs::FabricSpan* verdict =
      find_named(result.fabric_spans, "death_verdict");
  ASSERT_NE(verdict, nullptr);
  const obs::FabricSpan* dead_lease = find_span(result.fabric_spans,
                                                verdict->parent_id);
  ASSERT_NE(dead_lease, nullptr);
  EXPECT_EQ(dead_lease->name, "lease");
  EXPECT_EQ(arg_of(*dead_lease, "node"), "1");  // the killed node held it

  // The dead epoch's worker-side shard_run sits on the killed node's track
  // and is marked crashed; the resumed epoch's run is on a survivor.
  const obs::FabricSpan* dead_run = nullptr;
  const obs::FabricSpan* resumed_run = nullptr;
  for (const auto& s : result.fabric_spans) {
    if (s.name != "shard_run" || arg_of(s, "shard") != shard) continue;
    if (arg_of(s, "epoch") == "0") dead_run = &s;
    if (arg_of(s, "epoch") == "1") resumed_run = &s;
  }
  ASSERT_NE(dead_run, nullptr);
  ASSERT_NE(resumed_run, nullptr);
  EXPECT_EQ(dead_run->node, 1);
  EXPECT_EQ(arg_of(*dead_run, "outcome"), "crashed");
  EXPECT_NE(resumed_run->node, 1);
  EXPECT_EQ(arg_of(*resumed_run, "outcome"), "completed");
  // A resumed lease announces how it resumed.
  const obs::FabricSpan* resume =
      find_named(result.fabric_spans, "cursor_resume");
  ASSERT_NE(resume, nullptr);
  EXPECT_EQ(resume->parent_id, resumed_run->span_id);

  // The cross-node causal chain: resumed worker run -> coordinator Assign
  // frame -> lease -> shard -> root, alternating tracks.
  const auto chain = path_to_root(result.fabric_spans, *resumed_run);
  ASSERT_GE(chain.size(), 5u);
  EXPECT_EQ(chain[0], "shard_run");
  EXPECT_EQ(chain[1], "frame:assign");
  EXPECT_EQ(chain[2], "lease");
  EXPECT_EQ(chain[3], "shard:" + shard);
  EXPECT_EQ(chain.back(), "fabric_run");

  // Chrome serialization is syntactically sane and names both track kinds.
  std::ostringstream out;
  obs::write_fabric_chrome_trace(out, result.fabric_spans);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("coordinator"), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);
  EXPECT_NE(json.find("lease_migration"), std::string::npos);
}

// Acceptance: the scan-content trace and metrics that rode the protocol
// are byte-identical to the engine's at the same shard count — with a
// failover in the middle (the resumed lease replays its shard in full).
TEST(FabricObs, ScanTraceAndMetricsByteIdenticalToEngine) {
  const int kShards = 4;
  obs::ObsConfig obs_cfg;
  obs_cfg.trace_level = obs::TraceLevel::kScan;
  obs_cfg.metrics = true;

  auto ecfg = engine_config(kShards);
  ecfg.obs = obs_cfg;
  auto engine = engine::run_parallel_scan(ecfg);
  ASSERT_TRUE(engine.ok) << engine.error;
  ASSERT_FALSE(engine.trace.empty());

  auto fcfg = make_config(3, kShards);
  fcfg.obs = obs_cfg;
  fcfg.checkpoint_interval_targets = 64;
  fcfg.kills.push_back(NodeKill{1, 600, /*close_transport=*/true});
  auto fabric = run_fabric_scan(fcfg);
  ASSERT_TRUE(fabric.ok) << fabric.error;
  ASSERT_FALSE(fabric.failed);
  ASSERT_EQ(fabric.dead_workers, 1);  // the failover actually happened

  // Byte-for-byte: the serialized trace and the deterministic Prometheus
  // export are what --trace-file / --metrics-file write.
  std::ostringstream fabric_trace;
  std::ostringstream engine_trace;
  obs::write_trace_jsonl(fabric_trace, fabric.trace);
  obs::write_trace_jsonl(engine_trace, engine.trace);
  EXPECT_EQ(fabric_trace.str(), engine_trace.str());
  EXPECT_EQ(obs::prometheus_text(fabric.scan_metrics),
            obs::prometheus_text(engine.metrics_snapshot));
  // The wall-clock fabric_* series stay quarantined: absent from the
  // deterministic export, present in the full one.
  EXPECT_EQ(obs::prometheus_text(fabric.metrics).find("fabric_"),
            std::string::npos);
  EXPECT_NE(obs::prometheus_text(fabric.metrics, true).find(
                "xmap_fabric_reassignments_total"),
            std::string::npos);
}

// Fabric metrics carry per-node labels next to the unlabeled totals.
TEST(FabricObs, PerNodeMetricLabels) {
  auto cfg = make_config(3);
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{1, 600, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.dead_workers, 1);

  const auto* total = result.metrics.find("fabric_workers_dead_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 1u);
  const auto* labeled = result.metrics.find("fabric_workers_dead_total",
                                            {{"node", "worker-1"}});
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->value, 1u);
  // Shards completed per node sum to the total.
  const auto* done = result.metrics.find("fabric_shards_completed_total");
  ASSERT_NE(done, nullptr);
  std::uint64_t per_node_sum = 0;
  for (int w = 0; w < cfg.nodes; ++w) {
    const auto* e = result.metrics.find(
        "fabric_shards_completed_total",
        {{"node", "worker-" + std::to_string(w)}});
    if (e != nullptr) per_node_sum += e->value;
  }
  EXPECT_EQ(per_node_sum, done->value);
}

// Worker death dumps every node's flight-recorder ring to JSONL.
TEST(FabricObs, FlightRecorderDumpsOnWorkerDeath) {
  const std::string prefix =
      testing::TempDir() + "fabric_obs_flightrec_death";
  auto cfg = make_config(3);
  cfg.checkpoint_interval_targets = 64;
  cfg.flight_recorder_events = 128;
  cfg.flight_recorder_prefix = prefix;
  cfg.kills.push_back(NodeKill{1, 600, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.dead_workers, 1);

  // One dump per worker plus the coordinator's.
  ASSERT_EQ(result.recorder_dumps.size(), 4u);
  for (const auto& path : result.recorder_dumps) {
    std::ifstream in{path};
    ASSERT_TRUE(in.good()) << path;
    std::string meta;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, meta))) << path;
    EXPECT_NE(meta.find("\"node\""), std::string::npos) << meta;
    EXPECT_NE(meta.find("\"recorded\""), std::string::npos) << meta;
    std::remove(path.c_str());
  }
  // The dead node's dump exists and records protocol traffic.
  bool dead_node_dumped = false;
  for (const auto& path : result.recorder_dumps) {
    if (path.find(".node1.jsonl") != std::string::npos) {
      dead_node_dumped = true;
    }
  }
  EXPECT_TRUE(dead_node_dumped);
}

// No failure, no dump: a clean run writes nothing.
TEST(FabricObs, FlightRecorderSilentOnCleanRun) {
  const std::string prefix =
      testing::TempDir() + "fabric_obs_flightrec_clean";
  auto cfg = make_config(2);
  cfg.flight_recorder_events = 64;
  cfg.flight_recorder_prefix = prefix;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.failed);
  EXPECT_TRUE(result.recorder_dumps.empty());
  std::ifstream probe{prefix + ".coordinator.jsonl"};
  EXPECT_FALSE(probe.good());
}

// A lease refusal lands in the worker's flight recorder with the full
// diagnostic, so a post-mortem has the "stored ..., computed ..." story.
TEST(FabricObs, FlightRecorderCapturesRefusal) {
  obs::FlightRecorder recorder{64};
  std::vector<topo::IspSpec> specs = topo::paper::isp_specs();
  std::vector<topo::VendorProfile> vendors = topo::paper::vendor_catalog();
  LoopbackFabric fabric{1};
  WorkerConfig cfg;
  cfg.id = 0;
  cfg.world_specs = &specs;
  cfg.vendors = &vendors;
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.base.source = kScannerAddr;
  cfg.base.seed = 7;
  cfg.base.probes_per_sec = 1e6;
  cfg.base.targets.push_back(*scan::TargetSpec::parse("2001:db8::/32-40"));
  cfg.fingerprint = 0x1111222233334444ULL;
  cfg.heartbeat_interval_ms = 10;
  cfg.recorder = &recorder;

  FabricWorker worker{cfg, fabric.worker_endpoint(0)};
  std::thread thread{[&] { worker.run(); }};
  // Wait for Hello, send a foreign-fingerprint Assign, await the Refuse.
  bool refused = false;
  bool assigned = false;
  for (int spin = 0; spin < 400 && !refused; ++spin) {
    auto recv = fabric.recv_any(25);
    if (recv.status != RecvStatus::kFrame) continue;
    auto decoded = decode_frame(recv.frame);
    if (!decoded.message) continue;
    if (decoded.message->seq != 0) {
      Message ack;
      ack.type = MsgType::kAck;
      ack.ack_seq = decoded.message->seq;
      fabric.send_to(0, encode_frame(ack));
    }
    if (decoded.message->type == MsgType::kHello && !assigned) {
      assigned = true;
      Message assign;
      assign.type = MsgType::kAssign;
      assign.seq = 1;
      assign.shard = 2;
      assign.epoch = 0;
      assign.shards_total = 4;
      assign.fingerprint = 0x9999888877776666ULL;
      fabric.send_to(0, encode_frame(assign));
    }
    if (decoded.message->type == MsgType::kRefuse) refused = true;
  }
  Message bye;
  bye.type = MsgType::kBye;
  fabric.send_to(0, encode_frame(bye));
  thread.join();
  ASSERT_TRUE(refused);

  std::ostringstream dump;
  recorder.dump_jsonl(dump, "worker-0");
  const std::string text = dump.str();
  EXPECT_NE(text.find("\"refusal\""), std::string::npos) << text;
  EXPECT_NE(text.find("fingerprint mismatch"), std::string::npos) << text;
}

// Hostile transport — a chaos-proxied socket cut mid-frame and stalled at
// random — forces rejoins and retransmissions (some spurious, deduplicated
// by the receiver), but the span tree stays connected and duplicate-free:
// the trace context is bound to the frame payload, so replays never mint
// new spans and a torn stream never orphans children.
TEST(FabricObs, NoOrphanOrDuplicateSpansUnderHostileTransport) {
  auto cfg = make_config(3);
  cfg.fabric_trace = true;
  cfg.obs.trace_level = obs::TraceLevel::kScan;
  cfg.obs.metrics = true;
  cfg.transport = TransportKind::kTcp;
  std::unique_ptr<ChaosProxy> proxy;
  route_node_through_proxy(cfg, 1, cut_and_stall_options(), proxy);
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.failed);
  EXPECT_EQ(proxy->cuts(), 1u);
  EXPECT_GT(result.retransmits, 0u);  // the chaos actually bit

  assert_connected_tree(result.fabric_spans);
  // Retransmit instants chain to the frame span they retried.
  int retransmit_spans = 0;
  for (const auto& s : result.fabric_spans) {
    if (s.name != "retransmit") continue;
    ++retransmit_spans;
    const obs::FabricSpan* frame = find_span(result.fabric_spans,
                                             s.parent_id);
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->name.rfind("frame:", 0), 0u) << frame->name;
  }
  EXPECT_GT(retransmit_spans, 0);

  // And the scan content still matches the engine byte for byte.
  auto ecfg = engine_config(4);
  ecfg.obs = cfg.obs;
  auto engine = engine::run_parallel_scan(ecfg);
  ASSERT_TRUE(engine.ok) << engine.error;
  std::ostringstream fabric_trace;
  std::ostringstream engine_trace;
  obs::write_trace_jsonl(fabric_trace, result.trace);
  obs::write_trace_jsonl(engine_trace, engine.trace);
  EXPECT_EQ(fabric_trace.str(), engine_trace.str());
}

// The health timeline emits interval snapshots and a terminal one whose
// shard counts add up.
TEST(FabricObs, HealthTimelineEmitsSnapshots) {
  auto cfg = make_config(2);
  std::ostringstream timeline;
  cfg.timeline = &timeline;
  cfg.timeline_interval_ms = 1;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;

  std::istringstream lines{timeline.str()};
  std::string line;
  std::string last;
  int count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"workers_live\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"shards_done\":"), std::string::npos) << line;
    last = line;
    ++count;
  }
  ASSERT_GE(count, 1);
  // The forced final snapshot shows the run's terminal state.
  EXPECT_NE(last.find("\"shards_done\":4"), std::string::npos) << last;
  EXPECT_NE(last.find("\"shards_pending\":0"), std::string::npos) << last;
}

// Observability off: none of the new result fields populate and the
// failover stats bookkeeping stays on the fast-forward path.
TEST(FabricObs, ObsOffLeavesFabricResultLean) {
  auto cfg = make_config(2);
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{0, 500, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.trace.empty());
  EXPECT_TRUE(result.scan_metrics.empty());
  EXPECT_TRUE(result.fabric_spans.empty());
  EXPECT_TRUE(result.recorder_dumps.empty());
  EXPECT_TRUE(result.stage_profile.empty());
}

}  // namespace
}  // namespace xmap::fabric
