// Fabric integration tests: byte-identical merged results across node
// counts, across kill-and-migrate failovers, and against the parallel
// engine at the same shard count; no permutation slot double-probed after
// fail-over; lease refusal diagnostics; config validation; metrics.
#include "fabric/coordinator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos_route.h"
#include "engine/executor.h"
#include "fabric/chaos_proxy.h"
#include "fabric/protocol.h"
#include "fabric/transport.h"
#include "fabric/worker.h"
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

// The byte-stability oracle: the full content of every merged record, in
// merge order. Two runs agree iff these strings are equal.
std::string records_fingerprint(const FabricResult& result) {
  std::ostringstream out;
  for (const auto& rec : result.records) {
    out << rec.when << '|' << rec.response.responder.to_string() << '|'
        << rec.response.probe_dst.to_string() << '|'
        << int(rec.response.kind) << '|' << int(rec.response.icmp_code)
        << '|' << int(rec.response.hop_limit) << '|' << rec.shard << '|'
        << rec.raw_slot << '\n';
  }
  return out.str();
}

std::set<std::string> hop_set(const scan::ResultCollector& collector) {
  std::set<std::string> out;
  for (const auto& hop : collector.last_hops()) {
    out.insert(hop.address.to_string());
  }
  return out;
}

// Acceptance: for a fixed seed the merged output is byte-identical at every
// node count — the node count is pure deployment, invisible in the bytes.
TEST(Fabric, ByteIdenticalAcrossNodeCounts) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_FALSE(reference.failed);
  ASSERT_GT(reference.records.size(), 500u);
  const std::string expect = records_fingerprint(reference);

  for (int nodes : {2, 4}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    auto result = run_fabric_scan(make_config(nodes));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(records_fingerprint(result), expect);
    EXPECT_EQ(result.stats, reference.stats);
    EXPECT_EQ(hop_set(result.collector), hop_set(reference.collector));
    EXPECT_EQ(result.dead_workers, 0);
    EXPECT_EQ(result.reassignments, 0u);
  }
}

// The fabric's shard composition is the engine's thread sub-sharding: a
// fabric run at S shards matches run_parallel_scan at S threads record for
// record (engine worker index == fabric shard index).
TEST(Fabric, MatchesParallelEngineAtSameShardCount) {
  const int kShards = 4;
  auto fabric = run_fabric_scan(make_config(2, kShards));
  ASSERT_TRUE(fabric.ok) << fabric.error;

  engine::EngineConfig ecfg;
  ecfg.world_specs = topo::paper::isp_specs();
  ecfg.vendors = topo::paper::vendor_catalog();
  ecfg.build.window_bits = 8;
  ecfg.build.seed = 42;
  ecfg.module = &shared_module();
  ecfg.scan.source = kScannerAddr;
  ecfg.scan.seed = 7;
  ecfg.scan.probes_per_sec = 1e6;
  ecfg.threads = kShards;
  auto engine = engine::run_parallel_scan(ecfg);
  ASSERT_TRUE(engine.ok) << engine.error;

  // Whole records: kind, icmp_code, hop_limit and raw_slot included.
  ASSERT_EQ(fabric.records.size(), engine.records.size());
  EXPECT_TRUE(fabric.records == engine.records);
  EXPECT_EQ(fabric.stats.sent, engine.stats.sent);
  EXPECT_EQ(fabric.stats.validated, engine.stats.validated);
  EXPECT_EQ(hop_set(fabric.collector), hop_set(engine.collector));
}

// Acceptance (the tentpole): kill a node mid-shard; the survivor resumes
// from the dead worker's last streamed checkpoint and the merged output is
// byte-identical to the failure-free run. Also asserts the no-double-probe
// invariant: no (shard, raw_slot) pair appears twice in the merge.
TEST(Fabric, KillAndMigrateIsByteIdentical) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;
  const std::string expect = records_fingerprint(reference);

  auto cfg = make_config(4);
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{1, 600, /*close_transport=*/true});
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed) << log.str();

  EXPECT_EQ(records_fingerprint(result), expect) << log.str();
  EXPECT_EQ(result.dead_workers, 1);
  EXPECT_GE(result.reassignments, 1u);
  EXPECT_NE(log.str().find("failover"), std::string::npos) << log.str();

  // No permutation slot is probed twice below a handoff cursor: every
  // record's (shard, raw_slot) is unique in the merge (a duplicate would
  // mean a slot was re-probed and its response double-counted).
  std::set<std::pair<int, std::uint64_t>> slots;
  for (const auto& rec : result.records) {
    EXPECT_TRUE(slots.emplace(rec.shard, rec.raw_slot).second)
        << "shard " << rec.shard << " slot " << rec.raw_slot
        << " appears twice";
  }

  // The failover is visible in the shard ledger: some shard has a second
  // epoch and two lease holders, the rest completed in one.
  int failovers = 0;
  for (const auto& shard : result.shards) {
    EXPECT_TRUE(shard.completed);
    if (shard.epochs > 1) {
      ++failovers;
      EXPECT_GE(shard.workers.size(), 2u);
      EXPECT_EQ(shard.workers.front(), 1);  // the killed node held it first
    }
  }
  EXPECT_GE(failovers, 1);
}

// The kill above lands before the stable cursor advances (responses still
// in flight), so the handoff is a full shard rescan. This variant paces
// the scan slowly enough (sim time is free) that checkpoints carry a
// nonzero stable cursor: the survivor must fast-forward past the kept
// records and regenerate only the tail — still byte-identical, and the
// ledger shows the nonzero handoff.
TEST(Fabric, FailoverResumesFromNonzeroCursor) {
  auto slow = [](int nodes) {
    auto cfg = make_config(nodes, 8);
    cfg.scan.probes_per_sec = 1000;  // sim-paced: lifecycles complete
    return cfg;
  };
  auto reference = run_fabric_scan(slow(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = slow(4);
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{1, 3000, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 1);
  // The handoff cursor was past zero: slots below it were never re-probed
  // (the byte-identity above plus the unique-slot scan proves the rest).
  EXPECT_GT(result.resumed_slots, 0u);
  bool nonzero_handoff = false;
  for (const auto& shard : result.shards) {
    if (shard.epochs > 1 && shard.resumed_from_slot > 0) {
      nonzero_handoff = true;
    }
  }
  EXPECT_TRUE(nonzero_handoff);
  std::set<std::pair<int, std::uint64_t>> slots;
  for (const auto& rec : result.records) {
    EXPECT_TRUE(slots.emplace(rec.shard, rec.raw_slot).second);
  }
}

// A silent crash (no transport close) is detected by heartbeat timeout
// instead of a connection drop — and the result is still byte-identical.
TEST(Fabric, SilentCrashDetectedByHeartbeatTimeout) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_config(2);
  cfg.checkpoint_interval_targets = 64;
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 80;
  cfg.kills.push_back(NodeKill{0, 500, /*close_transport=*/false});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 1);
  EXPECT_GT(result.missed_heartbeats, 0u);
}

// The hostile transport is a real socket through the chaos proxy: one
// node's stream is cut mid-frame (the worker rejoins and the stop-and-wait
// channel retransmits its in-flight frames onto the new stream) and
// stalled at random (late acks trigger spurious retransmits, which the
// receiver's expected-seq check discards). The merged bytes never change.
TEST(Fabric, HostileTransportPreservesByteIdentity) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_config(3);
  cfg.transport = TransportKind::kTcp;
  std::unique_ptr<ChaosProxy> proxy;
  route_node_through_proxy(cfg, 1, cut_and_stall_options(), proxy);
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(proxy->cuts(), 1u);
  EXPECT_GT(proxy->stalls(), 0u);
  EXPECT_GE(result.reconnects, 1u);
  EXPECT_GT(result.retransmits, 0u);
}

TEST(Fabric, FabricMetricsCountersExported) {
  auto cfg = make_config(2);
  cfg.kills.push_back(NodeKill{0, 400, /*close_transport=*/true});
  cfg.checkpoint_interval_targets = 64;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;

  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* entry = result.metrics.find(name);
    EXPECT_NE(entry, nullptr) << name << " not exported";
    return entry ? entry->value : 0;
  };
  EXPECT_EQ(counter("fabric_workers_dead_total"),
            static_cast<std::uint64_t>(result.dead_workers));
  EXPECT_EQ(counter("fabric_reassignments_total"), result.reassignments);
  EXPECT_EQ(counter("fabric_resumed_slots_total"), result.resumed_slots);
  EXPECT_EQ(counter("fabric_retransmits_total"), result.retransmits);
  EXPECT_EQ(counter("fabric_frames_rejected_total"),
            result.frames_rejected);
  EXPECT_EQ(counter("fabric_shards_completed_total"),
            static_cast<std::uint64_t>(cfg.shards));
}

TEST(Fabric, RejectsBadConfigs) {
  auto cfg = make_config(0);
  EXPECT_FALSE(run_fabric_scan(cfg).ok);  // nodes < 1

  cfg = make_config(kMaxNodes + 1);
  EXPECT_FALSE(run_fabric_scan(cfg).ok);

  cfg = make_config(2);
  cfg.module = nullptr;
  EXPECT_FALSE(run_fabric_scan(cfg).ok);

  cfg = make_config(2);
  cfg.world_specs.clear();
  EXPECT_FALSE(run_fabric_scan(cfg).ok);

  cfg = make_config(2);
  cfg.shards = 0;
  EXPECT_FALSE(run_fabric_scan(cfg).ok);

  cfg = make_config(2);
  cfg.scan.adaptive_rate = true;  // no stable cursor under adaptive pacing
  auto result = run_fabric_scan(cfg);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("adaptive"), std::string::npos)
      << result.error;

  cfg = make_config(2);
  cfg.heartbeat_timeout_ms = cfg.heartbeat_interval_ms;  // timeout <= beat
  EXPECT_FALSE(run_fabric_scan(cfg).ok);

  cfg = make_config(2);
  cfg.kills.push_back(NodeKill{5, 100, false});  // node out of range
  EXPECT_FALSE(run_fabric_scan(cfg).ok);
}

// ---- manually driven worker: lease refusal diagnostics ---------------------

// A minimal coordinator side: acks every reliable frame and returns the
// first message of the wanted type.
Message await_message(LoopbackFabric& fabric, MsgType want) {
  for (int spin = 0; spin < 400; ++spin) {
    auto recv = fabric.recv_any(25);
    if (recv.status != RecvStatus::kFrame) continue;
    auto decoded = decode_frame(recv.frame);
    if (!decoded.message) continue;
    if (decoded.message->seq != 0) {
      Message ack;
      ack.type = MsgType::kAck;
      ack.ack_seq = decoded.message->seq;
      fabric.send_to(recv.worker, encode_frame(ack));
    }
    if (decoded.message->type == want) return *decoded.message;
  }
  ADD_FAILURE() << "timed out waiting for " << msg_type_name(want);
  return Message{};
}

struct ManualWorker {
  LoopbackFabric fabric{1};
  WorkerConfig cfg;
  std::vector<topo::IspSpec> specs = topo::paper::isp_specs();
  std::vector<topo::VendorProfile> vendors = topo::paper::vendor_catalog();

  ManualWorker() {
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
    cfg.base.targets.push_back(*scan::TargetSpec::parse("2001:db9::/32-40"));
    cfg.fingerprint = 0x1111222233334444ULL;
    cfg.heartbeat_interval_ms = 10;
  }

  // Runs `body` against a live worker, then shuts it down cleanly.
  void drive(const std::function<void()>& body) {
    FabricWorker worker{cfg, fabric.worker_endpoint(0)};
    std::thread thread{[&] { worker.run(); }};
    (void)await_message(fabric, MsgType::kHello);
    body();
    Message bye;
    bye.type = MsgType::kBye;
    fabric.send_to(0, encode_frame(bye));
    thread.join();
    EXPECT_TRUE(worker.error().empty()) << worker.error();
  }
};

// Satellite requirement: a worker offered a lease stamped with a foreign
// scan fingerprint refuses with a "stored ..., computed ..." diagnostic.
TEST(FabricWorkerRefusal, FingerprintMismatchRefusedWithDiagnostic) {
  ManualWorker rig;
  rig.drive([&] {
    Message assign;
    assign.type = MsgType::kAssign;
    assign.seq = 1;
    assign.shard = 3;
    assign.epoch = 2;
    assign.shards_total = 4;
    assign.fingerprint = 0x9999888877776666ULL;  // not this worker's scan
    rig.fabric.send_to(0, encode_frame(assign));

    const Message refuse = await_message(rig.fabric, MsgType::kRefuse);
    EXPECT_EQ(refuse.shard, 3u);
    EXPECT_EQ(refuse.epoch, 2u);
    EXPECT_NE(refuse.diagnostic.find("fingerprint mismatch"),
              std::string::npos)
        << refuse.diagnostic;
    EXPECT_NE(refuse.diagnostic.find("stored 0x9999888877776666"),
              std::string::npos)
        << refuse.diagnostic;
    EXPECT_NE(refuse.diagnostic.find("computed 0x1111222233334444"),
              std::string::npos)
        << refuse.diagnostic;
  });
}

// Satellite requirement: a resume handoff whose cursor has the wrong
// spec-step arity (a torn checkpoint) is refused, never silently mangled.
TEST(FabricWorkerRefusal, TornResumeCursorRefusedWithDiagnostic) {
  ManualWorker rig;
  rig.drive([&] {
    Message assign;
    assign.type = MsgType::kAssign;
    assign.seq = 1;
    assign.shard = 0;
    assign.epoch = 1;
    assign.shards_total = 4;
    assign.fingerprint = rig.cfg.fingerprint;  // right scan...
    assign.has_resume = true;
    assign.cursor.frontier_slot = 512;
    assign.cursor.spec_steps = {7};  // ...but 1 step for 2 target specs
    rig.fabric.send_to(0, encode_frame(assign));

    const Message refuse = await_message(rig.fabric, MsgType::kRefuse);
    EXPECT_NE(refuse.diagnostic.find("torn checkpoint cursor"),
              std::string::npos)
        << refuse.diagnostic;
    EXPECT_NE(refuse.diagnostic.find("stored 1 spec steps"),
              std::string::npos)
        << refuse.diagnostic;
    EXPECT_NE(refuse.diagnostic.find("computed 2 target specs"),
              std::string::npos)
        << refuse.diagnostic;
  });
}

// A fabric whose every node dies leaves the scan cleanly failed — partial
// records, the failure flagged, the shard ledger naming the incomplete
// shards — rather than hanging or crashing.
TEST(Fabric, AllNodesDeadFailsCleanly) {
  auto cfg = make_config(2);
  cfg.checkpoint_interval_targets = 64;
  cfg.kills.push_back(NodeKill{0, 300, /*close_transport=*/true});
  cfg.kills.push_back(NodeKill{1, 300, /*close_transport=*/true});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.dead_workers, 2);
  bool any_incomplete = false;
  for (const auto& shard : result.shards) {
    if (!shard.completed) any_incomplete = true;
  }
  EXPECT_TRUE(any_incomplete);
}

}  // namespace
}  // namespace xmap::fabric
