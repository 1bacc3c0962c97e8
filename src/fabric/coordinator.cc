#include "fabric/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "fabric/obs_tap.h"
#include "fabric/tcp_transport.h"
#include "fabric/transport.h"
#include "fabric/worker.h"
#include "netbase/random.h"
#include "netbase/uint128.h"
#include "xmap/replica.h"

namespace xmap::fabric {
namespace {

using Clock = ReliableLink::Clock;

FabricResult fail(std::string message) {
  FabricResult result;
  result.ok = false;
  result.error = std::move(message);
  return result;
}

enum class WorkerPhase { kJoining, kIdle, kBusy, kDead };
enum class ShardPhase { kPending, kAssigned, kDone, kFailed };

struct WorkerState {
  WorkerPhase phase = WorkerPhase::kJoining;
  std::unique_ptr<ReliableLink> link;
  int shard = -1;  // the lease this worker holds (kBusy only)
  Clock::time_point last_seen;
  std::uint64_t misses_counted = 0;
  bool saw_join = false;  // first kRejoin consumed; later ones reconnect
};

struct ShardState {
  ShardPhase phase = ShardPhase::kPending;
  std::uint32_t epoch = 0;  // assignment generation, fences stale frames
  int worker = -1;
  // The last streamed checkpoint: the failover handoff point. cursor_stats
  // is the live stats at that checkpoint, zeroed once committed so a
  // double failover cannot double-count.
  bool has_cursor = false;
  scan::ScanCursor cursor;
  scan::ScanStats cursor_stats;
  scan::ScanStats stats;                   // committed contributions
  std::vector<scan::ScanRecord> buffer;    // current epoch, uncommitted
  std::vector<scan::ScanRecord> accepted;  // committed (survives failover)
  ShardOutcome outcome;

  // Deployment spans: the whole-shard span and the current epoch's lease.
  std::uint64_t span = 0;
  std::uint64_t lease_span = 0;

  // Scan-content observability shipped by the current epoch (buffered
  // until its ShardDone commits it; a failover discards it — the resumed
  // lease replays the shard and re-ships the full-shard trace/metrics).
  std::vector<obs::TraceEvent> pending_trace;
  obs::MetricsSnapshot pending_metrics;
  std::vector<obs::TraceEvent> trace;        // committed
  obs::MetricsSnapshot scan_metrics;         // committed
};

}  // namespace

FabricResult run_fabric_scan(const FabricConfig& config) {
  if (config.module == nullptr) return fail("fabric: no probe module");
  if (config.nodes < 1 || config.nodes > kMaxNodes) {
    return fail("fabric: nodes must be in 1.." + std::to_string(kMaxNodes));
  }
  if (config.shards < 1 || config.shards > 1024) {
    return fail("fabric: shards must be in 1..1024");
  }
  if (config.scan.shards < 1 || config.scan.shard < 0 ||
      config.scan.shard >= config.scan.shards) {
    return fail("fabric: invalid machine shard configuration");
  }
  if (config.world_specs.empty()) return fail("fabric: empty world spec");
  if (config.scan.adaptive_rate) {
    return fail(
        "fabric: adaptive rate is not supported — without an analytic send "
        "schedule there is no stable cursor to hand over on failover");
  }
  if (config.heartbeat_interval_ms < 1 ||
      config.heartbeat_timeout_ms <= config.heartbeat_interval_ms) {
    return fail("fabric: heartbeat timeout must exceed the interval");
  }
  for (const auto& kill : config.kills) {
    if (kill.node < 0 || kill.node >= config.nodes) {
      return fail("fabric: kill plan names node " +
                  std::to_string(kill.node) + " of " +
                  std::to_string(config.nodes));
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // One budget cut, computed here and shipped in every lease: all workers
  // truncate at the same permutation slot regardless of node count (the
  // engine's --threads argument, distributed).
  scan::ScanConfig base = scan::prepare_bulk_scan(
      config.scan, config.world_specs, config.build.window_bits);
  // The fabric owns interruption semantics (kills, failover); engine-style
  // shutdown plumbing does not cross the wire.
  base.shutdown_flag = nullptr;
  base.shutdown_at_raw_slot = scan::kNoBudgetCut;
  const std::uint64_t fp_hash = recover::fingerprint_hash(config.fingerprint);

  // Deployment tracing: one tracer shared by the coordinator and every
  // worker thread (FabricTracer is thread-safe). The trace id is derived
  // from the scan identity so correlated artifacts carry the same id.
  const std::uint64_t trace_id = net::hash_combine64(fp_hash, base.seed);
  std::unique_ptr<obs::FabricTracer> tracer_owned;
  obs::FabricTracer* tracer = nullptr;
  std::uint64_t root_span = 0;
  if (config.fabric_trace) {
    tracer_owned = std::make_unique<obs::FabricTracer>(trace_id);
    tracer = tracer_owned.get();
    root_span = tracer->begin(obs::kCoordinatorNode, "fabric_run", 0,
                              {{"shards", std::to_string(config.shards)},
                               {"nodes", std::to_string(config.nodes)}});
  }

  // Flight recorders: one ring per worker plus the coordinator's own.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders;
  obs::FlightRecorder* coord_recorder = nullptr;
  if (config.flight_recorder_events > 0) {
    recorders.reserve(static_cast<std::size_t>(config.nodes) + 1);
    for (int w = 0; w <= config.nodes; ++w) {
      recorders.push_back(
          std::make_unique<obs::FlightRecorder>(config.flight_recorder_events));
    }
    coord_recorder = recorders.back().get();
  }

  // Coordinator-side stage profile (lease / decode / merge); null unless
  // --profile so the timers cost a pointer test each.
  obs::StageProfile coord_profile;
  obs::StageProfile* const profile =
      config.obs.profile ? &coord_profile : nullptr;

  // The transport plane. The loop below depends only on FabricPlane; the
  // loopback pointer stays around for worker_endpoint(), the tcp pointer
  // for bound_address().
  std::unique_ptr<FabricPlane> plane_owned;
  LoopbackFabric* loopback = nullptr;
  TcpFabric* tcp = nullptr;
  if (config.transport == TransportKind::kTcp) {
    std::string transport_error;
    auto tcp_plane =
        TcpFabric::create(config.nodes, config.listen_address,
                          transport_error);
    if (tcp_plane == nullptr) return fail(std::move(transport_error));
    tcp = tcp_plane.get();
    plane_owned = std::move(tcp_plane);
  } else {
    auto lb = std::make_unique<LoopbackFabric>(config.nodes);
    loopback = lb.get();
    plane_owned = std::move(lb);
  }
  FabricPlane& fabric = *plane_owned;

  // TCP worker endpoints, owned here (the loopback owns its own).
  std::vector<std::unique_ptr<Transport>> tcp_endpoints(
      static_cast<std::size_t>(config.nodes));

  std::vector<std::unique_ptr<FabricWorker>> workers;
  workers.reserve(static_cast<std::size_t>(config.nodes));
  for (int w = 0; w < config.nodes; ++w) {
    WorkerConfig wcfg;
    wcfg.id = w;
    wcfg.world_specs = &config.world_specs;
    wcfg.vendors = &config.vendors;
    wcfg.build = config.build;
    wcfg.vantage = config.vantage;
    wcfg.module = config.module;
    wcfg.base = base;
    wcfg.faults = config.faults;
    wcfg.fingerprint = fp_hash;
    wcfg.checkpoint_interval_targets = config.checkpoint_interval_targets;
    wcfg.heartbeat_interval_ms = config.heartbeat_interval_ms;
    wcfg.record_batch = config.record_batch;
    wcfg.backoff = config.backoff;
    wcfg.obs = config.obs;
    wcfg.tracer = tracer;
    wcfg.trace_root = root_span;
    wcfg.recorder =
        recorders.empty() ? nullptr : recorders[static_cast<std::size_t>(w)]
                                          .get();
    for (const auto& kill : config.kills) {
      if (kill.node == w) wcfg.kill = kill;
    }
    Transport* endpoint = nullptr;
    if (tcp != nullptr) {
      TcpWorkerOptions topt;
      topt.connect_address = config.connect_address.empty()
                                 ? tcp->bound_address()
                                 : config.connect_address;
      topt.worker = w;
      topt.fingerprint = fp_hash;
      topt.connect_timeout_ms = config.connect_timeout_ms;
      topt.reconnect_window_ms = config.reconnect_window_ms;
      topt.reconnect_delay_ms = config.reconnect_delay_ms;
      if (config.tcp_worker_tweak) config.tcp_worker_tweak(w, topt);
      std::string connect_error;
      tcp_endpoints[static_cast<std::size_t>(w)] =
          TcpWorkerTransport::create(std::move(topt), connect_error);
      if (tcp_endpoints[static_cast<std::size_t>(w)] == nullptr) {
        return fail(std::move(connect_error));
      }
      endpoint = tcp_endpoints[static_cast<std::size_t>(w)].get();
    } else {
      endpoint = loopback->worker_endpoint(w);
    }
    workers.push_back(
        std::make_unique<FabricWorker>(std::move(wcfg), endpoint));
  }
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (auto& worker : workers) {
    threads.emplace_back([w = worker.get()] { w->run(); });
  }

  FabricResult result;
  const auto start_seen = Clock::now();
  std::vector<WorkerState> wstate(static_cast<std::size_t>(config.nodes));
  for (int w = 0; w < config.nodes; ++w) {
    // The coordinator's half of each link jitters independently of the
    // worker's half, still purely seed-derived.
    BackoffPolicy policy = config.backoff;
    policy.seed = net::hash_combine64(
        net::hash_combine64(policy.seed, 0x636f6f7264ULL),  // "coord"
        static_cast<std::uint64_t>(w));
    wstate[static_cast<std::size_t>(w)].link =
        std::make_unique<ReliableLink>(policy);
    wstate[static_cast<std::size_t>(w)].last_seen = start_seen;
  }
  // Tee the coordinator's halves of every link into the tracer and the
  // coordinator's flight recorder.
  std::vector<std::unique_ptr<LinkTap>> taps;
  if (tracer != nullptr || coord_recorder != nullptr) {
    taps.reserve(static_cast<std::size_t>(config.nodes));
    for (int w = 0; w < config.nodes; ++w) {
      taps.push_back(std::make_unique<LinkTap>(obs::kCoordinatorNode, tracer,
                                               coord_recorder));
      wstate[static_cast<std::size_t>(w)].link->set_observer(taps.back().get());
    }
  }
  std::vector<std::uint64_t> missed_per_node(
      static_cast<std::size_t>(config.nodes), 0);
  std::vector<std::uint64_t> completed_per_node(
      static_cast<std::size_t>(config.nodes), 0);
  std::vector<ShardState> sstate(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    sstate[static_cast<std::size_t>(s)].outcome.shard = s;
  }
  int shards_done = 0;
  int shards_failed = 0;

  const auto log_line = [&](const std::string& line) {
    if (config.log != nullptr) *config.log << "fabric: " << line << '\n';
  };

  const auto send_assign = [&](int w, int s) {
    obs::ScopedStageTimer lease_timer{profile, obs::Stage::kLease};
    WorkerState& ws = wstate[static_cast<std::size_t>(w)];
    ShardState& ss = sstate[static_cast<std::size_t>(s)];
    Message assign;
    assign.type = MsgType::kAssign;
    assign.shard = static_cast<std::uint32_t>(s);
    assign.epoch = ss.epoch;
    assign.shards_total = static_cast<std::uint32_t>(config.shards);
    assign.budget_cut = base.budget_cut_raw_slot;
    assign.fingerprint = fp_hash;
    if (ss.has_cursor) {
      assign.has_resume = true;
      assign.cursor = ss.cursor;
    }
    if (tracer != nullptr) {
      if (ss.span == 0) {
        ss.span = tracer->begin(obs::kCoordinatorNode,
                                "shard:" + std::to_string(s), root_span,
                                {{"shard", std::to_string(s)}});
      }
      ss.lease_span = tracer->begin(
          obs::kCoordinatorNode, "lease", ss.span,
          {{"epoch", std::to_string(ss.epoch)},
           {"node", std::to_string(w)},
           {"resume",
            ss.has_cursor ? std::to_string(ss.cursor.frontier_slot)
                          : std::string("none")}});
      // The Assign frame gets its own span under the lease; its id travels
      // in the frame's trace context so the worker parents shard_run (and
      // retransmits / the ack) to this exact send.
      assign.ctx_ver = kTraceCtxV1;
      assign.trace_id = tracer->trace_id();
      assign.parent_span = tracer->begin(
          obs::kCoordinatorNode,
          std::string("frame:") + msg_type_name(MsgType::kAssign),
          ss.lease_span);
    }
    ws.link->enqueue(std::move(assign));
    ws.phase = WorkerPhase::kBusy;
    ws.shard = s;
    ss.phase = ShardPhase::kAssigned;
    ss.worker = w;
    ss.outcome.workers.push_back(w);
    log_line("assign shard " + std::to_string(s) + " epoch " +
             std::to_string(ss.epoch) + " -> node " + std::to_string(w) +
             (ss.has_cursor
                  ? " (resume from slot " +
                        std::to_string(ss.cursor.frontier_slot) + ")"
                  : ""));
  };

  const auto try_assign = [&] {
    for (int s = 0; s < config.shards; ++s) {
      if (sstate[static_cast<std::size_t>(s)].phase != ShardPhase::kPending) {
        continue;
      }
      int idle = -1;
      for (int w = 0; w < config.nodes; ++w) {
        if (wstate[static_cast<std::size_t>(w)].phase == WorkerPhase::kIdle) {
          idle = w;
          break;
        }
      }
      if (idle < 0) return;
      send_assign(idle, s);
    }
  };

  // Re-queues an assigned shard after its worker died: commit exactly the
  // records below the last streamed checkpoint cursor (the FIFO channel
  // guarantees they are all in hand), discard the rest — the resumed epoch
  // regenerates them from the cursor onward and never re-probes below it.
  const auto failover = [&](int s) {
    ShardState& ss = sstate[static_cast<std::size_t>(s)];
    if (ss.phase != ShardPhase::kAssigned) return;
    ++result.reassignments;
    std::size_t kept = 0;
    if (ss.has_cursor) {
      for (auto& rec : ss.buffer) {
        if (rec.raw_slot < ss.cursor.frontier_slot) {
          ss.accepted.push_back(std::move(rec));
          ++kept;
        }
      }
      if (!config.obs.any()) {
        // The resumed epoch fast-forwards and reports only its own tail,
        // so the dead epoch's checkpointed stats are the committed head.
        // With observability on the resumed lease replays the whole shard
        // and its ShardDone stats cover the full shard — adding the
        // checkpoint's here would double-count the head.
        ss.stats += ss.cursor_stats;
      }
      ss.cursor_stats = scan::ScanStats{};
      result.resumed_slots += ss.cursor.frontier_slot;
      ss.outcome.resumed_from_slot = ss.cursor.frontier_slot;
    }
    // The dead epoch's shipped observability dies with it: the resumed
    // lease re-ships the full shard, committed atomically at ShardDone.
    ss.pending_trace.clear();
    ss.pending_metrics = obs::MetricsSnapshot{};
    if (tracer != nullptr) {
      tracer->instant(
          obs::kCoordinatorNode, "lease_migration",
          ss.span != 0 ? ss.span : root_span,
          {{"shard", std::to_string(s)},
           {"from_epoch", std::to_string(ss.epoch)},
           {"resume_slot",
            ss.has_cursor ? std::to_string(ss.cursor.frontier_slot)
                          : std::string("none")}});
      if (ss.lease_span != 0) {
        tracer->end(ss.lease_span);
        ss.lease_span = 0;
      }
    }
    const std::size_t dropped = ss.buffer.size() - kept;
    ss.buffer.clear();
    ++ss.epoch;
    ss.phase = ShardPhase::kPending;
    ss.worker = -1;
    ++ss.outcome.epochs;
    log_line("failover shard " + std::to_string(s) + ": kept " +
             std::to_string(kept) + " records below " +
             (ss.has_cursor
                  ? "cursor slot " + std::to_string(ss.cursor.frontier_slot)
                  : std::string("no checkpoint (full rescan)")) +
             ", dropped " + std::to_string(dropped));
  };

  const auto fail_worker = [&](int w, const std::string& reason) {
    WorkerState& ws = wstate[static_cast<std::size_t>(w)];
    if (ws.phase == WorkerPhase::kDead) return;
    ws.phase = WorkerPhase::kDead;
    ++result.dead_workers;
    if (!reason.empty()) {
      result.worker_errors.push_back("node " + std::to_string(w) + ": " +
                                     reason);
    }
    log_line("node " + std::to_string(w) + " dead (" +
             (reason.empty() ? "released" : reason) + ")");
    if (tracer != nullptr) {
      std::uint64_t parent = root_span;
      if (ws.shard >= 0) {
        const ShardState& hs = sstate[static_cast<std::size_t>(ws.shard)];
        parent = hs.lease_span != 0 ? hs.lease_span
                                    : (hs.span != 0 ? hs.span : root_span);
      }
      tracer->instant(obs::kCoordinatorNode, "death_verdict", parent,
                      {{"node", std::to_string(w)},
                       {"reason", reason.empty() ? std::string("released")
                                                 : reason}});
    }
    if (coord_recorder != nullptr) {
      coord_recorder->record("link_dead",
                             "node " + std::to_string(w) + ": " +
                                 (reason.empty() ? "released" : reason));
    }
    const int s = ws.shard;
    ws.shard = -1;
    if (s >= 0) failover(s);
  };

  // True when `msg` addresses the current assignment of (shard, worker):
  // the epoch fence that makes zombie workers harmless.
  const auto fenced = [&](int w, const Message& msg) -> ShardState* {
    if (msg.shard >= static_cast<std::uint32_t>(config.shards)) {
      return nullptr;
    }
    ShardState& ss = sstate[msg.shard];
    if (ss.phase != ShardPhase::kAssigned || ss.worker != w ||
        ss.epoch != msg.epoch) {
      return nullptr;
    }
    return &ss;
  };

  std::vector<std::uint64_t> reconnects_per_node(
      static_cast<std::size_t>(config.nodes), 0);

  // Refuses a rejoin handshake: the worker gets the diagnostic (its only
  // explanation), then the transport fences it — the connection drops and
  // every future rejoin is refused at the socket layer.
  const auto refuse_rejoin = [&](int w, const std::string& diagnostic) {
    log_line("node " + std::to_string(w) + " rejoin refused: " + diagnostic);
    result.worker_errors.push_back("node " + std::to_string(w) +
                                   ": rejoin refused: " + diagnostic);
    Message refused;
    refused.type = MsgType::kRejoinRefused;
    refused.worker = static_cast<std::uint32_t>(w);
    refused.diagnostic = diagnostic;
    fabric.send_to(w, encode_frame(refused));
    fabric.drop_worker(w);
    if (tracer != nullptr) {
      tracer->instant(obs::kCoordinatorNode, "rejoin_refused", root_span,
                      {{"node", std::to_string(w)},
                       {"diagnostic", diagnostic}});
    }
    if (coord_recorder != nullptr) {
      coord_recorder->record("rejoin_refused",
                             "node " + std::to_string(w) + ": " + diagnostic);
    }
  };

  // The reconnect-with-epoch handshake, coordinator side. Every socket
  // connection (initial join and reconnect) opens with a kRejoin carrying
  // identity + fingerprint + the lease the worker believes it holds; the
  // worker must prove all three before the link resumes.
  const auto handle_rejoin = [&](int w, const Message& msg) {
    WorkerState& ws = wstate[static_cast<std::size_t>(w)];
    if (ws.phase == WorkerPhase::kDead) {
      // A zombie: declared dead by the heartbeat timeout, its lease (if
      // any) already migrated under a bumped epoch. Refuse and quarantine.
      std::string diagnostic = "zombie: worker was declared dead";
      if (msg.has_lease &&
          msg.shard < static_cast<std::uint32_t>(config.shards)) {
        diagnostic += "; stale lease on shard " + std::to_string(msg.shard) +
                      " (held epoch " + std::to_string(msg.epoch) +
                      ", current epoch " +
                      std::to_string(sstate[msg.shard].epoch) + ")";
      }
      refuse_rejoin(w, diagnostic);
      return;
    }
    if (msg.fingerprint != fp_hash) {
      const std::string diagnostic =
          "scan fingerprint mismatch (stored " + net::hex64(msg.fingerprint) +
          ", computed " + net::hex64(fp_hash) +
          ") — refusing a link from a different scan";
      refuse_rejoin(w, diagnostic);
      fail_worker(w, "rejoin refused: " + diagnostic);
      try_assign();
      return;
    }
    if (msg.has_lease) {
      const bool lease_current =
          msg.shard < static_cast<std::uint32_t>(config.shards) &&
          sstate[msg.shard].phase == ShardPhase::kAssigned &&
          sstate[msg.shard].worker == w &&
          sstate[msg.shard].epoch == msg.epoch;
      if (!lease_current) {
        const std::string current =
            msg.shard < static_cast<std::uint32_t>(config.shards)
                ? std::to_string(sstate[msg.shard].epoch)
                : std::string("?");
        refuse_rejoin(w, "stale lease on shard " + std::to_string(msg.shard) +
                             " (held epoch " + std::to_string(msg.epoch) +
                             ", current epoch " + current + ")");
        fail_worker(w, "rejoined with a stale lease");
        try_assign();
        return;
      }
    }
    Message accept;
    accept.type = MsgType::kRejoinOk;
    accept.worker = static_cast<std::uint32_t>(w);
    fabric.send_to(w, encode_frame(accept));
    if (ws.saw_join) {
      ++result.reconnects;
      ++reconnects_per_node[static_cast<std::size_t>(w)];
      log_line("node " + std::to_string(w) + " rejoined" +
               (msg.has_lease
                    ? " holding shard " + std::to_string(msg.shard) +
                          " epoch " + std::to_string(msg.epoch)
                    : ""));
      if (tracer != nullptr) {
        std::uint64_t parent = root_span;
        if (ws.shard >= 0) {
          const ShardState& hs = sstate[static_cast<std::size_t>(ws.shard)];
          parent = hs.lease_span != 0 ? hs.lease_span
                                      : (hs.span != 0 ? hs.span : root_span);
        }
        tracer->instant(obs::kCoordinatorNode, "rejoin", parent,
                        {{"node", std::to_string(w)}});
      }
      if (coord_recorder != nullptr) {
        coord_recorder->record("rejoin", "node " + std::to_string(w));
      }
    }
    ws.saw_join = true;
  };

  const auto handle_delivery = [&](int w, Message&& msg) {
    WorkerState& ws = wstate[static_cast<std::size_t>(w)];
    switch (msg.type) {
      case MsgType::kHello:
        if (ws.phase == WorkerPhase::kJoining) ws.phase = WorkerPhase::kIdle;
        break;
      case MsgType::kRefuse:
        if (ShardState* ss = fenced(w, msg)) {
          // A refusal is deterministic — this worker would refuse the
          // lease again. Quarantine the worker; the shard goes back in the
          // queue for a survivor (possibly to fail the whole fabric if
          // every node refuses).
          (void)ss;
          fail_worker(w, "refused shard " + std::to_string(msg.shard) +
                             ": " + msg.diagnostic);
        }
        break;
      case MsgType::kRecords:
        if (ShardState* ss = fenced(w, msg)) {
          ss->buffer.reserve(ss->buffer.size() + msg.records.size());
          for (const auto& rec : msg.records) {
            ss->buffer.push_back(scan::ScanRecord{
                rec.response, rec.when, static_cast<int>(msg.shard),
                rec.raw_slot});
          }
        }
        break;
      case MsgType::kCheckpoint:
        if (ShardState* ss = fenced(w, msg)) {
          // Never let the committed frontier regress. A replayed lease
          // (obs-on resume) already suppresses checkpoints below its
          // handoff cursor worker-side; this guard keeps the invariant
          // even against a buggy or hostile peer — a regressed cursor
          // would re-commit already-committed slots on the next failover.
          if (ss->has_cursor &&
              msg.cursor.frontier_slot < ss->cursor.frontier_slot) {
            break;
          }
          if (tracer != nullptr && msg.ctx_ver == kTraceCtxV1) {
            tracer->instant(
                obs::kCoordinatorNode, "checkpoint_commit", msg.parent_span,
                {{"slot", std::to_string(msg.cursor.frontier_slot)}});
          }
          ss->cursor = std::move(msg.cursor);
          ss->has_cursor = true;
          ss->cursor_stats = msg.stats;
        }
        break;
      case MsgType::kObsTrace:
        if (ShardState* ss = fenced(w, msg)) {
          ss->pending_trace.reserve(ss->pending_trace.size() +
                                    msg.trace_events.size());
          for (auto& ev : msg.trace_events) {
            ss->pending_trace.push_back(std::move(ev));
          }
        }
        break;
      case MsgType::kObsMetrics:
        if (ShardState* ss = fenced(w, msg)) {
          // Chunks arrive in snapshot order over the FIFO channel, so
          // concatenation reassembles the worker's sorted snapshot.
          ss->pending_metrics.entries.reserve(
              ss->pending_metrics.entries.size() + msg.metrics.entries.size());
          for (auto& entry : msg.metrics.entries) {
            ss->pending_metrics.entries.push_back(std::move(entry));
          }
        }
        break;
      case MsgType::kShardDone:
        if (ShardState* ss = fenced(w, msg)) {
          for (auto& rec : ss->buffer) ss->accepted.push_back(std::move(rec));
          ss->buffer.clear();
          ss->stats += msg.stats;
          ss->cursor_stats = scan::ScanStats{};
          // FIFO: ShardDone in hand implies every ObsTrace/ObsMetrics
          // chunk this epoch shipped is in hand — commit atomically.
          ss->trace = std::move(ss->pending_trace);
          ss->scan_metrics = std::move(ss->pending_metrics);
          ss->pending_trace = std::vector<obs::TraceEvent>{};
          ss->pending_metrics = obs::MetricsSnapshot{};
          if (tracer != nullptr) {
            if (ss->lease_span != 0) {
              tracer->end(ss->lease_span);
              ss->lease_span = 0;
            }
            if (ss->span != 0) {
              tracer->end(ss->span);
              ss->span = 0;
            }
          }
          ss->phase = ShardPhase::kDone;
          ss->outcome.completed = true;
          ++shards_done;
          ++completed_per_node[static_cast<std::size_t>(w)];
          ws.phase = WorkerPhase::kIdle;
          ws.shard = -1;
          log_line("shard " + std::to_string(msg.shard) + " done by node " +
                   std::to_string(w) + " (epoch " +
                   std::to_string(msg.epoch) + ")");
        }
        break;
      default:
        break;
    }
  };

  // Health timeline: one JSONL snapshot of fabric state per interval while
  // the run is live (wall clock — quarantined from deterministic outputs).
  auto next_timeline = std::chrono::steady_clock::now();
  const auto emit_timeline = [&](bool force) {
    if (config.timeline == nullptr) return;
    const auto tnow = std::chrono::steady_clock::now();
    if (!force && tnow < next_timeline) return;
    next_timeline =
        tnow + std::chrono::milliseconds(
                   config.timeline_interval_ms > 1 ? config.timeline_interval_ms
                                                   : 1);
    int live = 0;
    int busy = 0;
    for (const auto& ws : wstate) {
      if (ws.phase != WorkerPhase::kDead) ++live;
      if (ws.phase == WorkerPhase::kBusy) ++busy;
    }
    int pending = 0;
    int assigned = 0;
    for (const auto& ss : sstate) {
      if (ss.phase == ShardPhase::kPending) ++pending;
      if (ss.phase == ShardPhase::kAssigned) ++assigned;
    }
    std::uint64_t downlink_retx = 0;
    for (const auto& ws : wstate) downlink_retx += ws.link->retransmits();
    char line[512];
    std::snprintf(
        line, sizeof line,
        "{\"t_ms\":%.3f,\"workers_live\":%d,\"workers_busy\":%d,"
        "\"workers_dead\":%d,\"shards_pending\":%d,\"shards_assigned\":%d,"
        "\"shards_done\":%d,\"shards_failed\":%d,\"reassignments\":%llu,"
        "\"missed_heartbeats\":%llu,\"frames_rejected\":%llu,"
        "\"downlink_retransmits\":%llu}",
        std::chrono::duration<double, std::milli>(tnow - wall_start).count(),
        live, busy, result.dead_workers, pending, assigned, shards_done,
        shards_failed,
        static_cast<unsigned long long>(result.reassignments),
        static_cast<unsigned long long>(result.missed_heartbeats),
        static_cast<unsigned long long>(result.frames_rejected),
        static_cast<unsigned long long>(downlink_retx));
    *config.timeline << line << '\n';
  };

  while (shards_done + shards_failed < config.shards) {
    emit_timeline(false);
    bool any_live = false;
    for (const auto& ws : wstate) {
      if (ws.phase != WorkerPhase::kDead) {
        any_live = true;
        break;
      }
    }
    if (!any_live) break;

    const auto now = Clock::now();
    for (int w = 0; w < config.nodes; ++w) {
      WorkerState& ws = wstate[static_cast<std::size_t>(w)];
      if (ws.phase == WorkerPhase::kDead) continue;
      auto wire = ws.link->poll(now);
      for (auto& frame : wire.frames) fabric.send_to(w, std::move(frame));
      if (ws.link->dead()) {
        fail_worker(w, "unreachable (retransmission budget exhausted)");
        try_assign();
        continue;
      }
      const auto silence_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - ws.last_seen)
              .count();
      const auto interval =
          static_cast<long long>(config.heartbeat_interval_ms);
      const std::uint64_t missed =
          silence_ms > interval
              ? static_cast<std::uint64_t>(silence_ms / interval - 1)
              : 0;
      if (missed > ws.misses_counted) {
        result.missed_heartbeats += missed - ws.misses_counted;
        missed_per_node[static_cast<std::size_t>(w)] +=
            missed - ws.misses_counted;
        ws.misses_counted = missed;
      }
      if (silence_ms > config.heartbeat_timeout_ms) {
        fail_worker(w, "heartbeat timeout (" + std::to_string(silence_ms) +
                           "ms silent)");
        try_assign();
      }
    }

    auto rx = fabric.recv_any(5);
    if (rx.status == RecvStatus::kTimeout) continue;
    if (rx.worker < 0 || rx.worker >= config.nodes) continue;
    WorkerState& ws = wstate[static_cast<std::size_t>(rx.worker)];
    if (rx.status == RecvStatus::kClosed) {
      if (fabric.reconnectable() && ws.phase != WorkerPhase::kDead) {
        // On a socket transport a dead connection is not a dead worker:
        // the reconnect handshake may resurrect the link, so the heartbeat
        // timeout stays the sole death arbiter.
        log_line("node " + std::to_string(rx.worker) +
                 " link down, awaiting rejoin");
        if (tracer != nullptr) {
          tracer->instant(obs::kCoordinatorNode, "link_down", root_span,
                          {{"node", std::to_string(rx.worker)}});
        }
        if (coord_recorder != nullptr) {
          coord_recorder->record("link_down",
                                 "node " + std::to_string(rx.worker));
        }
        continue;
      }
      fail_worker(rx.worker, "connection closed");
      try_assign();
      continue;
    }
    // Frames from dead workers are ignored wholesale — no acks, so a
    // zombie's reliable sends starve and it shuts itself down. The one
    // exception on a socket transport is the rejoin handshake: a zombie's
    // reconnect gets an explicit refusal plus a transport-level fence.
    if (ws.phase == WorkerPhase::kDead) {
      if (fabric.reconnectable()) {
        auto zombie = decode_frame(rx.frame);
        if (zombie.message && zombie.message->type == MsgType::kRejoin) {
          handle_rejoin(rx.worker, *zombie.message);
        }
      }
      continue;
    }
    ws.last_seen = Clock::now();
    ws.misses_counted = 0;
    obs::ScopedStageTimer decode_timer{profile, obs::Stage::kDecode};
    auto decoded = decode_frame(rx.frame);
    if (!decoded.message) {
      ++result.frames_rejected;
      if (coord_recorder != nullptr) {
        coord_recorder->record("rx", "undecodable frame from node " +
                                         std::to_string(rx.worker) + ": " +
                                         decoded.error);
      }
      continue;
    }
    Message& msg = *decoded.message;
    if (coord_recorder != nullptr && msg.type != MsgType::kAck) {
      coord_recorder->record(
          msg.type == MsgType::kHeartbeat ? "heartbeat" : "rx",
          std::string(msg_type_name(msg.type)) + " node=" +
              std::to_string(rx.worker),
          msg.seq);
    }
    if (msg.type == MsgType::kAck) {
      ws.link->on_ack(msg.ack_seq);
    } else if (msg.type == MsgType::kHeartbeat) {
      // last_seen already refreshed — that is the heartbeat's whole job.
    } else if (msg.type == MsgType::kRejoin) {
      // Unreliable (seq 0) by design: it opens every stream, before the
      // reliable channel state is trustworthy.
      handle_rejoin(rx.worker, msg);
    } else if (msg.type == MsgType::kRejoinOk ||
               msg.type == MsgType::kRejoinRefused) {
      // Coordinator-to-worker frames; ignore an echo.
    } else {
      auto inbound = ws.link->on_reliable(msg);
      if (!inbound.ack.empty()) {
        fabric.send_to(rx.worker, std::move(inbound.ack));
      }
      if (inbound.deliver) {
        handle_delivery(rx.worker, std::move(msg));
        try_assign();
      }
    }
  }

  // Release the survivors: best-effort Bye, then hang up. Workers exit on
  // whichever arrives first.
  Message bye;
  bye.type = MsgType::kBye;
  const std::string bye_frame = encode_frame(bye);
  for (int w = 0; w < config.nodes; ++w) {
    if (wstate[static_cast<std::size_t>(w)].phase != WorkerPhase::kDead) {
      fabric.send_to(w, bye_frame);
    }
  }
  fabric.close_all();
  for (auto& thread : threads) thread.join();
  emit_timeline(true);  // final snapshot: terminal state of the run

  if (fabric.reconnectable()) {
    for (int w = 0; w < config.nodes; ++w) {
      const LinkCounters lc = fabric.link_counters(w);
      result.bytes_sent += lc.bytes_sent;
      result.bytes_received += lc.bytes_received;
    }
  }

  for (int w = 0; w < config.nodes; ++w) {
    const FabricWorker& worker = *workers[static_cast<std::size_t>(w)];
    if (!worker.error().empty()) {
      result.worker_errors.push_back("node " + std::to_string(w) + ": " +
                                     worker.error());
    }
    result.retransmits += worker.retransmits();
    result.retransmits += wstate[static_cast<std::size_t>(w)].link
                              ->retransmits();
  }

  // Deterministic merge: shard record streams are partition-invariant, and
  // the content sort puts them in one byte-stable order. The shard index
  // tiebreaks exactly like the engine's worker index (they coincide for a
  // fabric of S shards vs an engine of S threads).
  {
    obs::ScopedStageTimer merge_timer{profile, obs::Stage::kMerge};
    result.collector = scan::ResultCollector{config.alias_threshold};
    for (auto& ss : sstate) {
      if (ss.phase != ShardPhase::kDone) result.failed = true;
      for (auto& rec : ss.accepted) result.records.push_back(std::move(rec));
      result.stats += ss.stats;
      result.shards.push_back(ss.outcome);
    }
    scan::sort_records(result.records);
    for (const auto& rec : result.records) {
      result.collector.add(rec.response);
    }

    // Scan-content observability: exactly the engine's merge over the same
    // per-shard values, in the same shard order — byte-identical output.
    if (config.obs.trace_level != obs::TraceLevel::kOff) {
      std::vector<std::vector<obs::TraceEvent>> buffers;
      buffers.reserve(sstate.size());
      for (auto& ss : sstate) buffers.push_back(std::move(ss.trace));
      result.trace = obs::merge_traces(std::move(buffers));
    }
    if (config.obs.metrics) {
      std::vector<const obs::MetricsSnapshot*> snaps;
      snaps.reserve(sstate.size());
      for (const auto& ss : sstate) snaps.push_back(&ss.scan_metrics);
      result.scan_metrics = obs::merge_snapshots(snaps);
    }
  }

  // Stage profile: every worker's lease stages plus the coordinator's own
  // (lease / decode / merge) — wall clock, reported but never exported
  // into the deterministic artifacts.
  result.stage_profile = coord_profile;
  for (const auto& worker : workers) {
    result.stage_profile.merge(worker->profile());
  }

  // Every fabric_* series is wall_clock: they describe the deployment, not
  // the scan, so the deterministic Prometheus export (the one compared
  // byte-for-byte against the engine's) omits them. Unlabeled totals keep
  // their original names; per-node breakdowns add node="worker-N" (and
  // link_class for retransmits) so dashboards can attribute without
  // breaking existing queries.
  obs::MetricsShard metrics;
  *metrics.counter("fabric_reassignments_total", {},
                   "Shard leases re-assigned after a worker death", true) =
      result.reassignments;
  *metrics.counter("fabric_missed_heartbeats_total", {},
                   "Heartbeat intervals a live worker went silent", true) =
      result.missed_heartbeats;
  *metrics.counter("fabric_resumed_slots_total", {},
                   "Sum of failover handoff cursor frontiers", true) =
      result.resumed_slots;
  *metrics.counter("fabric_frames_rejected_total", {},
                   "Undecodable protocol frames dropped", true) =
      result.frames_rejected;
  *metrics.counter("fabric_retransmits_total", {},
                   "Reliable-channel retransmissions, both directions", true) =
      result.retransmits;
  *metrics.counter("fabric_workers_dead_total", {},
                   "Worker nodes declared dead", true) =
      static_cast<std::uint64_t>(result.dead_workers);
  *metrics.counter("fabric_shards_completed_total", {},
                   "Fabric shards scanned to completion", true) =
      static_cast<std::uint64_t>(shards_done);
  for (int w = 0; w < config.nodes; ++w) {
    const std::string node = "worker-" + std::to_string(w);
    const FabricWorker& worker = *workers[static_cast<std::size_t>(w)];
    if (wstate[static_cast<std::size_t>(w)].phase == WorkerPhase::kDead) {
      *metrics.counter("fabric_workers_dead_total", {{"node", node}},
                       "Worker nodes declared dead", true) = 1;
    }
    if (missed_per_node[static_cast<std::size_t>(w)] > 0) {
      *metrics.counter("fabric_missed_heartbeats_total", {{"node", node}},
                       "Heartbeat intervals a live worker went silent",
                       true) = missed_per_node[static_cast<std::size_t>(w)];
    }
    if (worker.retransmits() > 0) {
      *metrics.counter("fabric_retransmits_total",
                       {{"link_class", "uplink"}, {"node", node}},
                       "Reliable-channel retransmissions, both directions",
                       true) = worker.retransmits();
    }
    const std::uint64_t down =
        wstate[static_cast<std::size_t>(w)].link->retransmits();
    if (down > 0) {
      *metrics.counter("fabric_retransmits_total",
                       {{"link_class", "downlink"}, {"node", node}},
                       "Reliable-channel retransmissions, both directions",
                       true) = down;
    }
    if (completed_per_node[static_cast<std::size_t>(w)] > 0) {
      *metrics.counter("fabric_shards_completed_total", {{"node", node}},
                       "Fabric shards scanned to completion", true) =
          completed_per_node[static_cast<std::size_t>(w)];
    }
  }
  // Socket-transport link series: emitted only when the plane can actually
  // reconnect, so loopback runs keep their exact metric set.
  if (fabric.reconnectable()) {
    *metrics.counter("fabric_reconnects_total", {},
                     "Rejoin handshakes accepted after the initial join",
                     true) = result.reconnects;
    *metrics.counter("fabric_bytes_sent_total", {},
                     "Raw stream bytes, coordinator to workers", true) =
        result.bytes_sent;
    *metrics.counter("fabric_bytes_received_total", {},
                     "Raw stream bytes, workers to coordinator", true) =
        result.bytes_received;
    for (int w = 0; w < config.nodes; ++w) {
      const std::string node = "worker-" + std::to_string(w);
      const LinkCounters lc = fabric.link_counters(w);
      if (reconnects_per_node[static_cast<std::size_t>(w)] > 0) {
        *metrics.counter("fabric_reconnects_total", {{"node", node}},
                         "Rejoin handshakes accepted after the initial join",
                         true) = reconnects_per_node[static_cast<std::size_t>(w)];
      }
      if (lc.bytes_sent > 0) {
        *metrics.counter("fabric_bytes_sent_total", {{"node", node}},
                         "Raw stream bytes, coordinator to workers", true) =
            lc.bytes_sent;
      }
      if (lc.bytes_received > 0) {
        *metrics.counter("fabric_bytes_received_total", {{"node", node}},
                         "Raw stream bytes, workers to coordinator", true) =
            lc.bytes_received;
      }
    }
  }
  result.metrics = obs::merge_shards({&metrics});

  // Deployment trace: close the root (finish() closes anything a failed
  // run left open) and hand the span tree over.
  if (tracer != nullptr) {
    tracer->end(root_span);
    result.fabric_spans = tracer->finish();
    result.fabric_trace_id = trace_id;
  }

  // Flight recorders: dump every node's ring on the failure paths — a
  // worker death (covers refusals, which quarantine the refusing node) or
  // an incomplete fabric.
  if (!recorders.empty() && !config.flight_recorder_prefix.empty() &&
      (result.dead_workers > 0 || result.failed)) {
    for (int w = 0; w < config.nodes; ++w) {
      const std::string path = config.flight_recorder_prefix + ".node" +
                               std::to_string(w) + ".jsonl";
      if (recorders[static_cast<std::size_t>(w)]->dump_to_file(
              path, "worker-" + std::to_string(w))) {
        result.recorder_dumps.push_back(path);
      }
    }
    const std::string path =
        config.flight_recorder_prefix + ".coordinator.jsonl";
    if (coord_recorder->dump_to_file(path, "coordinator")) {
      result.recorder_dumps.push_back(path);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.ok = true;
  return result;
}

}  // namespace xmap::fabric
