#include "fabric/worker.h"

#include <algorithm>
#include <chrono>

#include "netbase/random.h"
#include "netbase/uint128.h"
#include "xmap/replica.h"

namespace xmap::fabric {
namespace {

using Clock = ReliableLink::Clock;

BackoffPolicy worker_policy(const WorkerConfig& config) {
  // Decorrelate this worker's retransmission jitter from every other
  // link's without giving up determinism: the seed is still a pure
  // function of (fabric seed, worker id).
  BackoffPolicy policy = config.backoff;
  policy.seed = net::hash_combine64(policy.seed,
                                    static_cast<std::uint64_t>(config.id));
  return policy;
}

}  // namespace

FabricWorker::FabricWorker(WorkerConfig config, Transport* transport)
    : config_(std::move(config)),
      transport_(transport),
      link_(worker_policy(config_)),
      tap_(config_.id, config_.tracer, config_.recorder),
      span_parent_(config_.trace_root) {
  if (config_.tracer != nullptr || config_.recorder != nullptr) {
    link_.set_observer(&tap_);
  }
}

bool FabricWorker::pump(bool until_idle) {
  do {
    auto wire = link_.poll(Clock::now());
    for (auto& frame : wire.frames) {
      if (!transport_->send(std::move(frame))) {
        peer_gone_ = true;
        return false;
      }
    }
    if (link_.dead()) {
      peer_gone_ = true;
      error_ = "reliable link: retransmission budget exhausted";
      return false;
    }
    if (!link_.busy()) return true;
    int timeout_ms = 20;
    if (wire.next_deadline) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                             *wire.next_deadline - Clock::now())
                             .count();
      timeout_ms = static_cast<int>(std::min<long long>(
          std::max<long long>(until, 1), 50));
    }
    const auto received = transport_->recv(timeout_ms);
    if (received.status == RecvStatus::kClosed) {
      peer_gone_ = true;
      return false;
    }
    if (received.status != RecvStatus::kFrame) continue;
    auto decoded = decode_frame(received.frame);
    // An undecodable frame vanishes here; the sender's
    // retransmission schedule recovers it.
    if (!decoded.message) continue;
    Message& msg = *decoded.message;
    if (config_.recorder != nullptr) {
      config_.recorder->record("rx", msg_type_name(msg.type), msg.seq);
    }
    if (msg.type == MsgType::kAck) {
      link_.on_ack(msg.ack_seq);
    } else if (msg.type == MsgType::kAssign) {
      auto inbound = link_.on_reliable(msg);
      if (!inbound.ack.empty()) transport_->send(std::move(inbound.ack));
      if (inbound.deliver) deferred_.push_back(std::move(msg));
    } else if (msg.type == MsgType::kBye) {
      // Bye is unreliable and terminal: no ack, no ordering to protect.
      deferred_.push_back(std::move(msg));
    }
  } while (until_idle && link_.busy());
  return true;
}

bool FabricWorker::send_reliable(Message msg) {
  if (config_.tracer != nullptr) {
    // Open a span for the frame itself and ship its id as the context's
    // parent: the coordinator's handling (and every retransmission) parents
    // under it, which is what stitches the cross-node tree together.
    msg.ctx_ver = kTraceCtxV1;
    msg.trace_id = config_.tracer->trace_id();
    msg.parent_span = config_.tracer->begin(
        config_.id, std::string("frame:") + msg_type_name(msg.type),
        span_parent_);
  }
  link_.enqueue(std::move(msg));
  return pump(/*until_idle=*/true);
}

void FabricWorker::start_heartbeats() {
  heartbeat_stop_ = false;
  heartbeat_ = std::thread([this] {
    Message beat;
    beat.type = MsgType::kHeartbeat;
    beat.worker = static_cast<std::uint32_t>(config_.id);
    const std::string frame = encode_frame(beat);
    std::unique_lock lock{heartbeat_mu_};
    while (!heartbeat_stop_) {
      lock.unlock();
      if (config_.recorder != nullptr) {
        config_.recorder->record("heartbeat", "beat");
      }
      transport_->send(frame);
      lock.lock();
      heartbeat_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.heartbeat_interval_ms),
          [this] { return heartbeat_stop_; });
    }
  });
}

void FabricWorker::stop_heartbeats() {
  if (!heartbeat_.joinable()) return;
  {
    std::lock_guard lock{heartbeat_mu_};
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  heartbeat_.join();
}

void FabricWorker::run() {
  try {
    Message hello;
    hello.type = MsgType::kHello;
    hello.worker = static_cast<std::uint32_t>(config_.id);
    if (!send_reliable(std::move(hello))) return;
    start_heartbeats();
    while (!done_ && !peer_gone_ && !crashed_) {
      if (!deferred_.empty()) {
        Message msg = std::move(deferred_.front());
        deferred_.erase(deferred_.begin());
        if (msg.type == MsgType::kBye) {
          done_ = true;
        } else if (msg.type == MsgType::kAssign) {
          handle_assign(msg);
        }
        continue;
      }
      const auto received = transport_->recv(20);
      if (received.status == RecvStatus::kClosed) break;
      if (received.status != RecvStatus::kFrame) continue;
      auto decoded = decode_frame(received.frame);
      if (!decoded.message) continue;
      Message& msg = *decoded.message;
      if (config_.recorder != nullptr) {
        config_.recorder->record("rx", msg_type_name(msg.type), msg.seq);
      }
      if (msg.type == MsgType::kAck) {
        link_.on_ack(msg.ack_seq);
      } else if (msg.type == MsgType::kAssign) {
        auto inbound = link_.on_reliable(msg);
        if (!inbound.ack.empty()) transport_->send(std::move(inbound.ack));
        if (inbound.deliver) deferred_.push_back(std::move(msg));
      } else if (msg.type == MsgType::kBye) {
        done_ = true;
      }
    }
  } catch (const std::exception& e) {
    // Failure containment mirrors the engine's: a throwing worker reports
    // and hangs up; the coordinator's failover path treats it like any
    // other dead node.
    error_ = e.what();
  } catch (...) {
    error_ = "unknown exception";
  }
  stop_heartbeats();
  // A silent crash (kill without close_transport) must leave the
  // connection dangling so the coordinator's only death signal is the
  // heartbeat timeout; every other exit hangs up explicitly.
  if (crashed_) {
    if (config_.kill && config_.kill->close_transport) transport_->close();
  } else {
    transport_->close();
  }
}

void FabricWorker::handle_assign(const Message& assign) {
  const auto refuse_with = [&](std::string diagnostic) {
    if (config_.recorder != nullptr) {
      config_.recorder->record("refusal", diagnostic);
    }
    if (config_.tracer != nullptr) {
      config_.tracer->instant(config_.id, "refuse", assign.parent_span,
                              {{"shard", std::to_string(assign.shard)},
                               {"diagnostic", diagnostic}});
    }
    Message refuse;
    refuse.type = MsgType::kRefuse;
    refuse.shard = assign.shard;
    refuse.epoch = assign.epoch;
    refuse.diagnostic = std::move(diagnostic);
    send_reliable(std::move(refuse));
  };
  if (assign.fingerprint != config_.fingerprint) {
    refuse_with(
        "shard " + std::to_string(assign.shard) +
        ": scan fingerprint mismatch (stored " +
        net::hex64(assign.fingerprint) + ", computed " +
        net::hex64(config_.fingerprint) +
        ") — refusing a checkpoint handoff from a different scan");
    return;
  }
  if (assign.has_resume &&
      assign.cursor.spec_steps.size() != config_.base.targets.size()) {
    refuse_with("shard " + std::to_string(assign.shard) +
                ": torn checkpoint cursor (stored " +
                std::to_string(assign.cursor.spec_steps.size()) +
                " spec steps, computed " +
                std::to_string(config_.base.targets.size()) +
                " target specs) — refusing to resume");
    return;
  }
  run_shard(assign);
}

void FabricWorker::run_shard(const Message& assign) {
  // The lease composes under the machine shard exactly like the engine's
  // thread sub-sharding: fabric shard s of S on machine shard m of M walks
  // shard m*S+s of M*S. The shard's record stream is therefore a pure
  // function of (scan config, shard index) — whichever worker runs it, at
  // whatever node count, produces identical bytes.
  // The transport's rejoin handshake proves this lease after a socket
  // death; held until the shard completes, so a crash leaves the stale
  // lease in place for the coordinator to fence.
  transport_->note_lease(assign.shard, assign.epoch, true);
  scan::ScanConfig wcfg =
      scan::sub_shard(config_.base, static_cast<int>(assign.shard),
                      static_cast<int>(assign.shards_total));
  wcfg.budget_cut_raw_slot = assign.budget_cut;
  wcfg.max_probes = 0;  // fully encoded in the cut by the coordinator
  // With observability on, a resume replays the whole shard in the local
  // replica instead of fast-forwarding: the record filter below keeps the
  // wire bytes identical (only slots >= the handoff cursor go out), while
  // the regenerated trace/metrics/stats cover the full shard — exactly the
  // engine's per-shard values, which is what makes the fabric's obs
  // outputs byte-identical to the engine's. Obs off keeps the O(log n)
  // fast-forward.
  const bool full_replay = assign.has_resume && config_.obs.any();
  const std::uint64_t resume_floor =
      full_replay ? assign.cursor.frontier_slot : 0;
  if (assign.has_resume && !full_replay) {
    wcfg.resume_spec_steps = assign.cursor.spec_steps;
  }
  if (config_.kill) wcfg.shutdown_at_raw_slot = config_.kill->at_slot;

  std::uint64_t shard_span = 0;
  if (config_.tracer != nullptr) {
    shard_span = config_.tracer->begin(
        config_.id, "shard_run", assign.parent_span,
        {{"shard", std::to_string(assign.shard)},
         {"epoch", std::to_string(assign.epoch)}});
    span_parent_ = shard_span;
    if (assign.has_resume) {
      config_.tracer->instant(
          config_.id, "cursor_resume", shard_span,
          {{"from_slot", std::to_string(assign.cursor.frontier_slot)},
           {"mode", full_replay ? "full_replay" : "fast_forward"}});
    }
  }
  // Thread-confined scan-content sinks, the engine's per-worker recipe.
  obs::TraceBuffer trace_buffer{config_.obs.trace_level};
  obs::MetricsShard metrics_shard;
  obs::StageProfile shard_profile;

  const auto finish_span = [&](const char* note) {
    if (config_.obs.profile) profile_.merge(shard_profile);
    if (config_.tracer != nullptr) {
      if (note != nullptr) {
        config_.tracer->add_args(shard_span, {{"outcome", note}});
      }
      config_.tracer->end(shard_span);
      span_parent_ = config_.trace_root;
    }
  };
  obs::TraceBuffer* trace =
      config_.obs.trace_level != obs::TraceLevel::kOff ? &trace_buffer
                                                       : nullptr;
  obs::MetricsShard* metrics =
      config_.obs.metrics ? &metrics_shard : nullptr;
  obs::StageProfile* profile =
      config_.obs.profile ? &shard_profile : nullptr;

  // Thread-confined deterministic replica, the same one the parallel
  // engine's workers build.
  scan::ScanReplica replica{{*config_.world_specs, *config_.vendors,
                             config_.build, config_.faults, config_.vantage},
                            wcfg, *config_.module, config_.obs, trace,
                            metrics, profile};
  sim::Network& net = replica.net;
  scan::SimChannelScanner* scanner = replica.scanner;

  std::vector<WireRecord> buffer;
  // Set when the coordinator is unreachable mid-scan: the replica runs to
  // completion (cheap, deterministic) but nothing more goes on the wire.
  bool abandoned = false;
  const auto crash_armed = [&] {
    return config_.kill.has_value() && scanner->interrupted();
  };
  const auto flush = [&]() -> bool {
    if (buffer.empty()) return true;
    Message batch;
    batch.type = MsgType::kRecords;
    batch.shard = assign.shard;
    batch.epoch = assign.epoch;
    batch.records = std::move(buffer);
    buffer.clear();
    return send_reliable(std::move(batch));
  };
  scanner->on_response_slotted([&](const scan::ProbeResponse& response,
                                   sim::SimTime when,
                                   std::uint64_t raw_slot) {
    // Full-replay resume: slots below the handoff cursor were committed by
    // the coordinator from the dead epoch — regenerate them locally (they
    // feed the shard's trace/metrics/stats) but keep them off the wire.
    if (raw_slot < resume_floor) return;
    buffer.push_back(WireRecord{response, when, raw_slot});
    if (abandoned || crash_armed()) return;
    if (buffer.size() >= config_.record_batch && !flush()) abandoned = true;
  });
  scanner->set_checkpoint_hook(
      config_.checkpoint_interval_targets,
      [&](const scan::ScanCursor& cursor) {
        // A replayed prefix must not regress the shard's streamed cursor:
        // a checkpoint below the handoff would let a second failover
        // re-transmit slots the coordinator already committed.
        if (cursor.frontier_slot < resume_floor) return;
        if (abandoned || crash_armed()) return;
        // Flush first: the FIFO channel then guarantees every record below
        // the cursor reaches the coordinator before the checkpoint does —
        // the invariant the failover filter stands on.
        if (!flush()) {
          abandoned = true;
          return;
        }
        if (config_.tracer != nullptr) {
          config_.tracer->instant(
              config_.id, "checkpoint", shard_span,
              {{"slot", std::to_string(cursor.frontier_slot)}});
        }
        Message ckpt;
        ckpt.type = MsgType::kCheckpoint;
        ckpt.shard = assign.shard;
        ckpt.epoch = assign.epoch;
        ckpt.cursor = cursor;
        ckpt.stats = scanner->stats();
        if (!send_reliable(std::move(ckpt))) abandoned = true;
      });

  scanner->start();
  net.run();

  if (crash_armed()) {
    // The seeded kill point: everything unflushed dies with the worker.
    crashed_ = true;
    finish_span("crashed");
    return;
  }
  if (abandoned || peer_gone_) {
    finish_span("abandoned");
    return;
  }
  if (!flush()) {
    finish_span("abandoned");
    return;
  }
  // Ship the shard's deterministic observability ahead of ShardDone on the
  // same FIFO channel: a ShardDone in hand implies every obs chunk of its
  // epoch is in hand, so the coordinator commits them together.
  if (trace != nullptr) {
    auto events = trace_buffer.take();
    // Bounded chunks: the frame cap is 1 MiB and trace events are ~100
    // bytes serialized, so 2000 events sit comfortably under it.
    constexpr std::size_t kChunk = 2000;
    for (std::size_t i = 0; i < events.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, events.size() - i);
      Message chunk;
      chunk.type = MsgType::kObsTrace;
      chunk.shard = assign.shard;
      chunk.epoch = assign.epoch;
      chunk.trace_events.assign(
          events.begin() + static_cast<std::ptrdiff_t>(i),
          events.begin() + static_cast<std::ptrdiff_t>(i + n));
      if (!send_reliable(std::move(chunk))) {
        finish_span("abandoned");
        return;
      }
    }
  }
  if (metrics != nullptr) {
    auto snapshot = obs::merge_shards({&metrics_shard});
    constexpr std::size_t kChunk = 500;
    for (std::size_t i = 0; i < snapshot.entries.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, snapshot.entries.size() - i);
      Message chunk;
      chunk.type = MsgType::kObsMetrics;
      chunk.shard = assign.shard;
      chunk.epoch = assign.epoch;
      chunk.metrics.entries.assign(
          snapshot.entries.begin() + static_cast<std::ptrdiff_t>(i),
          snapshot.entries.begin() + static_cast<std::ptrdiff_t>(i + n));
      if (!send_reliable(std::move(chunk))) {
        finish_span("abandoned");
        return;
      }
    }
  }
  Message done;
  done.type = MsgType::kShardDone;
  done.shard = assign.shard;
  done.epoch = assign.epoch;
  done.stats = scanner->stats();
  if (send_reliable(std::move(done))) {
    transport_->note_lease(0, 0, false);
    finish_span("completed");
  } else {
    finish_span("abandoned");
  }
}

}  // namespace xmap::fabric
