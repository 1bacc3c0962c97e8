#include "fabric/protocol.h"

#include <mutex>
#include <unordered_set>

namespace xmap::fabric {
namespace {

// ---- little-endian writers -------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_addr(std::string& out, const net::Ipv6Address& addr) {
  for (std::uint8_t b : addr.bytes()) out.push_back(static_cast<char>(b));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_cursor(std::string& out, const scan::ScanCursor& cursor) {
  put_u32(out, static_cast<std::uint32_t>(cursor.spec_steps.size()));
  for (std::uint64_t steps : cursor.spec_steps) put_u64(out, steps);
  put_u64(out, cursor.frontier_slot);
}

void put_stats(std::string& out, const scan::ScanStats& s) {
  put_u64(out, s.targets_generated);
  put_u64(out, s.blocked);
  put_u64(out, s.sent);
  put_u64(out, s.received);
  put_u64(out, s.validated);
  put_u64(out, s.discarded);
  put_u64(out, s.retransmits);
  put_u64(out, s.duplicates);
  put_u64(out, s.corrupted);
  put_u64(out, s.late);
  put_u64(out, s.rate_adjustments);
  put_u64(out, s.provenance_misses);
  put_u64(out, s.first_send);
  put_u64(out, s.last_send);
}

// A TraceEvent string: presence flag, then length-prefixed bytes. The flag
// preserves null-vs-empty across the wire — a null key means "argument
// unused" and must decode back to null, not to "".
void put_trace_string(std::string& out, const char* s) {
  if (s == nullptr) {
    put_u8(out, 0);
    return;
  }
  put_u8(out, 1);
  put_string(out, std::string(s));
}

void put_trace_event(std::string& out, const obs::TraceEvent& e) {
  put_u64(out, e.ts);
  put_u64(out, e.dur);
  put_trace_string(out, e.name);
  put_trace_string(out, e.cat);
  put_trace_string(out, e.addr1_key);
  put_addr(out, e.addr1);
  put_trace_string(out, e.addr2_key);
  put_addr(out, e.addr2);
  put_trace_string(out, e.str_key);
  put_trace_string(out, e.str_val);
  for (const auto* arg : {&e.i0, &e.i1, &e.i2}) {
    put_trace_string(out, arg->key);
    put_u64(out, arg->value);
  }
}

void put_metrics_entry(std::string& out,
                       const obs::MetricsSnapshot::Entry& e) {
  put_string(out, e.name);
  put_u32(out, static_cast<std::uint32_t>(e.labels.size()));
  for (const auto& [k, v] : e.labels) {
    put_string(out, k);
    put_string(out, v);
  }
  put_u8(out, static_cast<std::uint8_t>(e.kind));
  put_u8(out, e.wall_clock ? 1 : 0);
  put_u64(out, e.value);
  put_u8(out, e.histogram.has_value() ? 1 : 0);
  if (e.histogram.has_value()) {
    const auto& h = *e.histogram;
    put_u32(out, static_cast<std::uint32_t>(h.bounds().size()));
    for (std::uint64_t b : h.bounds()) put_u64(out, b);
    put_u32(out, static_cast<std::uint32_t>(h.counts().size()));
    for (std::uint64_t c : h.counts()) put_u64(out, c);
    put_u64(out, h.sum());
    put_u64(out, h.count());
  }
  put_string(out, e.help);
}

void put_record(std::string& out, const WireRecord& r) {
  put_u8(out, static_cast<std::uint8_t>(r.response.kind));
  put_u8(out, r.response.icmp_code);
  put_u8(out, r.response.hop_limit);
  put_addr(out, r.response.responder);
  put_addr(out, r.response.probe_dst);
  put_u64(out, r.when);
  put_u64(out, r.raw_slot);
}

// ---- bounds-checked reader -------------------------------------------------

// A cursor over the payload: every read checks the remaining length and, on
// failure, records which field ran short. One error string per decode —
// the first failure wins.
class Reader {
 public:
  Reader(std::string_view data, std::string& error)
      : data_(data), error_(error) {}

  [[nodiscard]] bool read_u8(std::uint8_t& out, const char* field) {
    if (!need(1, field)) return false;
    out = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  [[nodiscard]] bool read_u32(std::uint32_t& out, const char* field) {
    if (!need(4, field)) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_++]))
             << (8 * i);
    }
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& out, const char* field) {
    if (!need(8, field)) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_++]))
             << (8 * i);
    }
    return true;
  }

  [[nodiscard]] bool read_addr(net::Ipv6Address& out, const char* field) {
    if (!need(16, field)) return false;
    std::array<std::uint8_t, 16> bytes{};
    for (auto& b : bytes) b = static_cast<std::uint8_t>(data_[pos_++]);
    out = net::Ipv6Address{bytes};
    return true;
  }

  [[nodiscard]] bool read_string(std::string& out, const char* field) {
    std::uint32_t len = 0;
    if (!read_u32(len, field)) return false;
    if (!need(len, field)) return false;
    out.assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  // A count prefix for fixed-size elements: rejected up front when the
  // remaining bytes cannot possibly hold `count` elements, so a corrupt
  // count can never drive allocation.
  [[nodiscard]] bool read_count(std::uint32_t& out, std::size_t elem_size,
                                const char* field) {
    if (!read_u32(out, field)) return false;
    if (remaining() / elem_size < out) {
      error_ = std::string("fabric frame: ") + field + " count " +
               std::to_string(out) + " exceeds remaining " +
               std::to_string(remaining()) + " bytes";
      return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool need(std::size_t n, const char* field) {
    if (remaining() >= n) return true;
    error_ = std::string("fabric frame: truncated ") + field + " (need " +
             std::to_string(n) + " bytes, have " +
             std::to_string(remaining()) + ")";
    return false;
  }

  std::string_view data_;
  std::string& error_;
  std::size_t pos_ = 0;
};

bool read_cursor(Reader& in, scan::ScanCursor& out, const char* field) {
  std::uint32_t specs = 0;
  if (!in.read_count(specs, 8, field)) return false;
  out.spec_steps.resize(specs);
  for (auto& steps : out.spec_steps) {
    if (!in.read_u64(steps, field)) return false;
  }
  return in.read_u64(out.frontier_slot, field);
}

bool read_stats(Reader& in, scan::ScanStats& s) {
  return in.read_u64(s.targets_generated, "stats") &&
         in.read_u64(s.blocked, "stats") && in.read_u64(s.sent, "stats") &&
         in.read_u64(s.received, "stats") &&
         in.read_u64(s.validated, "stats") &&
         in.read_u64(s.discarded, "stats") &&
         in.read_u64(s.retransmits, "stats") &&
         in.read_u64(s.duplicates, "stats") &&
         in.read_u64(s.corrupted, "stats") && in.read_u64(s.late, "stats") &&
         in.read_u64(s.rate_adjustments, "stats") &&
         in.read_u64(s.provenance_misses, "stats") &&
         in.read_u64(s.first_send, "stats") &&
         in.read_u64(s.last_send, "stats");
}

bool read_record(Reader& in, WireRecord& r, std::string& error) {
  std::uint8_t kind = 0;
  if (!in.read_u8(kind, "record kind")) return false;
  if (kind > static_cast<std::uint8_t>(scan::ResponseKind::kOther)) {
    error = "fabric frame: record kind " + std::to_string(kind) +
            " out of range";
    return false;
  }
  r.response.kind = static_cast<scan::ResponseKind>(kind);
  return in.read_u8(r.response.icmp_code, "record icmp_code") &&
         in.read_u8(r.response.hop_limit, "record hop_limit") &&
         in.read_addr(r.response.responder, "record responder") &&
         in.read_addr(r.response.probe_dst, "record probe_dst") &&
         in.read_u64(r.when, "record when") &&
         in.read_u64(r.raw_slot, "record raw_slot");
}

bool read_trace_string(Reader& in, const char*& out, const char* field,
                       std::string& error) {
  std::uint8_t flag = 0;
  if (!in.read_u8(flag, field)) return false;
  if (flag > 1) {
    error = std::string("fabric frame: ") + field + " presence flag " +
            std::to_string(flag) + " is not boolean";
    return false;
  }
  if (flag == 0) {
    out = nullptr;
    return true;
  }
  std::string s;
  if (!in.read_string(s, field)) return false;
  out = intern_trace_string(s);
  return true;
}

bool read_trace_event(Reader& in, obs::TraceEvent& e, std::string& error) {
  if (!(in.read_u64(e.ts, "trace ts") && in.read_u64(e.dur, "trace dur") &&
        read_trace_string(in, e.name, "trace name", error) &&
        read_trace_string(in, e.cat, "trace cat", error) &&
        read_trace_string(in, e.addr1_key, "trace addr1_key", error) &&
        in.read_addr(e.addr1, "trace addr1") &&
        read_trace_string(in, e.addr2_key, "trace addr2_key", error) &&
        in.read_addr(e.addr2, "trace addr2") &&
        read_trace_string(in, e.str_key, "trace str_key", error) &&
        read_trace_string(in, e.str_val, "trace str_val", error))) {
    return false;
  }
  // Serialized name/cat may legitimately be null-flagged only if the
  // emitter stored null; TraceEvent's defaults are "" — keep whatever came.
  if (e.name == nullptr) e.name = "";
  if (e.cat == nullptr) e.cat = "";
  for (auto* arg : {&e.i0, &e.i1, &e.i2}) {
    if (!read_trace_string(in, arg->key, "trace int key", error) ||
        !in.read_u64(arg->value, "trace int value")) {
      return false;
    }
  }
  return true;
}

bool read_metrics_entry(Reader& in, obs::MetricsSnapshot::Entry& e,
                        std::string& error) {
  if (!in.read_string(e.name, "metrics name")) return false;
  std::uint32_t labels = 0;
  if (!in.read_count(labels, 8, "metrics labels")) return false;
  e.labels.resize(labels);
  for (auto& [k, v] : e.labels) {
    if (!in.read_string(k, "metrics label key") ||
        !in.read_string(v, "metrics label value")) {
      return false;
    }
  }
  std::uint8_t kind = 0;
  if (!in.read_u8(kind, "metrics kind")) return false;
  if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
    error =
        "fabric frame: metrics kind " + std::to_string(kind) + " out of range";
    return false;
  }
  e.kind = static_cast<obs::MetricKind>(kind);
  std::uint8_t wall_clock = 0;
  if (!in.read_u8(wall_clock, "metrics wall_clock")) return false;
  if (wall_clock > 1) {
    error = "fabric frame: metrics wall_clock flag " +
            std::to_string(wall_clock) + " is not boolean";
    return false;
  }
  e.wall_clock = wall_clock == 1;
  if (!in.read_u64(e.value, "metrics value")) return false;
  std::uint8_t has_hist = 0;
  if (!in.read_u8(has_hist, "metrics histogram flag")) return false;
  if (has_hist > 1) {
    error = "fabric frame: metrics histogram flag " +
            std::to_string(has_hist) + " is not boolean";
    return false;
  }
  if (has_hist == 1) {
    std::uint32_t nbounds = 0;
    if (!in.read_count(nbounds, 8, "metrics histogram bounds")) return false;
    std::vector<std::uint64_t> bounds(nbounds);
    for (auto& b : bounds) {
      if (!in.read_u64(b, "metrics histogram bound")) return false;
    }
    std::uint32_t ncounts = 0;
    if (!in.read_count(ncounts, 8, "metrics histogram counts")) return false;
    if (ncounts != nbounds + 1) {
      error = "fabric frame: metrics histogram has " +
              std::to_string(ncounts) + " counts for " +
              std::to_string(nbounds) + " bounds";
      return false;
    }
    std::vector<std::uint64_t> counts(ncounts);
    for (auto& c : counts) {
      if (!in.read_u64(c, "metrics histogram count")) return false;
    }
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    if (!in.read_u64(sum, "metrics histogram sum") ||
        !in.read_u64(count, "metrics histogram total")) {
      return false;
    }
    e.histogram = obs::Histogram::from_parts(std::move(bounds),
                                             std::move(counts), sum, count);
  }
  return in.read_string(e.help, "metrics help");
}

}  // namespace

const char* intern_trace_string(std::string_view s) {
  static std::mutex mu;
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>;  // leaked: process lifetime
  std::lock_guard<std::mutex> lock(mu);
  return pool->emplace(s).first->c_str();
}

std::uint64_t frame_checksum(std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : payload) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string encode_frame(const Message& msg) {
  std::string payload;
  put_u8(payload, static_cast<std::uint8_t>(msg.type));
  put_u64(payload, msg.seq);
  put_u8(payload, msg.ctx_ver);
  if (msg.ctx_ver == kTraceCtxV1) {
    put_u64(payload, msg.trace_id);
    put_u64(payload, msg.parent_span);
  }
  switch (msg.type) {
    case MsgType::kHello:
    case MsgType::kHeartbeat:
      put_u32(payload, msg.worker);
      break;
    case MsgType::kAck:
      put_u64(payload, msg.ack_seq);
      break;
    case MsgType::kAssign:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, msg.shards_total);
      put_u64(payload, msg.budget_cut);
      put_u64(payload, msg.fingerprint);
      put_u8(payload, msg.has_resume ? 1 : 0);
      put_cursor(payload, msg.cursor);
      break;
    case MsgType::kRefuse:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_string(payload, msg.diagnostic);
      break;
    case MsgType::kRecords:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.records.size()));
      for (const auto& r : msg.records) put_record(payload, r);
      break;
    case MsgType::kCheckpoint:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_cursor(payload, msg.cursor);
      put_stats(payload, msg.stats);
      break;
    case MsgType::kShardDone:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_stats(payload, msg.stats);
      break;
    case MsgType::kBye:
      break;
    case MsgType::kObsTrace:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.trace_events.size()));
      for (const auto& e : msg.trace_events) put_trace_event(payload, e);
      break;
    case MsgType::kObsMetrics:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.metrics.entries.size()));
      for (const auto& e : msg.metrics.entries) put_metrics_entry(payload, e);
      break;
    case MsgType::kRejoin:
      put_u32(payload, msg.worker);
      put_u64(payload, msg.fingerprint);
      put_u8(payload, msg.has_lease ? 1 : 0);
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      break;
    case MsgType::kRejoinOk:
      put_u32(payload, msg.worker);
      break;
    case MsgType::kRejoinRefused:
      put_u32(payload, msg.worker);
      put_string(payload, msg.diagnostic);
      break;
  }

  std::string frame;
  frame.reserve(payload.size() + kFrameOverhead);
  put_u32(frame, kFrameMagic);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  put_u64(frame, frame_checksum(payload));
  return frame;
}

DecodeResult decode_frame(std::string_view frame) {
  DecodeResult out;
  if (frame.size() < kFrameOverhead + 1) {
    out.error = "fabric frame: " + std::to_string(frame.size()) +
                " bytes is shorter than the minimum frame";
    return out;
  }
  std::string header_error;
  Reader header{frame, header_error};
  std::uint32_t magic = 0;
  std::uint32_t payload_len = 0;
  (void)header.read_u32(magic, "magic");
  (void)header.read_u32(payload_len, "length");
  if (magic != kFrameMagic) {
    out.error = "fabric frame: bad magic";
    return out;
  }
  if (payload_len > kMaxPayload) {
    out.error = "fabric frame: payload length " + std::to_string(payload_len) +
                " exceeds the " + std::to_string(kMaxPayload) + "-byte cap";
    return out;
  }
  if (frame.size() != kFrameOverhead + payload_len) {
    out.error = "fabric frame: length prefix says " +
                std::to_string(kFrameOverhead + payload_len) +
                " bytes, frame is " + std::to_string(frame.size());
    return out;
  }
  const std::string_view payload = frame.substr(8, payload_len);
  std::string cksum_error;
  Reader tail{frame.substr(8 + payload_len), cksum_error};
  std::uint64_t stored = 0;
  (void)tail.read_u64(stored, "checksum");
  const std::uint64_t computed = frame_checksum(payload);
  if (stored != computed) {
    out.error = "fabric frame: checksum mismatch (stored " +
                std::to_string(stored) + ", computed " +
                std::to_string(computed) + ")";
    return out;
  }

  std::string error;
  Reader in{payload, error};
  Message msg;
  std::uint8_t type = 0;
  if (!in.read_u8(type, "type") || !in.read_u64(msg.seq, "seq") ||
      !in.read_u8(msg.ctx_ver, "trace-context version")) {
    out.error = std::move(error);
    return out;
  }
  if (msg.ctx_ver > kTraceCtxV1) {
    out.error = "fabric frame: unsupported trace-context version " +
                std::to_string(msg.ctx_ver);
    return out;
  }
  if (msg.ctx_ver == kTraceCtxV1 &&
      (!in.read_u64(msg.trace_id, "trace_id") ||
       !in.read_u64(msg.parent_span, "parent_span"))) {
    out.error = std::move(error);
    return out;
  }
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kRejoinRefused)) {
    out.error = "fabric frame: unknown message type " + std::to_string(type);
    return out;
  }
  msg.type = static_cast<MsgType>(type);

  bool ok = true;
  switch (msg.type) {
    case MsgType::kHello:
    case MsgType::kHeartbeat:
      ok = in.read_u32(msg.worker, "worker");
      break;
    case MsgType::kAck:
      ok = in.read_u64(msg.ack_seq, "ack_seq");
      break;
    case MsgType::kAssign: {
      std::uint8_t has_resume = 0;
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           in.read_u32(msg.shards_total, "shards_total") &&
           in.read_u64(msg.budget_cut, "budget_cut") &&
           in.read_u64(msg.fingerprint, "fingerprint") &&
           in.read_u8(has_resume, "has_resume") &&
           read_cursor(in, msg.cursor, "resume cursor");
      if (ok && has_resume > 1) {
        error = "fabric frame: has_resume flag " + std::to_string(has_resume) +
                " is not boolean";
        ok = false;
      }
      msg.has_resume = has_resume == 1;
      break;
    }
    case MsgType::kRefuse:
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           in.read_string(msg.diagnostic, "diagnostic");
      break;
    case MsgType::kRecords: {
      std::uint32_t count = 0;
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           in.read_count(count, kWireRecordBytes, "records");
      if (ok) {
        msg.records.resize(count);
        for (auto& r : msg.records) {
          if (!read_record(in, r, error)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
    case MsgType::kCheckpoint:
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           read_cursor(in, msg.cursor, "checkpoint cursor") &&
           read_stats(in, msg.stats);
      break;
    case MsgType::kShardDone:
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") && read_stats(in, msg.stats);
      break;
    case MsgType::kBye:
      break;
    case MsgType::kObsTrace: {
      std::uint32_t count = 0;
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           in.read_count(count, kWireTraceEventMinBytes, "trace events");
      if (ok) {
        msg.trace_events.resize(count);
        for (auto& e : msg.trace_events) {
          if (!read_trace_event(in, e, error)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
    case MsgType::kObsMetrics: {
      std::uint32_t count = 0;
      ok = in.read_u32(msg.shard, "shard") &&
           in.read_u32(msg.epoch, "epoch") &&
           in.read_count(count, kWireMetricsEntryMinBytes, "metrics entries");
      if (ok) {
        msg.metrics.entries.resize(count);
        for (auto& e : msg.metrics.entries) {
          if (!read_metrics_entry(in, e, error)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
    case MsgType::kRejoin: {
      std::uint8_t has_lease = 0;
      ok = in.read_u32(msg.worker, "worker") &&
           in.read_u64(msg.fingerprint, "fingerprint") &&
           in.read_u8(has_lease, "has_lease") &&
           in.read_u32(msg.shard, "shard") && in.read_u32(msg.epoch, "epoch");
      if (ok && has_lease > 1) {
        error = "fabric frame: has_lease flag " + std::to_string(has_lease) +
                " is not boolean";
        ok = false;
      }
      msg.has_lease = has_lease == 1;
      break;
    }
    case MsgType::kRejoinOk:
      ok = in.read_u32(msg.worker, "worker");
      break;
    case MsgType::kRejoinRefused:
      ok = in.read_u32(msg.worker, "worker") &&
           in.read_string(msg.diagnostic, "diagnostic");
      break;
  }
  if (!ok) {
    out.error = error.empty() ? "fabric frame: truncated body"
                              : std::move(error);
    return out;
  }
  if (in.remaining() != 0) {
    out.error = "fabric frame: " + std::to_string(in.remaining()) +
                " trailing bytes after " +
                std::string(msg_type_name(msg.type)) + " body";
    return out;
  }
  out.message = std::move(msg);
  return out;
}

}  // namespace xmap::fabric
