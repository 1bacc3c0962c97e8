#include "recover/state.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "netbase/random.h"

namespace xmap::recover {
namespace {

// Tokens are space-separated; anything that could contain a space, '%' or a
// newline (help strings, future label values) is percent-escaped. "-" is
// the reserved empty/null token.
std::string escape_token(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == ' ' || c == '%' || c == '\n' || c == '\r' || c == '\t') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_token(const std::string& s) {
  if (s == "-") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      out += static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

// Exact-round-trip double encoding (hexfloat).
std::string double_token(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = net::hash_combine64(h, static_cast<std::uint64_t>(
                                   static_cast<unsigned char>(c)));
  }
  return net::hash_combine64(h, s.size());
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  return net::hash_combine64(h, std::bit_cast<std::uint64_t>(v));
}

// TraceEvent strings must point at static storage; events parsed back from
// a checkpoint intern their strings in a process-lifetime pool. Node-based
// set: c_str() stays stable across inserts.
const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::unordered_set<std::string> pool;
  std::lock_guard lock{mu};
  return pool.insert(s).first->c_str();
}

// Line-oriented reader with a running line number for diagnostics.
struct Reader {
  std::istringstream in;
  int line_no = 0;
  std::string line;
  std::string error;

  explicit Reader(const std::string& text) : in(text) {}

  bool next_line() {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty()) return true;
    }
    return false;
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = "checkpoint line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  }
};

bool read_tok(std::istringstream& ls, std::string& out) {
  return static_cast<bool>(ls >> out);
}

bool read_u64(std::istringstream& ls, std::uint64_t& out) {
  std::string tok;
  if (!(ls >> tok)) return false;
  char* end = nullptr;
  out = std::strtoull(tok.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool read_int(std::istringstream& ls, int& out) {
  std::uint64_t v = 0;
  std::string tok;
  if (!(ls >> tok)) return false;
  if (!tok.empty() && tok[0] == '-') {
    out = std::atoi(tok.c_str());
    return true;
  }
  char* end = nullptr;
  v = std::strtoull(tok.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

bool read_double(std::istringstream& ls, double& out) {
  std::string tok;
  if (!(ls >> tok)) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool read_addr(std::istringstream& ls, net::Ipv6Address& out) {
  std::string tok;
  if (!(ls >> tok)) return false;
  const auto parsed = net::Ipv6Address::parse(tok);
  if (!parsed) return false;
  out = *parsed;
  return true;
}

// One trace-event argument string: "-" token or interned text.
const char* read_cstr(std::istringstream& ls, bool& ok) {
  std::string tok;
  if (!(ls >> tok)) {
    ok = false;
    return nullptr;
  }
  if (tok == "-") return nullptr;
  return intern(unescape_token(tok));
}

void append_field_diff(std::string& out, const char* field,
                       const std::string& a, const std::string& b) {
  if (!out.empty()) out += "; ";
  out += field;
  out += ": checkpoint ";
  out += a;
  out += ", run ";
  out += b;
}

template <typename T>
void diff_num(std::string& out, const char* field, const T& a, const T& b) {
  if (a != b) {
    std::ostringstream sa, sb;
    sa << a;
    sb << b;
    append_field_diff(out, field, sa.str(), sb.str());
  }
}

}  // namespace

std::string Fingerprint::diff(const Fingerprint& run) const {
  std::string out;
  diff_num(out, "seed", seed, run.seed);
  diff_num(out, "world", world, run.world);
  diff_num(out, "window_bits", window_bits, run.window_bits);
  diff_num(out, "probe_module", probe_module, run.probe_module);
  diff_num(out, "rate", rate_pps, run.rate_pps);
  diff_num(out, "shard", shard, run.shard);
  diff_num(out, "shards", shards, run.shards);
  diff_num(out, "threads", threads, run.threads);
  diff_num(out, "retries", retries, run.retries);
  diff_num(out, "retry_spacing_ms", retry_spacing_ms, run.retry_spacing_ms);
  diff_num(out, "cooldown_secs", cooldown_secs, run.cooldown_secs);
  diff_num(out, "max_probes", max_probes, run.max_probes);
  diff_num(out, "adaptive_rate", adaptive_rate, run.adaptive_rate);
  diff_num(out, "output_format", output_format, run.output_format);
  if (blocklist_hash != run.blocklist_hash) {
    append_field_diff(out, "blocklist",
                      std::to_string(blocklist_hash) + " (hash)",
                      std::to_string(run.blocklist_hash) + " (hash)");
  }
  if (fault_plan_hash != run.fault_plan_hash) {
    append_field_diff(out, "fault_plan",
                      std::to_string(fault_plan_hash) + " (hash)",
                      std::to_string(run.fault_plan_hash) + " (hash)");
  }
  if (targets != run.targets) {
    const auto join = [](const std::vector<std::string>& v) {
      std::string s;
      for (const auto& t : v) {
        if (!s.empty()) s += ",";
        s += t;
      }
      return s.empty() ? std::string{"(none)"} : s;
    };
    append_field_diff(out, "targets", join(targets), join(run.targets));
  }
  return out;
}

std::uint64_t fingerprint_hash(const Fingerprint& fp) {
  std::uint64_t h = 0x5846414250524f54ULL;  // "XFABPROT"
  h = net::hash_combine64(h, fp.seed);
  h = hash_string(h, fp.world);
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.window_bits));
  h = hash_string(h, fp.probe_module);
  h = hash_double(h, fp.rate_pps);
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.shard));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.shards));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.threads));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.retries));
  h = hash_double(h, fp.retry_spacing_ms);
  h = hash_double(h, fp.cooldown_secs);
  h = net::hash_combine64(h, fp.max_probes);
  h = net::hash_combine64(h, fp.adaptive_rate ? 1 : 0);
  h = hash_string(h, fp.output_format);
  h = net::hash_combine64(h, fp.blocklist_hash);
  h = net::hash_combine64(h, fp.fault_plan_hash);
  for (const auto& target : fp.targets) h = hash_string(h, target);
  return net::hash_combine64(h, fp.targets.size());
}

std::uint64_t blocklist_fingerprint(const scan::Blocklist& blocklist) {
  return blocklist.fingerprint();
}

std::uint64_t fault_plan_fingerprint(const sim::FaultPlan& plan) {
  const auto hash_link = [](std::uint64_t h, const sim::LinkFaultParams& p) {
    h = hash_double(h, p.loss);
    h = hash_double(h, p.burst.rate_per_sec);
    h = hash_double(h, p.burst.mean_ms);
    h = hash_double(h, p.burst.loss);
    h = hash_double(h, p.duplicate);
    h = hash_double(h, p.corrupt);
    h = hash_double(h, p.jitter_ms);
    h = hash_double(h, p.flap.period_ms);
    h = hash_double(h, p.flap.down_ms);
    h = hash_double(h, p.flap.fraction);
    return h;
  };
  std::uint64_t h = net::hash_combine64(0x9e3779b97f4a7c15ULL, plan.seed);
  h = hash_link(h, plan.access);
  h = hash_link(h, plan.core);
  h = hash_link(h, plan.other);
  h = hash_double(h, plan.silent.fraction);
  h = hash_double(h, plan.silent.start_ms);
  h = hash_double(h, plan.silent.duration_ms);
  return h;
}

std::string serialize_checkpoint(const CheckpointState& state) {
  std::ostringstream out;
  out << "xmap-checkpoint v" << state.version << "\n";
  out << "quiescent " << (state.quiescent ? 1 : 0) << "\n";
  out << "signal " << state.signal << "\n";

  const Fingerprint& fp = state.fingerprint;
  out << "fp seed " << fp.seed << "\n";
  out << "fp world " << escape_token(fp.world) << "\n";
  out << "fp window_bits " << fp.window_bits << "\n";
  out << "fp probe_module " << escape_token(fp.probe_module) << "\n";
  out << "fp rate " << double_token(fp.rate_pps) << "\n";
  out << "fp shard " << fp.shard << "\n";
  out << "fp shards " << fp.shards << "\n";
  out << "fp threads " << fp.threads << "\n";
  out << "fp retries " << fp.retries << "\n";
  out << "fp retry_spacing_ms " << double_token(fp.retry_spacing_ms) << "\n";
  out << "fp cooldown_secs " << double_token(fp.cooldown_secs) << "\n";
  out << "fp max_probes " << fp.max_probes << "\n";
  out << "fp adaptive_rate " << (fp.adaptive_rate ? 1 : 0) << "\n";
  out << "fp output_format " << escape_token(fp.output_format) << "\n";
  out << "fp blocklist " << fp.blocklist_hash << "\n";
  out << "fp faults " << fp.fault_plan_hash << "\n";
  out << "fp targets " << fp.targets.size() << "\n";
  for (const auto& t : fp.targets) {
    out << "fp target " << escape_token(t) << "\n";
  }

  const scan::ScanStats& s = state.stats;
  out << "stats " << s.targets_generated << " " << s.blocked << " " << s.sent
      << " " << s.received << " " << s.validated << " " << s.discarded << " "
      << s.retransmits << " " << s.duplicates << " " << s.corrupted << " "
      << s.late << " " << s.rate_adjustments << " " << s.first_send << " "
      << s.last_send << "\n";

  out << "cursors " << state.cursors.size() << "\n";
  for (const auto& cursor : state.cursors) {
    out << "cursor " << cursor.frontier_slot << " "
        << cursor.spec_steps.size();
    for (const std::uint64_t steps : cursor.spec_steps) out << " " << steps;
    out << "\n";
  }

  out << "records " << state.records.size() << "\n";
  for (const auto& record : state.records) {
    out << "r " << static_cast<int>(record.response.kind) << " "
        << record.response.responder.to_string() << " "
        << record.response.probe_dst.to_string() << " "
        << static_cast<unsigned>(record.response.icmp_code) << " "
        << static_cast<unsigned>(record.response.hop_limit) << " "
        << record.when << " " << record.shard << " " << record.raw_slot
        << "\n";
  }

  out << "obs " << (state.has_obs ? 1 : 0) << "\n";
  if (state.has_obs) {
    const auto cstr_token = [](const char* s) {
      return s == nullptr ? std::string{"-"} : escape_token(s);
    };
    out << "trace " << state.trace.size() << "\n";
    for (const auto& e : state.trace) {
      out << "t " << e.ts << " " << e.dur << " " << cstr_token(e.name) << " "
          << cstr_token(e.cat) << " " << cstr_token(e.addr1_key) << " "
          << e.addr1.to_string() << " " << cstr_token(e.addr2_key) << " "
          << e.addr2.to_string() << " " << cstr_token(e.str_key) << " "
          << cstr_token(e.str_val) << " " << cstr_token(e.i0.key) << " "
          << e.i0.value << " " << cstr_token(e.i1.key) << " " << e.i1.value
          << " " << cstr_token(e.i2.key) << " " << e.i2.value << "\n";
    }
    out << "metrics " << state.metrics.entries.size() << "\n";
    for (const auto& entry : state.metrics.entries) {
      out << "m " << static_cast<int>(entry.kind) << " "
          << (entry.wall_clock ? 1 : 0) << " " << escape_token(entry.name)
          << " " << entry.labels.size();
      for (const auto& [k, v] : entry.labels) {
        out << " " << escape_token(k) << " " << escape_token(v);
      }
      out << " " << escape_token(entry.help);
      if (entry.kind == obs::MetricKind::kHistogram && entry.histogram) {
        const obs::Histogram& h = *entry.histogram;
        out << " h " << h.bounds().size();
        for (const std::uint64_t b : h.bounds()) out << " " << b;
        for (const std::uint64_t c : h.counts()) out << " " << c;
        out << " " << h.sum() << " " << h.count();
      } else {
        out << " v " << entry.value;
      }
      out << "\n";
    }
  }
  out << "end\n";
  return out.str();
}

ParseResult parse_checkpoint(const std::string& text) {
  ParseResult result;
  Reader rd{text};
  CheckpointState state;

  const auto expect_line = [&rd](const char* head,
                                 std::istringstream& ls) -> bool {
    if (!rd.next_line()) return rd.fail(std::string{"missing '"} + head + "'");
    ls.str(rd.line);
    ls.clear();
    std::string tok;
    if (!(ls >> tok) || tok != head) {
      return rd.fail(std::string{"expected '"} + head + "', got '" + rd.line +
                     "'");
    }
    return true;
  };

  std::istringstream ls;
  // Header: "xmap-checkpoint v<version>".
  if (!rd.next_line() || rd.line.rfind("xmap-checkpoint v", 0) != 0) {
    rd.fail("not an xmap checkpoint (bad header)");
    result.error = rd.error;
    return result;
  }
  state.version = std::atoi(rd.line.c_str() + 17);
  if (state.version != kCheckpointVersion) {
    result.error = "unsupported checkpoint version v" +
                   std::to_string(state.version) + " (this build reads v" +
                   std::to_string(kCheckpointVersion) + ")";
    return result;
  }

  int flag = 0;
  if (!expect_line("quiescent", ls) || !read_int(ls, flag)) {
    rd.fail("bad 'quiescent'");
    result.error = rd.error;
    return result;
  }
  state.quiescent = flag != 0;
  if (!expect_line("signal", ls) || !read_int(ls, state.signal)) {
    rd.fail("bad 'signal'");
    result.error = rd.error;
    return result;
  }

  // Fingerprint block: "fp <field> <value>" lines in fixed order.
  Fingerprint& fp = state.fingerprint;
  const auto fp_line = [&](const char* field, auto&& read_value) -> bool {
    if (!expect_line("fp", ls)) return false;
    std::string name;
    if (!(ls >> name) || name != field) {
      return rd.fail(std::string{"expected fingerprint field '"} + field +
                     "'");
    }
    if (!read_value(ls)) {
      return rd.fail(std::string{"bad fingerprint value for '"} + field +
                     "'");
    }
    return true;
  };
  std::string tok;
  bool ok =
      fp_line("seed", [&](auto& s) { return read_u64(s, fp.seed); }) &&
      fp_line("world",
              [&](auto& s) {
                if (!read_tok(s, tok)) return false;
                fp.world = unescape_token(tok);
                return true;
              }) &&
      fp_line("window_bits",
              [&](auto& s) { return read_int(s, fp.window_bits); }) &&
      fp_line("probe_module",
              [&](auto& s) {
                if (!read_tok(s, tok)) return false;
                fp.probe_module = unescape_token(tok);
                return true;
              }) &&
      fp_line("rate", [&](auto& s) { return read_double(s, fp.rate_pps); }) &&
      fp_line("shard", [&](auto& s) { return read_int(s, fp.shard); }) &&
      fp_line("shards", [&](auto& s) { return read_int(s, fp.shards); }) &&
      fp_line("threads", [&](auto& s) { return read_int(s, fp.threads); }) &&
      fp_line("retries", [&](auto& s) { return read_int(s, fp.retries); }) &&
      fp_line("retry_spacing_ms",
              [&](auto& s) { return read_double(s, fp.retry_spacing_ms); }) &&
      fp_line("cooldown_secs",
              [&](auto& s) { return read_double(s, fp.cooldown_secs); }) &&
      fp_line("max_probes",
              [&](auto& s) { return read_u64(s, fp.max_probes); }) &&
      fp_line("adaptive_rate",
              [&](auto& s) {
                int v = 0;
                if (!read_int(s, v)) return false;
                fp.adaptive_rate = v != 0;
                return true;
              }) &&
      fp_line("output_format",
              [&](auto& s) {
                if (!read_tok(s, tok)) return false;
                fp.output_format = unescape_token(tok);
                return true;
              }) &&
      fp_line("blocklist",
              [&](auto& s) { return read_u64(s, fp.blocklist_hash); }) &&
      fp_line("faults",
              [&](auto& s) { return read_u64(s, fp.fault_plan_hash); });
  if (!ok) {
    result.error = rd.error;
    return result;
  }

  std::uint64_t count = 0;
  if (!expect_line("fp", ls) || !(ls >> tok) || tok != "targets" ||
      !read_u64(ls, count)) {
    rd.fail("bad 'fp targets'");
    result.error = rd.error;
    return result;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!expect_line("fp", ls) || !(ls >> tok) || tok != "target" ||
        !read_tok(ls, tok)) {
      rd.fail("bad 'fp target'");
      result.error = rd.error;
      return result;
    }
    fp.targets.push_back(unescape_token(tok));
  }

  scan::ScanStats& s = state.stats;
  if (!expect_line("stats", ls) || !read_u64(ls, s.targets_generated) ||
      !read_u64(ls, s.blocked) || !read_u64(ls, s.sent) ||
      !read_u64(ls, s.received) || !read_u64(ls, s.validated) ||
      !read_u64(ls, s.discarded) || !read_u64(ls, s.retransmits) ||
      !read_u64(ls, s.duplicates) || !read_u64(ls, s.corrupted) ||
      !read_u64(ls, s.late) || !read_u64(ls, s.rate_adjustments) ||
      !read_u64(ls, s.first_send) || !read_u64(ls, s.last_send)) {
    rd.fail("bad 'stats'");
    result.error = rd.error;
    return result;
  }

  if (!expect_line("cursors", ls) || !read_u64(ls, count)) {
    rd.fail("bad 'cursors'");
    result.error = rd.error;
    return result;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    scan::ScanCursor cursor;
    std::uint64_t nspecs = 0;
    if (!expect_line("cursor", ls) || !read_u64(ls, cursor.frontier_slot) ||
        !read_u64(ls, nspecs)) {
      rd.fail("bad 'cursor'");
      result.error = rd.error;
      return result;
    }
    for (std::uint64_t j = 0; j < nspecs; ++j) {
      std::uint64_t steps = 0;
      if (!read_u64(ls, steps)) {
        rd.fail("bad 'cursor' spec steps");
        result.error = rd.error;
        return result;
      }
      cursor.spec_steps.push_back(steps);
    }
    state.cursors.push_back(std::move(cursor));
  }

  if (!expect_line("records", ls) || !read_u64(ls, count)) {
    rd.fail("bad 'records'");
    result.error = rd.error;
    return result;
  }
  state.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    scan::ScanRecord record;
    int kind = 0;
    int icmp_code = 0;
    int hop_limit = 0;
    if (!expect_line("r", ls) || !read_int(ls, kind) ||
        !read_addr(ls, record.response.responder) ||
        !read_addr(ls, record.response.probe_dst) ||
        !read_int(ls, icmp_code) || !read_int(ls, hop_limit) ||
        !read_u64(ls, record.when) || !read_int(ls, record.shard) ||
        !read_u64(ls, record.raw_slot)) {
      rd.fail("bad record");
      result.error = rd.error;
      return result;
    }
    record.response.kind = static_cast<scan::ResponseKind>(kind);
    record.response.icmp_code = static_cast<std::uint8_t>(icmp_code);
    record.response.hop_limit = static_cast<std::uint8_t>(hop_limit);
    state.records.push_back(record);
  }

  if (!expect_line("obs", ls) || !read_int(ls, flag)) {
    rd.fail("bad 'obs'");
    result.error = rd.error;
    return result;
  }
  state.has_obs = flag != 0;
  if (state.has_obs) {
    if (!expect_line("trace", ls) || !read_u64(ls, count)) {
      rd.fail("bad 'trace'");
      result.error = rd.error;
      return result;
    }
    state.trace.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      obs::TraceEvent e;
      bool str_ok = true;
      if (!expect_line("t", ls) || !read_u64(ls, e.ts) ||
          !read_u64(ls, e.dur)) {
        rd.fail("bad trace event");
        result.error = rd.error;
        return result;
      }
      const char* name = read_cstr(ls, str_ok);
      const char* cat = read_cstr(ls, str_ok);
      e.name = name != nullptr ? name : "";
      e.cat = cat != nullptr ? cat : "";
      e.addr1_key = read_cstr(ls, str_ok);
      if (!str_ok || !read_addr(ls, e.addr1)) {
        rd.fail("bad trace event addr1");
        result.error = rd.error;
        return result;
      }
      e.addr2_key = read_cstr(ls, str_ok);
      if (!str_ok || !read_addr(ls, e.addr2)) {
        rd.fail("bad trace event addr2");
        result.error = rd.error;
        return result;
      }
      e.str_key = read_cstr(ls, str_ok);
      e.str_val = read_cstr(ls, str_ok);
      e.i0.key = read_cstr(ls, str_ok);
      if (!str_ok || !read_u64(ls, e.i0.value)) {
        rd.fail("bad trace event i0");
        result.error = rd.error;
        return result;
      }
      e.i1.key = read_cstr(ls, str_ok);
      if (!str_ok || !read_u64(ls, e.i1.value)) {
        rd.fail("bad trace event i1");
        result.error = rd.error;
        return result;
      }
      e.i2.key = read_cstr(ls, str_ok);
      if (!str_ok || !read_u64(ls, e.i2.value)) {
        rd.fail("bad trace event i2");
        result.error = rd.error;
        return result;
      }
      state.trace.push_back(e);
    }

    if (!expect_line("metrics", ls) || !read_u64(ls, count)) {
      rd.fail("bad 'metrics'");
      result.error = rd.error;
      return result;
    }
    state.metrics.entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      obs::MetricsSnapshot::Entry entry;
      int kind = 0;
      std::uint64_t nlabels = 0;
      if (!expect_line("m", ls) || !read_int(ls, kind) ||
          !read_int(ls, flag) || !read_tok(ls, tok) ||
          !read_u64(ls, nlabels)) {
        rd.fail("bad metric entry");
        result.error = rd.error;
        return result;
      }
      entry.kind = static_cast<obs::MetricKind>(kind);
      entry.wall_clock = flag != 0;
      entry.name = unescape_token(tok);
      for (std::uint64_t j = 0; j < nlabels; ++j) {
        std::string k, v;
        if (!read_tok(ls, k) || !read_tok(ls, v)) {
          rd.fail("bad metric labels");
          result.error = rd.error;
          return result;
        }
        entry.labels.emplace_back(unescape_token(k), unescape_token(v));
      }
      std::string marker;
      if (!read_tok(ls, tok) || !read_tok(ls, marker)) {
        rd.fail("bad metric help/marker");
        result.error = rd.error;
        return result;
      }
      entry.help = unescape_token(tok);
      if (marker == "v") {
        if (!read_u64(ls, entry.value)) {
          rd.fail("bad metric value");
          result.error = rd.error;
          return result;
        }
      } else if (marker == "h") {
        std::uint64_t nbounds = 0;
        if (!read_u64(ls, nbounds)) {
          rd.fail("bad histogram bounds count");
          result.error = rd.error;
          return result;
        }
        std::vector<std::uint64_t> bounds(nbounds);
        std::vector<std::uint64_t> counts(nbounds + 1);
        std::uint64_t sum = 0;
        std::uint64_t n = 0;
        bool nums_ok = true;
        for (auto& b : bounds) nums_ok = nums_ok && read_u64(ls, b);
        for (auto& c : counts) nums_ok = nums_ok && read_u64(ls, c);
        nums_ok = nums_ok && read_u64(ls, sum) && read_u64(ls, n);
        if (!nums_ok) {
          rd.fail("bad histogram data");
          result.error = rd.error;
          return result;
        }
        entry.histogram = obs::Histogram::from_parts(
            std::move(bounds), std::move(counts), sum, n);
      } else {
        rd.fail("unknown metric marker '" + marker + "'");
        result.error = rd.error;
        return result;
      }
      state.metrics.entries.push_back(std::move(entry));
    }
  }

  if (!expect_line("end", ls)) {
    rd.fail("missing 'end' (truncated checkpoint)");
    result.error = rd.error;
    return result;
  }

  result.state = std::move(state);
  return result;
}

}  // namespace xmap::recover
