#include "xmap/output.h"

#include <charconv>
#include <cstring>

namespace xmap::scan {
namespace {

// Longest record either writer emits: two 39-char addresses, a 13-char
// kind name, two 3-digit bytes, a 20-digit timestamp and the JSON keys
// come to 202 chars.
constexpr std::size_t kRecordBufBytes = 256;

char* put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

char* put(char* out, std::uint64_t v) {
  return std::to_chars(out, out + 20, v).ptr;
}

}  // namespace

void CsvWriter::begin() {
  out_ << "saddr,probe_dst,classification,icmp_code,hlim,timestamp_us\n";
}

// Each record is formatted into a stack buffer and handed to the stream in
// one write: no per-field stream insert, no per-address string.
void CsvWriter::record(const ProbeResponse& response, sim::SimTime when) {
  char buf[kRecordBufBytes];
  char* p = response.responder.format_to(buf);
  *p++ = ',';
  p = response.probe_dst.format_to(p);
  *p++ = ',';
  p = put(p, response_kind_name(response.kind));
  *p++ = ',';
  p = put(p, response.icmp_code);
  *p++ = ',';
  p = put(p, response.hop_limit);
  *p++ = ',';
  p = put(p, when / sim::kMicrosecond);
  *p++ = '\n';
  out_.write(buf, p - buf);
}

void JsonlWriter::record(const ProbeResponse& response, sim::SimTime when) {
  // All emitted values are addresses, enum names and integers — no JSON
  // string escaping is required for this fixed vocabulary.
  char buf[kRecordBufBytes];
  char* p = put(buf, "{\"saddr\":\"");
  p = response.responder.format_to(p);
  p = put(p, "\",\"probe_dst\":\"");
  p = response.probe_dst.format_to(p);
  p = put(p, "\",\"classification\":\"");
  p = put(p, response_kind_name(response.kind));
  p = put(p, "\",\"icmp_code\":");
  p = put(p, response.icmp_code);
  p = put(p, ",\"hlim\":");
  p = put(p, response.hop_limit);
  p = put(p, ",\"timestamp_us\":");
  p = put(p, when / sim::kMicrosecond);
  p = put(p, "}\n");
  out_.write(buf, p - buf);
}

std::unique_ptr<ResultWriter> make_writer(const std::string& format,
                                          std::ostream& out) {
  if (format == "csv") return std::make_unique<CsvWriter>(out);
  if (format == "jsonl" || format == "json") {
    return std::make_unique<JsonlWriter>(out);
  }
  return nullptr;
}

}  // namespace xmap::scan
