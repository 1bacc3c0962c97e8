// Pluggable probe modules.
//
// A probe module owns one scanning technique: it crafts the probe packet
// for a target and classifies+validates response packets. Validation is
// stateless, the ZMap design XMap inherits: every mutable field the prober
// controls (ICMP ident/seq, TCP source port and sequence number, UDP source
// port) is a keyed hash of the probed address, so a response — including an
// ICMPv6 error quoting the probe — can be checked without keeping one word
// of per-probe state. Spoofed or stale packets fail the hash check.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "packet/packet.h"

namespace xmap::scan {

// What a (validated) response tells us.
enum class ResponseKind : std::uint8_t {
  kEchoReply,        // target address itself is alive
  kDestUnreachable,  // a last-hop device reported unreachability
  kTimeExceeded,     // hop limit expired (loop indicator in our usage)
  kTcpSynAck,        // TCP port open
  kTcpRst,           // TCP port closed
  kUdpData,          // UDP application data came back
  kOther,
};

[[nodiscard]] constexpr const char* response_kind_name(ResponseKind k) {
  switch (k) {
    case ResponseKind::kEchoReply: return "echo-reply";
    case ResponseKind::kDestUnreachable: return "dest-unreach";
    case ResponseKind::kTimeExceeded: return "time-exceeded";
    case ResponseKind::kTcpSynAck: return "syn-ack";
    case ResponseKind::kTcpRst: return "rst";
    case ResponseKind::kUdpData: return "udp-data";
    case ResponseKind::kOther: return "other";
  }
  return "?";
}

struct ProbeResponse {
  ResponseKind kind = ResponseKind::kOther;
  net::Ipv6Address responder;  // the packet's source (last hop for errors)
  net::Ipv6Address probe_dst;  // the original probed address (recovered)
  std::uint8_t icmp_code = 0;  // for ICMPv6 errors
  std::uint8_t hop_limit = 0;  // received hop limit (distance signal)

  friend bool operator==(const ProbeResponse&, const ProbeResponse&) = default;
};

// A worker-cached probe frame: built once per scan via make_template(),
// then re-aimed per target by patch_probe(), which rewrites only the
// destination address and the keyed validation fields (ident/seq, ports,
// TCP sequence — XMap's flow-label/payload-cookie analogues) and rebuilds
// the upper-layer checksum incrementally from a precomputed partial sum.
// The patched frame is byte-identical to what make_probe() would build
// from scratch.
class ProbeTemplate {
 public:
  ProbeTemplate() = default;

  [[nodiscard]] const pkt::Bytes& frame() const { return frame_; }
  [[nodiscard]] bool valid() const { return !frame_.empty(); }

 private:
  friend class ProbeModule;
  friend class IcmpEchoProbe;
  friend class TcpSynProbe;
  friend class UdpProbe;

  pkt::Bytes frame_;
  // Folded ones-complement sum of the checksum coverage (pseudo-header +
  // L4) with every per-target word — destination address, keyed fields,
  // checksum itself — taken as zero. The ones-complement sum is
  // order-independent, so a patch only adds the new destination and keyed
  // words to this base; the old values never need to be read back. Kept
  // pre-complement and unmapped (UDP transmits a computed 0 as 0xffff,
  // RFC 8200 §8.1), the per-patch cost is one 16-byte accumulate plus a
  // handful of word adds.
  std::uint32_t l4_acc_ = 0;
};

class ProbeModule {
 public:
  virtual ~ProbeModule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Crafts the probe for `target`, sourced from `src`, keyed by `seed`.
  [[nodiscard]] virtual pkt::Bytes make_probe(const net::Ipv6Address& src,
                                              const net::Ipv6Address& target,
                                              std::uint64_t seed) const = 0;

  // Builds the reusable frame for the scan hot path. The default
  // implementation (and any custom module that doesn't override
  // patch_probe) falls back to a full rebuild per target, so modules stay
  // correct without opting in.
  [[nodiscard]] virtual ProbeTemplate make_template(
      const net::Ipv6Address& src, std::uint64_t seed) const;

  // Re-aims `tmpl` at `target` in place. Postcondition: tmpl.frame() ==
  // make_probe(src, target, seed) for the src/seed the template was built
  // with (asserted by tests/xmap/probe_template_test.cc).
  virtual void patch_probe(ProbeTemplate& tmpl, const net::Ipv6Address& src,
                           const net::Ipv6Address& target,
                           std::uint64_t seed) const;

  // Validates and classifies an inbound packet. nullopt = not a response to
  // this scan (wrong protocol, failed validation, stray traffic).
  [[nodiscard]] virtual std::optional<ProbeResponse> classify(
      const pkt::Bytes& packet, const net::Ipv6Address& src,
      std::uint64_t seed) const = 0;
};

// ICMPv6 Echo probing — the paper's periphery-discovery module. The probe's
// identifier and sequence are keyed hashes of the destination; for ICMPv6
// errors the quoted invoking packet is parsed and re-validated.
class IcmpEchoProbe final : public ProbeModule {
 public:
  explicit IcmpEchoProbe(std::uint8_t hop_limit = pkt::kDefaultHopLimit)
      : hop_limit_(hop_limit) {}

  [[nodiscard]] std::string name() const override { return "icmpv6_echo"; }
  [[nodiscard]] pkt::Bytes make_probe(const net::Ipv6Address& src,
                                      const net::Ipv6Address& target,
                                      std::uint64_t seed) const override;
  [[nodiscard]] ProbeTemplate make_template(const net::Ipv6Address& src,
                                            std::uint64_t seed) const override;
  void patch_probe(ProbeTemplate& tmpl, const net::Ipv6Address& src,
                   const net::Ipv6Address& target,
                   std::uint64_t seed) const override;
  [[nodiscard]] std::optional<ProbeResponse> classify(
      const pkt::Bytes& packet, const net::Ipv6Address& src,
      std::uint64_t seed) const override;

  [[nodiscard]] std::uint8_t hop_limit() const { return hop_limit_; }

 private:
  std::uint8_t hop_limit_;
};

// TCP SYN probing (port scan module).
class TcpSynProbe final : public ProbeModule {
 public:
  explicit TcpSynProbe(std::uint16_t port) : port_(port) {}

  [[nodiscard]] std::string name() const override { return "tcp_syn"; }
  [[nodiscard]] pkt::Bytes make_probe(const net::Ipv6Address& src,
                                      const net::Ipv6Address& target,
                                      std::uint64_t seed) const override;
  [[nodiscard]] ProbeTemplate make_template(const net::Ipv6Address& src,
                                            std::uint64_t seed) const override;
  void patch_probe(ProbeTemplate& tmpl, const net::Ipv6Address& src,
                   const net::Ipv6Address& target,
                   std::uint64_t seed) const override;
  [[nodiscard]] std::optional<ProbeResponse> classify(
      const pkt::Bytes& packet, const net::Ipv6Address& src,
      std::uint64_t seed) const override;

 private:
  std::uint16_t port_;
};

// UDP probing with a fixed application payload (DNS/NTP modules are built
// on this with the payload supplied by the caller).
class UdpProbe final : public ProbeModule {
 public:
  UdpProbe(std::uint16_t port, pkt::Bytes payload, std::string module_name)
      : port_(port), payload_(std::move(payload)),
        name_(std::move(module_name)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] pkt::Bytes make_probe(const net::Ipv6Address& src,
                                      const net::Ipv6Address& target,
                                      std::uint64_t seed) const override;
  [[nodiscard]] ProbeTemplate make_template(const net::Ipv6Address& src,
                                            std::uint64_t seed) const override;
  void patch_probe(ProbeTemplate& tmpl, const net::Ipv6Address& src,
                   const net::Ipv6Address& target,
                   std::uint64_t seed) const override;
  [[nodiscard]] std::optional<ProbeResponse> classify(
      const pkt::Bytes& packet, const net::Ipv6Address& src,
      std::uint64_t seed) const override;

 private:
  std::uint16_t port_;
  pkt::Bytes payload_;
  std::string name_;
};

// Stateless validation tags shared by the modules (exposed for tests).
[[nodiscard]] std::uint16_t probe_tag16(const net::Ipv6Address& dst,
                                        std::uint64_t seed, int salt);
[[nodiscard]] std::uint32_t probe_tag32(const net::Ipv6Address& dst,
                                        std::uint64_t seed, int salt);

}  // namespace xmap::scan
