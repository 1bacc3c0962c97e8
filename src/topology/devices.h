// Simulated network devices: generic routers, CPE routers, UE devices and
// LAN hosts.
//
// These nodes implement the RFC behaviours the paper's technique rests on:
//
//  * RFC 4443: a router (or the IPv6 layer of an end device) that cannot
//    deliver a packet responds with Destination Unreachable; hop-limit
//    expiry produces Time Exceeded; ICMPv6 error generation is rate-limited.
//  * RFC 7084 (WAA-*): a CPE router receives a delegated prefix and must
//    null-route the portion it did not assign to its LAN. The widespread
//    bug of Section VI is a CPE that instead matches such packets against
//    its default route, bouncing them back at the ISP — that behaviour is a
//    per-device configuration flag here, interpreted by the same forwarding
//    code that implements the patched behaviour.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "netbase/iid.h"
#include "netbase/pool.h"
#include "services/service_host.h"
#include "sim/network.h"
#include "topology/provisioning.h"
#include "topology/routing_table.h"

namespace xmap::topo {

// RFC 4443 §2.4(f) token-bucket limiter for ICMPv6 error origination.
class IcmpRateLimiter {
 public:
  // `rate_per_sec` == 0 disables limiting entirely.
  explicit IcmpRateLimiter(std::uint32_t rate_per_sec = 0,
                           std::uint32_t burst = 10)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst) {}

  // Returns true when an error message may be originated at sim time `now`.
  [[nodiscard]] bool allow(sim::SimTime now);

  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

 private:
  std::uint32_t rate_;
  std::uint32_t burst_;
  double tokens_;
  sim::SimTime last_ = 0;
  std::uint64_t suppressed_ = 0;
};

// Per-device traffic counters, read by tests and experiment harnesses.
struct DeviceCounters {
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered_local = 0;
  std::uint64_t unreachable_sent = 0;
  std::uint64_t time_exceeded_sent = 0;
  std::uint64_t echo_replies_sent = 0;
  std::uint64_t dropped = 0;
};

// ---------------------------------------------------------------------------
// Generic router: routing table + RFC 4443 error generation. Used for the
// transit core and for ISP edge routers.
// ---------------------------------------------------------------------------
class Router : public sim::Node {
 public:
  // How the router sources Destination Unreachable errors for unroutable
  // space. Big aggregation devices (CMTS/BNG line cards) often answer from
  // per-flow interface addresses spread over a handful of infrastructure
  // /64s — the behaviour behind the paper's Table II ISPs whose "last
  // hops" vastly outnumber their unique /64 prefixes (Comcast: 87k hops,
  // 5.7k /64s, 95% EUI-64).
  enum class ErrorSource : std::uint8_t {
    kRouterAddress,  // errors come from the router's own address
    kPerFlowInfra,   // errors come from hash(dst)-derived infra addresses
  };

  struct Config {
    net::Ipv6Address address;  // the router's own (loopback/interface) address
    // What to do with packets matching no route at all:
    RouteAction no_route_action = RouteAction::kBlackhole;
    std::uint32_t icmp_rate_per_sec = 0;  // 0 = unlimited
    std::uint32_t icmp_burst = 10;

    ErrorSource error_source = ErrorSource::kRouterAddress;
    // kPerFlowInfra parameters: the /64 pool the per-flow addresses are
    // drawn from, its size, the IID style of the derived addresses, and
    // (for EUI-64) the OUI of the synthesised MACs.
    net::Ipv6Prefix infra_pool;  // a prefix carved into infra_pool_64s /64s
    int infra_pool_64s = 4;
    net::IidStyle infra_iid_style = net::IidStyle::kRandomized;
    std::uint32_t infra_oui = 0;
    // Fraction of unreachable-eligible packets actually answered
    // (deterministic per destination); models partial upstream filtering.
    double unreachable_answer_fraction = 1.0;
  };

  explicit Router(Config config)
      : config_(std::move(config)),
        limiter_(config_.icmp_rate_per_sec, config_.icmp_burst) {}

  [[nodiscard]] RoutingTable& table() { return table_; }
  [[nodiscard]] const RoutingTable& table() const { return table_; }

  // Attaches the ISP provisioning plane (SLAAC RAs + DHCPv6-PD server);
  // consulted before forwarding, as a BNG terminates these protocols.
  // Not owned; must outlive the router.
  void set_provisioner(Provisioner* provisioner) {
    provisioner_ = provisioner;
  }
  [[nodiscard]] const net::Ipv6Address& address() const {
    return config_.address;
  }
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }

  void receive(pkt::Bytes packet, int iface) override;

  // Stamp-pure unless the ICMPv6 token bucket is live (its refill depends
  // on inter-arrival order across links) or a provisioning plane is
  // attached (allocations follow request order).
  [[nodiscard]] bool time_sensitive() const override {
    return config_.icmp_rate_per_sec > 0 || provisioner_ != nullptr;
  }

  // Compile the LC-trie forwarding index up front; lazily it would build
  // on the first lookup, inside the measured scan.
  void prepare_run() override { table_.compile(); }

 protected:
  // Local delivery hook; the base answers ICMPv6 echo.
  virtual void deliver_local(const pkt::Bytes& packet, int iface);

  void send_error(pkt::Icmpv6Type type, std::uint8_t code,
                  const pkt::Bytes& invoking, int iface);
  void emit(int iface, pkt::Bytes packet) { send(iface, std::move(packet)); }

  Config config_;
  RoutingTable table_;
  IcmpRateLimiter limiter_;
  DeviceCounters counters_;
  Provisioner* provisioner_ = nullptr;
};

// ---------------------------------------------------------------------------
// CPE router (home router / gateway), Figure 1a.
// ---------------------------------------------------------------------------
class CpeRouter : public sim::Node {
 public:
  struct Config {
    net::Ipv6Prefix wan_prefix;     // /64 point-to-point subnet with the ISP
    net::Ipv6Address wan_address;   // inside wan_prefix
    net::Ipv6Prefix lan_prefix;     // delegated (/56, /60 or /64)
    net::Ipv6Prefix subnet_prefix;  // /64 actually advertised on the LAN
    // Vulnerability flags (Section VI): true = the not-used space follows
    // the default route instead of an unreachable route.
    bool loop_wan = false;
    bool loop_lan = false;
    // Some firmware (OpenWrt & friends in Table XII) stops forwarding a
    // looping flow after ~10 rounds; <0 = no cap (loops until hop limit).
    int loop_cap = -1;
    std::uint32_t icmp_rate_per_sec = 0;  // 0 = unlimited
    std::uint32_t icmp_burst = 10;
  };

  explicit CpeRouter(Config config)
      : config_(std::move(config)),
        limiter_(config_.icmp_rate_per_sec, config_.icmp_burst) {}

  // --- Provisioning client (SLAAC + DHCPv6-PD) ---------------------------
  // When enabled, the CPE boots unconfigured and acquires its WAN prefix
  // from a Router Advertisement and its delegated LAN prefix over
  // DHCPv6-PD, then self-configures exactly as the direct constructor path
  // would have. `iid` forms the WAN address; `subnet_index` picks which /64
  // of the delegation is advertised to the LAN.
  struct ProvisionParams {
    std::uint64_t iid = 1;
    std::uint64_t subnet_index = 0;
  };
  // Sends the Router Solicitation; the rest of the exchange is driven by
  // the replies. Call after the WAN link is connected.
  void begin_provisioning(const ProvisionParams& params);
  // The same, from a timer at the current sim time (a provisioning kick
  // queued while the world is still being built).
  void schedule_provisioning(const ProvisionParams& params) {
    provision_params_ = params;
    schedule_timer(network()->now(), 0);
  }
  void on_timer(std::uint64_t /*tag*/) override {
    begin_provisioning(provision_params_);
  }
  [[nodiscard]] bool provisioned() const { return provision_done_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const net::Ipv6Address& wan_address() const {
    return config_.wan_address;
  }
  [[nodiscard]] svc::ServiceHost& services() { return services_; }
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }

  // LAN-side state: addresses that exist behind the router. Delivery to
  // them is forwarded onto the LAN interface when one is connected.
  void add_lan_host(const net::Ipv6Address& addr) { lan_hosts_.insert(addr); }
  void set_lan_iface(int iface) { lan_iface_ = iface; }

  // Applies the RFC 7084 mitigation: install unreachable routes for the
  // delegated-but-unassigned space (used by the mitigation experiments).
  void install_unreachable_routes() {
    config_.loop_wan = false;
    config_.loop_lan = false;
  }

  // Mitigation #2 of the paper's §VII: filter probe-elicited ICMPv6 on the
  // periphery. A filtered device silently drops instead of answering with
  // echo replies or Destination Unreachable — and becomes invisible to the
  // discovery technique.
  void set_icmp_filtered(bool filtered) { icmp_filtered_ = filtered; }
  [[nodiscard]] bool icmp_filtered() const { return icmp_filtered_; }

  void receive(pkt::Bytes packet, int iface) override;

  // Stamp-pure unless rate-limiting ICMPv6 errors or provisioned over the
  // wire (the DHCPv6-PD exchange is a stateful protocol conversation).
  [[nodiscard]] bool time_sensitive() const override {
    return config_.icmp_rate_per_sec > 0 || provision_active_ ||
           provision_done_;
  }

 private:
  static constexpr int kWanIface = 0;

  void deliver_local(const pkt::Bytes& packet);
  void forward_wan(pkt::Bytes packet, bool looping);
  void send_error(pkt::Icmpv6Type type, std::uint8_t code,
                  const pkt::Bytes& invoking);

  Config config_;
  IcmpRateLimiter limiter_;
  svc::ServiceHost services_;
  DeviceCounters counters_;
  std::unordered_set<net::Ipv6Address> lan_hosts_;
  int lan_iface_ = -1;
  bool icmp_filtered_ = false;
  // Loop-cap bookkeeping: forwards per flow key (hash of src/dst).
  net::PoolMap<std::uint64_t, int> loop_counts_;

  // Provisioning-client state.
  [[nodiscard]] bool handle_provisioning(const pkt::Bytes& packet);
  bool provision_active_ = false;
  bool provision_done_ = false;
  ProvisionParams provision_params_;
  net::Ipv6Address link_local_;
};

// ---------------------------------------------------------------------------
// UE device (smartphone with a delegated /64), Figure 1b.
// ---------------------------------------------------------------------------
class UeDevice : public sim::Node {
 public:
  struct Config {
    net::Ipv6Prefix ue_prefix;    // the delegated /64
    net::Ipv6Address ue_address;  // inside ue_prefix
    std::uint32_t icmp_rate_per_sec = 0;
    std::uint32_t icmp_burst = 10;
  };

  explicit UeDevice(Config config)
      : config_(std::move(config)),
        limiter_(config_.icmp_rate_per_sec, config_.icmp_burst) {}

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] svc::ServiceHost& services() { return services_; }
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }

  void set_icmp_filtered(bool filtered) { icmp_filtered_ = filtered; }

  void receive(pkt::Bytes packet, int iface) override;

  [[nodiscard]] bool time_sensitive() const override {
    return config_.icmp_rate_per_sec > 0;
  }

 private:
  Config config_;
  IcmpRateLimiter limiter_;
  svc::ServiceHost services_;
  DeviceCounters counters_;
  bool icmp_filtered_ = false;
};

// ---------------------------------------------------------------------------
// Aliased prefix: a host (or middlebox) that answers ICMPv6 echo for EVERY
// address of a whole prefix — hosting providers and CDNs do this, and it is
// why the paper reports "unique, non-aliased" last hops. Each probe gets an
// echo reply sourced from the probed address itself, so naive counting sees
// one fake device per probe; alias detection (analysis/alias_detection.h)
// exists to strip these.
// ---------------------------------------------------------------------------
class AliasedPrefixHost : public sim::Node {
 public:
  explicit AliasedPrefixHost(net::Ipv6Prefix prefix) : prefix_(prefix) {}

  [[nodiscard]] const net::Ipv6Prefix& prefix() const { return prefix_; }
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }

  void receive(pkt::Bytes packet, int iface) override;

  // Pure function of the probed address: bulk-safe.
  [[nodiscard]] bool time_sensitive() const override { return false; }

 private:
  net::Ipv6Prefix prefix_;
  DeviceCounters counters_;
};

// ---------------------------------------------------------------------------
// Plain LAN host: answers echo on its single address.
// ---------------------------------------------------------------------------
class LanHost : public sim::Node {
 public:
  explicit LanHost(net::Ipv6Address address) : address_(address) {}

  [[nodiscard]] const net::Ipv6Address& address() const { return address_; }
  [[nodiscard]] svc::ServiceHost& services() { return services_; }
  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }

  void receive(pkt::Bytes packet, int iface) override;

  // Echo + stateless services (keyed-hash sequence numbers): bulk-safe.
  [[nodiscard]] bool time_sensitive() const override { return false; }

 private:
  net::Ipv6Address address_;
  svc::ServiceHost services_;
  DeviceCounters counters_;
};

}  // namespace xmap::topo
