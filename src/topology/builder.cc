#include "topology/builder.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace xmap::topo {
namespace {

// Samples `count` distinct slot indices out of [0, slots) — a partial
// Fisher-Yates over an index vector.
std::vector<std::uint32_t> sample_slots(std::uint32_t slots,
                                        std::uint32_t count, net::Rng& rng) {
  std::vector<std::uint32_t> all(slots);
  std::iota(all.begin(), all.end(), 0u);
  count = std::min(count, slots);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t j =
        i + static_cast<std::uint32_t>(rng.uniform(slots - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

net::IidStyle pick_style(const double (&weights)[net::kIidStyleCount],
                         net::Rng& rng) {
  return static_cast<net::IidStyle>(
      rng.pick_weighted(std::span<const double>{weights}));
}

VendorId pick_vendor(const std::vector<std::pair<VendorId, double>>& mix,
                     net::Rng& rng) {
  std::vector<double> weights;
  weights.reserve(mix.size());
  for (const auto& [id, w] : mix) weights.push_back(w);
  return mix[rng.pick_weighted(weights)].first;
}

// Service deployment correlates with addressing style: modern SLAAC devices
// (EUI-64, randomized) carry the exposed service stacks, while byte-pattern
// and embed-IPv4 addresses — typically older or manually-addressed gear —
// almost never do (the paper's Table V vs Table III contrast).
double service_style_factor(net::IidStyle style) {
  switch (style) {
    case net::IidStyle::kEui64: return 1.0;
    case net::IidStyle::kRandomized: return 1.0;
    case net::IidStyle::kLowByte: return 0.3;
    case net::IidStyle::kEmbedIpv4: return 0.4;
    case net::IidStyle::kBytePattern: return 0.02;
  }
  return 1.0;
}

}  // namespace

ScanWindow scan_window(const IspSpec& spec, int window_bits) {
  ScanWindow window;
  const int scan_len = spec.delegated_len - window_bits;
  const net::Ipv6Prefix block{spec.block_base, scan_len - 1};
  window.scan_base = block.nth_subprefix(scan_len, net::Uint128{0});
  window.window_lo = scan_len;
  window.window_hi = spec.delegated_len;
  return window;
}

BuiltInternet build_internet(sim::Network& net,
                             const std::vector<IspSpec>& isps,
                             const std::vector<VendorProfile>& vendors,
                             const BuildConfig& raw_config) {
  // Tag the link tiers for class-scoped fault plans (sim::FaultPlan): the
  // caller dials loss/flap/etc. per class, not per link.
  BuildConfig config = raw_config;
  config.core_link.fault_class = sim::LinkClass::kCore;
  config.access_link.fault_class = sim::LinkClass::kAccess;
  BuiltInternet out;
  out.vendors = vendors;
  out.oui = OuiDb::from_vendors(vendors);

  struct PendingProvision {
    CpeRouter* cpe;
    Router* router;
    Provisioner::Offer offer;
    CpeRouter::ProvisionParams params;
  };
  std::vector<PendingProvision> pending_offers;

  Router::Config core_cfg;
  core_cfg.address = *net::Ipv6Address::parse("2001:ffff::1");
  core_cfg.no_route_action = RouteAction::kBlackhole;
  out.core = net.make_node<Router>(core_cfg);

  net::Rng rng{config.seed};

  for (const auto& spec : isps) {
    // Two independent streams: device *identity* (vendor, IID/MAC,
    // services, flaw flags) is keyed by device index and the world seed
    // only, while prefix *placement* additionally keys on placement_seed.
    // Rebuilding with a different placement_seed renumbers every
    // subscriber without changing who they are — the substrate for the
    // prefix-rotation / host-tracking experiments.
    const std::uint64_t isp_key = net::hash_combine64(
        spec.asn, static_cast<std::uint64_t>(out.isps.size()));
    net::Rng identity_base = rng.fork(isp_key);
    const std::uint64_t placement_seed =
        config.placement_seed != 0 ? config.placement_seed : config.seed;
    net::Rng placement_rng{net::hash_combine64(
        net::hash_combine64(placement_seed, isp_key), 0x70'6c61'6365ULL)};

    IspInstance inst;
    inst.spec = spec;
    const ScanWindow window = scan_window(spec, config.window_bits);
    const int scan_len = window.window_lo;
    inst.block = net::Ipv6Prefix{spec.block_base, scan_len - 1};
    inst.scan_base = window.scan_base;
    inst.wan_pool = inst.block.nth_subprefix(scan_len, net::Uint128{1});
    inst.window_lo = window.window_lo;
    inst.window_hi = window.window_hi;

    Router::Config rcfg;
    rcfg.address = inst.block.address_with_suffix(net::Uint128{1});
    rcfg.no_route_action = spec.unallocated;
    rcfg.icmp_rate_per_sec = config.router_icmp_rate;
    if (spec.infra_per_flow) {
      rcfg.error_source = Router::ErrorSource::kPerFlowInfra;
      // Carve the infra /64 pool from the top of the wan_pool half so it
      // can never collide with subscriber WAN allocations (which grow
      // upward from index 0).
      const int pool_bits = 6;  // room for up to 64 infra /64s
      const net::Uint128 groups = inst.wan_pool.subprefix_count(64 - pool_bits);
      rcfg.infra_pool = inst.wan_pool.nth_subprefix(
          64 - pool_bits, groups - net::Uint128{1});
      rcfg.infra_pool_64s = spec.infra_pool_64s;
      rcfg.infra_iid_style = spec.infra_iid_style;
      rcfg.infra_oui = spec.infra_oui;
      rcfg.unreachable_answer_fraction = spec.infra_answer_fraction;
    }
    auto* router = net.make_node<Router>(rcfg);
    inst.router = router;

    // Uplink first so the router's interface 0 faces the core.
    const auto uplink =
        net.connect(router->id(), out.core->id(), config.core_link);
    inst.uplink_iface = uplink.iface_a;
    router->table().add_default(uplink.iface_a);
    // Null-route the aggregate: unallocated space inside the advertised
    // block must not fall through to the default route, or the ISP router
    // and its transit would loop — the AS-level twin of the CPE flaw.
    router->table().add(
        Route{inst.block,
              spec.unallocated == RouteAction::kUnreachable
                  ? RouteAction::kUnreachable
                  : RouteAction::kBlackhole,
              -1});
    out.core->table().add_forward(inst.block, uplink.iface_b);
    out.geo.add(inst.block, GeoInfo{spec.asn, spec.country, spec.name});

    const std::uint32_t slots = 1u << config.window_bits;
    const auto device_count =
        static_cast<std::uint32_t>(spec.density * static_cast<double>(slots));
    const auto aliased_count = static_cast<std::uint32_t>(
        std::max(0, spec.aliased_slots));
    auto indices =
        sample_slots(slots, device_count + aliased_count, placement_rng);

    // The last `aliased_count` sampled slots become aliased prefixes.
    for (std::uint32_t k = 0; k < aliased_count && !indices.empty(); ++k) {
      const std::uint32_t slot_idx = indices.back();
      indices.pop_back();
      const net::Ipv6Prefix slot = inst.scan_base.nth_subprefix(
          spec.delegated_len, net::Uint128{slot_idx});
      auto* host = net.make_node<AliasedPrefixHost>(slot);
      const auto att =
          net.connect(router->id(), host->id(), config.access_link);
      router->table().add_forward(slot, att.iface_a);
      inst.aliased_prefixes.push_back(slot);
    }

    std::uint64_t wan_counter = 0;
    // Scatter this world's WAN /64 allocations by placement so renumbering
    // also moves separate-WAN addresses. The offset leaves room for every
    // possible allocation below the infra pool at the top of the wan half.
    const std::uint64_t wan_capacity =
        net::Uint128::pow2(64 - inst.wan_pool.length()).fits_u64()
            ? net::Uint128::pow2(64 - inst.wan_pool.length()).to_u64()
            : ~std::uint64_t{0};
    const std::uint64_t wan_headroom =
        wan_capacity > device_count + 64 ? wan_capacity - device_count - 64
                                         : 1;
    const std::uint64_t wan_offset = placement_rng.uniform(wan_headroom);
    // Cloned MACs come from the same vendor's firmware line.
    std::unordered_map<VendorId, std::vector<net::MacAddress>> clone_pool;

    for (std::size_t device_index = 0; device_index < indices.size();
         ++device_index) {
      const std::uint32_t slot_idx = indices[device_index];
      net::Rng isp_rng = identity_base.fork(device_index);
      DeviceRecord rec;
      rec.vendor = pick_vendor(spec.vendor_mix, isp_rng);
      const VendorProfile& vendor =
          vendors[static_cast<std::size_t>(rec.vendor)];
      rec.device_class = vendor.device_class;
      rec.slot =
          inst.scan_base.nth_subprefix(spec.delegated_len, net::Uint128{slot_idx});

      rec.iid_style = pick_style(spec.iid_weights, isp_rng);
      net::MacAddress mac;
      std::uint64_t iid =
          net::generate_iid(rec.iid_style, isp_rng, vendor.oui, &mac);
      if (rec.iid_style == net::IidStyle::kEui64) {
        // A small share of devices ship cloned MACs (Table II: ~96.5% of
        // recovered MACs are unique).
        auto& vendor_pool = clone_pool[rec.vendor];
        if (!vendor_pool.empty() &&
            isp_rng.bernoulli(spec.mac_clone_fraction)) {
          mac = vendor_pool[isp_rng.uniform(vendor_pool.size())];
          iid = mac.to_eui64_iid();
        } else {
          vendor_pool.push_back(mac);
        }
        rec.mac = mac;
      }

      const bool is_ue = spec.ue_model &&
                         vendor.device_class == DeviceClass::kUe;
      rec.separate_wan =
          spec.delegated_len == 64
              ? isp_rng.bernoulli(spec.separate_wan_fraction)
              : true;

      sim::Node* device_node = nullptr;
      if (is_ue && !rec.separate_wan) {
        UeDevice::Config cfg;
        cfg.ue_prefix = rec.slot;
        cfg.ue_address = rec.slot.address_with_suffix(net::Uint128{iid});
        cfg.icmp_rate_per_sec = config.device_icmp_rate;
        auto* ue = net.make_node<UeDevice>(cfg);
        rec.wan_prefix = rec.slot;
        rec.address = cfg.ue_address;
        rec.loop_wan = rec.loop_lan = false;  // UEs do not forward
        device_node = ue;
        for (const auto& dep : vendor.services) {
          if (!isp_rng.bernoulli(dep.probability * spec.service_scale *
                                 service_style_factor(rec.iid_style)))
            continue;
          std::vector<double> w;
          for (const auto& choice : dep.software) w.push_back(choice.weight);
          const auto& sw = dep.software[isp_rng.pick_weighted(w)].software;
          ue->services().bind(svc::make_service(dep.kind, sw, vendor.name));
          rec.services.emplace_back(dep.kind, sw);
        }
      } else {
        CpeRouter::Config cfg;
        cfg.icmp_rate_per_sec = config.device_icmp_rate;
        std::uint64_t chosen_subnet_idx = 0;
        if (spec.delegated_len == 64 && !rec.separate_wan) {
          // Single-prefix device: the /64 is simultaneously WAN and LAN;
          // only the device's own address is routed, the rest follows
          // either an unreachable route or (flawed) the default route.
          cfg.wan_prefix = rec.slot;
          // Nothing separately delegated: use /128 anchors so the LAN
          // branches of the forwarding code match (essentially) nothing —
          // the default-constructed ::/0 would swallow every destination.
          cfg.lan_prefix = net::Ipv6Prefix{rec.slot.address(), 128};
          cfg.subnet_prefix = net::Ipv6Prefix{rec.slot.address(), 128};
          cfg.wan_address = rec.slot.address_with_suffix(net::Uint128{iid});
          rec.loop_wan =
              isp_rng.bernoulli(vendor.loop_wan_prob * spec.loop_scale);
          rec.loop_lan = false;
        } else if (spec.delegated_len == 64) {
          // Separate WAN /64; the whole slot is the (single-subnet) LAN.
          cfg.wan_prefix = inst.wan_pool.nth_subprefix(
              64, net::Uint128{wan_offset + wan_counter++});
          cfg.lan_prefix = rec.slot;
          cfg.subnet_prefix = rec.slot;
          cfg.wan_address = cfg.wan_prefix.address_with_suffix(net::Uint128{iid});
          rec.loop_wan =
              isp_rng.bernoulli(vendor.loop_wan_prob * spec.loop_scale);
          rec.loop_lan = false;  // subnet == whole delegation: nothing unused
        } else {
          // Delegated /56 or /60: one /64 subnet is advertised to the LAN,
          // the rest of the delegation is the "Not-used Prefix".
          cfg.lan_prefix = rec.slot;
          const std::uint64_t subnets =
              1ULL << (64 - spec.delegated_len);
          const std::uint64_t subnet_idx = isp_rng.uniform(subnets);
          chosen_subnet_idx = subnet_idx;
          cfg.subnet_prefix =
              rec.slot.nth_subprefix(64, net::Uint128{subnet_idx});
          if (isp_rng.bernoulli(spec.wan_inside_lan_fraction)) {
            std::uint64_t wan_idx = isp_rng.uniform(subnets);
            cfg.wan_prefix = rec.slot.nth_subprefix(64, net::Uint128{wan_idx});
          } else {
            cfg.wan_prefix = inst.wan_pool.nth_subprefix(
                64, net::Uint128{wan_offset + wan_counter++});
          }
          cfg.wan_address = cfg.wan_prefix.address_with_suffix(net::Uint128{iid});
          rec.loop_wan =
              isp_rng.bernoulli(vendor.loop_wan_prob * spec.loop_scale);
          rec.loop_lan =
              isp_rng.bernoulli(vendor.loop_lan_prob * spec.loop_scale);
        }
        cfg.loop_wan = rec.loop_wan;
        cfg.loop_lan = rec.loop_lan;
        cfg.loop_cap = vendor.loop_cap;
        rec.wan_prefix = cfg.wan_prefix;
        rec.address = cfg.wan_address;

        CpeRouter* cpe = nullptr;
        if (config.provision_via_protocols) {
          // The CPE boots unconfigured and acquires its prefixes over the
          // wire (RA + DHCPv6-PD); the ISP side is told what this
          // subscriber is entitled to. Ground truth (rec) is unchanged —
          // tests assert the acquired state matches it.
          Provisioner::Offer offer;
          offer.wan_prefix = cfg.wan_prefix;
          const bool single_prefix =
              spec.delegated_len == 64 && !rec.separate_wan;
          if (!single_prefix) offer.delegated = cfg.lan_prefix;

          CpeRouter::Config blank;
          blank.icmp_rate_per_sec = cfg.icmp_rate_per_sec;
          blank.loop_wan = cfg.loop_wan;
          blank.loop_lan = cfg.loop_lan;
          blank.loop_cap = cfg.loop_cap;
          // Anchor the unconfigured prefixes away from real space.
          blank.wan_prefix = net::Ipv6Prefix{net::Ipv6Address{}, 128};
          blank.lan_prefix = net::Ipv6Prefix{net::Ipv6Address{}, 128};
          blank.subnet_prefix = net::Ipv6Prefix{net::Ipv6Address{}, 128};
          cpe = net.make_node<CpeRouter>(blank);
          pending_offers.push_back(PendingProvision{
              cpe, inst.router, offer,
              CpeRouter::ProvisionParams{iid, chosen_subnet_idx}});
        } else {
          cpe = net.make_node<CpeRouter>(cfg);
        }
        device_node = cpe;
        for (const auto& dep : vendor.services) {
          if (!isp_rng.bernoulli(dep.probability * spec.service_scale *
                                 service_style_factor(rec.iid_style)))
            continue;
          std::vector<double> w;
          for (const auto& choice : dep.software) w.push_back(choice.weight);
          const auto& sw = dep.software[isp_rng.pick_weighted(w)].software;
          cpe->services().bind(svc::make_service(dep.kind, sw, vendor.name));
          rec.services.emplace_back(dep.kind, sw);
        }
      }

      const auto att =
          net.connect(router->id(), device_node->id(), config.access_link);
      if (config.provision_via_protocols && !pending_offers.empty() &&
          pending_offers.back().cpe ==
              dynamic_cast<CpeRouter*>(device_node)) {
        PendingProvision& pending = pending_offers.back();
        if (out.provisioners.find(router) == out.provisioners.end()) {
          out.provisioners.emplace(router, std::make_unique<Provisioner>());
          router->set_provisioner(out.provisioners[router].get());
        }
        out.provisioners[router]->set_offer(att.iface_a, pending.offer);
        pending.cpe->schedule_provisioning(pending.params);
      }
      router->table().add_forward(rec.slot, att.iface_a);
      if (rec.separate_wan || spec.delegated_len != 64) {
        if (rec.wan_prefix != rec.slot &&
            !rec.slot.contains(rec.wan_prefix)) {
          router->table().add_forward(rec.wan_prefix, att.iface_a);
        }
      }
      rec.node = device_node->id();
      inst.devices.push_back(std::move(rec));
    }

    out.isps.push_back(std::move(inst));
  }

  if (config.provision_via_protocols) {
    // Drain the provisioning exchanges so every CPE is configured before
    // any measurement traffic is scheduled.
    net.run();
  }

  return out;
}

int attach_vantage(sim::Network& net, BuiltInternet& internet, sim::Node* node,
                   const net::Ipv6Prefix& vantage_prefix,
                   const sim::LinkParams& link) {
  sim::LinkParams tagged = link;
  tagged.fault_class = sim::LinkClass::kCore;
  const auto att = net.connect(node->id(), internet.core->id(), tagged);
  internet.core->table().add_forward(vantage_prefix, att.iface_b);
  return att.iface_a;
}

}  // namespace xmap::topo
