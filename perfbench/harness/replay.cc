#include "replay.h"

#include <cstdio>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/store_export.h"
#include "engine/executor.h"
#include "engine/probe_factory.h"
#include "fabric/protocol.h"
#include "fabric/tcp_transport.h"
#include "loopattack/attack_lab.h"
#include "netbase/checksum.h"
#include "netbase/random.h"
#include "packet/packet.h"
#include "store/query.h"
#include "store/snapshot.h"
#include "store/writer.h"
#include "topology/paper_profiles.h"
#include "xmap/cyclic_group.h"
#include "xmap/output.h"

namespace perfbench {
namespace {

double ns_per(Clock::time_point t0, std::size_t n) {
  return n == 0 ? 0.0 : seconds_since(t0) * 1e9 / static_cast<double>(n);
}

// Keeps replay loops observable to the optimiser.
volatile std::uint64_t g_sink = 0;

}  // namespace

ScanLayerCosts replay_scan_layers(
    Spans& spans, const topo::BuiltInternet& internet, std::uint64_t seed,
    const std::vector<scan::ProbeResponse>& records, Ledger& ledger) {
  Spans::Scope outer{spans, "replay.scan_layers"};
  ScanLayerCosts c;
  const auto module = engine::make_probe_module("icmp_echo").module;
  const net::Ipv6Address source = scan_source();

  // Targets in the scanner's own draw order, per window.
  std::vector<net::Ipv6Address> targets;
  std::vector<std::uint32_t> owner;  // ISP index of each target
  {
    Spans::Scope span{spans, "xmap.permute"};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < internet.isps.size(); ++i) {
      const scan::TargetSpec spec = window_spec(internet.isps[i]);
      scan::CyclicGroup group{spec.count(), net::hash_combine64(seed, i)};
      auto it = group.iterate();
      while (auto v = it.next()) {
        targets.push_back(spec.nth_address(*v, seed));
        owner.push_back(static_cast<std::uint32_t>(i));
      }
    }
    c.permute_ns = ns_per(t0, targets.size());
  }
  {
    Spans::Scope span{spans, "xmap.patch"};
    scan::ProbeTemplate tmpl = module->make_template(source, seed);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& t : targets) {
      module->patch_probe(tmpl, source, t, seed);
      sink += tmpl.frame()[44];
    }
    c.patch_ns = ns_per(t0, targets.size());
    g_sink = g_sink + sink;
  }
  {
    Spans::Scope span{spans, "netbase.checksum"};
    scan::ProbeTemplate tmpl = module->make_template(source, seed);
    module->patch_probe(tmpl, source, targets.empty() ? source : targets[0],
                        seed);
    const pkt::Bytes& frame = tmpl.frame();
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      sink += net::internet_checksum(
          std::span<const std::uint8_t>{frame.data(), frame.size()});
    }
    c.checksum_ns = ns_per(t0, targets.size());
    g_sink = g_sink + sink;
  }
  {
    Spans::Scope span{spans, "netbase.lpm"};
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto* route =
          internet.isps[owner[i]].router->table().lookup(targets[i]);
      sink += route != nullptr ? static_cast<std::uint64_t>(route->iface) : 0;
    }
    c.lpm_ns = ns_per(t0, targets.size());
    g_sink = g_sink + sink;
  }

  // Response frames as the devices build them, synthesized outside the
  // timed loops.
  std::vector<pkt::Bytes> frames;
  frames.reserve(records.size());
  for (const auto& r : records) {
    const pkt::Bytes probe = module->make_probe(source, r.probe_dst, seed);
    switch (r.kind) {
      case scan::ResponseKind::kEchoReply:
        frames.push_back(pkt::build_echo_reply(probe));
        break;
      case scan::ResponseKind::kTimeExceeded:
        frames.push_back(pkt::build_icmpv6_error(
            r.responder, pkt::Icmpv6Type::kTimeExceeded, r.icmp_code,
            std::span<const std::uint8_t>{probe.data(), probe.size()}));
        break;
      default:
        frames.push_back(pkt::build_icmpv6_error(
            r.responder, pkt::Icmpv6Type::kDestUnreachable, r.icmp_code,
            std::span<const std::uint8_t>{probe.data(), probe.size()}));
        break;
    }
  }
  {
    Spans::Scope span{spans, "xmap.classify"};
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& f : frames) {
      const auto r = module->classify(f, source, seed);
      sink += r.has_value() ? static_cast<std::uint64_t>(r->kind) + 1 : 0;
    }
    c.classify_ns = ns_per(t0, frames.size());
    g_sink = g_sink + sink;
  }
  {
    Spans::Scope span{spans, "packet.parse"};
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& f : frames) {
      const pkt::Ipv6View ip{std::span<const std::uint8_t>{f.data(), f.size()}};
      if (!ip.valid()) continue;
      const pkt::Icmpv6View icmp{ip.payload()};
      if (!icmp.valid()) continue;
      sink += static_cast<std::uint64_t>(icmp.type());
      if (icmp.is_error()) {
        const pkt::Ipv6View inner{icmp.invoking_packet()};
        sink += inner.dst().prefix64();
      } else {
        sink += icmp.ident();
      }
    }
    c.parse_ns = ns_per(t0, frames.size());
    g_sink = g_sink + sink;
  }
  {
    Spans::Scope span{spans, "xmap.output"};
    std::ostringstream out;
    scan::JsonlWriter writer{out};
    const auto t0 = Clock::now();
    writer.begin();
    for (std::size_t i = 0; i < records.size(); ++i) {
      writer.record(records[i], static_cast<sim::SimTime>(i));
    }
    writer.end();
    c.output_ns = ns_per(t0, records.size());
    g_sink = g_sink + out.str().size();
  }
  ledger["xmap.permute_ns"] = {c.permute_ns, "ns"};
  ledger["xmap.patch_ns"] = {c.patch_ns, "ns"};
  ledger["xmap.classify_ns"] = {c.classify_ns, "ns"};
  ledger["xmap.output_ns"] = {c.output_ns, "ns"};
  ledger["netbase.checksum_ns"] = {c.checksum_ns, "ns"};
  ledger["netbase.lpm_ns"] = {c.lpm_ns, "ns"};
  ledger["packet.parse_ns"] = {c.parse_ns, "ns"};
  return c;
}

double replay_fabric_frames(Spans& spans,
                            const std::vector<scan::ProbeResponse>& records,
                            Ledger& ledger) {
  Spans::Scope outer{spans, "replay.fabric_frames"};
  constexpr std::size_t kBatch = 128;  // FabricConfig::record_batch default
  std::vector<fabric::Message> messages;
  for (std::size_t i = 0; i < records.size(); i += kBatch) {
    fabric::Message msg;
    msg.type = fabric::MsgType::kRecords;
    msg.seq = messages.size() + 1;
    for (std::size_t j = i; j < std::min(records.size(), i + kBatch); ++j) {
      msg.records.push_back(fabric::WireRecord{records[j], j, j});
    }
    messages.push_back(std::move(msg));
  }
  std::vector<std::string> frames;
  frames.reserve(messages.size());
  double encode_ns = 0;
  {
    Spans::Scope span{spans, "fabric.frame_encode"};
    const auto t0 = Clock::now();
    for (const auto& m : messages) frames.push_back(fabric::encode_frame(m));
    encode_ns = ns_per(t0, frames.size());
  }
  std::string stream;
  for (const auto& f : frames) stream += f;
  double decode_ns = 0;
  {
    Spans::Scope span{spans, "fabric.frame_decode"};
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& f : frames) {
      const auto d = fabric::decode_frame(f);
      sink += d.message ? d.message->records.size() : 0;
    }
    decode_ns = ns_per(t0, frames.size());
    g_sink = g_sink + sink;
  }
  double reassemble_ns = 0;
  {
    // Feeds the byte stream in MTU-sized reads, as a socket delivers it.
    Spans::Scope span{spans, "fabric.reassemble"};
    fabric::FrameReassembler reassembler;
    std::size_t out = 0;
    const auto t0 = Clock::now();
    for (std::size_t pos = 0; pos < stream.size(); pos += 1500) {
      reassembler.feed(std::string_view{stream}.substr(pos, 1500));
      while (auto frame = reassembler.next()) out += frame->size();
    }
    reassemble_ns = ns_per(t0, frames.size());
    g_sink = g_sink + out;
  }
  const double bytes_per_record =
      records.empty() ? 0.0
                      : static_cast<double>(stream.size()) /
                            static_cast<double>(records.size());
  ledger["fabric.frame_encode_ns"] = {encode_ns, "ns"};
  ledger["fabric.frame_decode_ns"] = {decode_ns, "ns"};
  ledger["fabric.reassemble_ns"] = {reassemble_ns, "ns"};
  return bytes_per_record;
}

std::string encode_records_store(Spans& spans,
                                 const topo::BuiltInternet& internet,
                                 const std::vector<scan::ProbeResponse>& records,
                                 Ledger& ledger) {
  const auto t0 = Clock::now();
  std::string image;
  {
    Spans::Scope span{spans, "store.encode"};
    store::StoreBuilder builder;
    ana::fill_geo(builder, internet.geo);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ana::add_response(builder, records[i], i, internet.oui);
    }
    image = builder.serialize();
  }
  ledger["store.encode_s"] = {seconds_since(t0), "s"};
  ledger["store.bytes_per_record"] = {
      records.empty() ? 0.0
                      : static_cast<double>(image.size()) /
                            static_cast<double>(records.size()),
      "B"};
  return image;
}

void replay_store_queries(Spans& spans, const std::string& image,
                          const std::string& path, Ledger& ledger) {
  Spans::Scope outer{spans, "replay.store_queries"};
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(image.data(), 1, image.size(), f);
    std::fclose(f);
  }
  auto t0 = Clock::now();
  store::Snapshot::LoadResult loaded;
  {
    Spans::Scope span{spans, "store.load"};
    loaded = store::Snapshot::load(path);
  }
  ledger["store.load_s"] = {seconds_since(t0), "s"};
  if (!loaded.snapshot) return;
  const store::Snapshot& snap = *loaded.snapshot;

  std::vector<net::Ipv6Address> keys;
  keys.reserve(snap.record_count() * 2);
  snap.for_each([&keys](const store::Record& r) {
    keys.push_back(r.key);
    // A near miss: the neighbouring address is almost never a responder.
    keys.push_back(net::Ipv6Address::from_value(r.key.value() +
                                                net::Uint128{1}));
  });
  {
    Spans::Scope span{spans, "store.lookup"};
    std::uint64_t hits = 0;
    store::Record out;
    t0 = Clock::now();
    for (const auto& k : keys) hits += snap.lookup(k, &out) ? 1 : 0;
    ledger["store.lookup_ns"] = {ns_per(t0, keys.size()), "ns"};
    g_sink = g_sink + hits;
  }
  {
    Spans::Scope span{spans, "store.scan"};
    std::uint64_t visited = 0;
    std::uint64_t sink = 0;
    t0 = Clock::now();
    for (const auto& geo : snap.geo_entries()) {
      visited += snap.scan_prefix(
          geo.prefix, [&sink](const store::Record& r) { sink += r.responses; });
    }
    ledger["store.scan_ns_per_record"] = {ns_per(t0, visited), "ns"};
    g_sink = g_sink + sink;
  }
  {
    Spans::Scope span{spans, "store.aggregate"};
    std::uint64_t rows = 0;
    t0 = Clock::now();
    for (auto by : {store::GroupBy::kAsn, store::GroupBy::kCountry,
                    store::GroupBy::kVendor, store::GroupBy::kService}) {
      rows += store::aggregate(snap, by).size();
    }
    rows += store::summarize(snap).records;
    ledger["store.aggregate_s"] = {seconds_since(t0), "s"};
    g_sink = g_sink + rows;
  }
}

void replay_analysis_layers(Spans& spans, World& world,
                            std::size_t grab_targets, Ledger& ledger) {
  std::vector<net::Ipv6Address> targets;
  for (const auto& isp : world.internet.isps) {
    for (const auto& d : isp.devices) {
      if (targets.size() < grab_targets) targets.push_back(d.address);
    }
  }
  auto t0 = Clock::now();
  std::vector<ana::GrabResult> grabs;
  {
    Spans::Scope span{spans, "analysis.grab"};
    grabs = ana::grab_services(*world.net, world.internet, targets, {});
  }
  ledger["analysis.grab_s"] = {seconds_since(t0), "s"};
  const int first = 0;
  t0 = Clock::now();
  ana::LoopScanResult loops;
  {
    Spans::Scope span{spans, "analysis.loop_scan"};
    loops = ana::run_loop_scan(*world.net, world.internet,
                               std::span<const int>{&first, 1}, {});
  }
  ledger["analysis.loop_scan_s"] = {seconds_since(t0), "s"};
  ledger["analysis.loop_candidates"] = {
      static_cast<double>(loops.candidates), "count"};
  g_sink = g_sink + grabs.size();
}

void measure_case_study(Spans& spans, Ledger& ledger) {
  const auto t0 = Clock::now();
  double packets = 0;
  double vulnerable = 0;
  {
    Spans::Scope span{spans, "loopattack.case_study"};
    for (const auto& model : atk::case_study_models()) {
      const atk::CaseStudyRow row = atk::test_router_model(model);
      if (row.wan_loop_observed) {
        packets += static_cast<double>(row.wan_link_packets);
        vulnerable += 1;
      }
    }
  }
  ledger["loopattack.attack_s"] = {seconds_since(t0), "s"};
  ledger["loopattack.amplification"] = {
      vulnerable == 0 ? 0.0 : packets / vulnerable, "x"};
}

std::vector<scan::ProbeResponse> replay_engine(Spans& spans,
                                               const topo::BuildConfig& build,
                                               std::uint64_t seed,
                                               std::uint64_t max_targets,
                                               Ledger& ledger) {
  const auto module = engine::make_probe_module("icmp_echo").module;
  engine::EngineConfig config;
  config.world_specs = topo::paper::isp_specs();
  config.vendors = topo::paper::vendor_catalog();
  config.build = build;
  config.module = module.get();
  config.scan.source = scan_source();
  config.scan.seed = seed;
  config.scan.max_probes = max_targets;
  config.threads = 1;
  config.obs.profile = true;
  engine::EngineResult result;
  {
    Spans::Scope span{spans, "engine.replay_scan"};
    result = engine::run_parallel_scan(config);
  }
  const obs::StageProfile& profile = result.stage_profile;
  ledger["engine.replica_build_s"] = {
      static_cast<double>(profile.at(obs::Stage::kBuild).ns) / 1e9, "s"};
  ledger["engine.merge_s"] = {
      static_cast<double>(profile.at(obs::Stage::kMerge).ns) / 1e9, "s"};
  std::vector<scan::ProbeResponse> out;
  out.reserve(result.records.size());
  for (const auto& r : result.records) out.push_back(r.response);
  return out;
}

void fill_scan_ledger(const SimReplay& replay, double sim_run_s,
                      const ScanLayerCosts& costs, double sent,
                      double received, double records, Ledger& ledger) {
  const double replay_sent =
      std::max(1.0, static_cast<double>(replay.stats.sent));
  const double hops_per_probe = static_cast<double>(replay.hops) / replay_sent;
  ledger["sim.run_s"] = {sim_run_s, "s"};
  ledger["sim.events_per_probe"] = {
      static_cast<double>(replay.events) / replay_sent, "count"};
  ledger["sim.hops_per_probe"] = {hops_per_probe, "count"};
  ledger["sim.bulk_mode"] = {replay.bulk ? 1.0 : 0.0, "bool"};
  ledger["sim.fault_drops"] = {static_cast<double>(replay.fault_drops),
                               "count"};
  ledger["sim.clamped_events"] = {static_cast<double>(replay.clamped),
                                  "count"};
  const double attributed_ns =
      (costs.permute_ns + costs.patch_ns + costs.checksum_ns) * sent +
      costs.lpm_ns * hops_per_probe * sent +
      (costs.classify_ns + costs.parse_ns) * received +
      costs.output_ns * records;
  ledger["ledger.unattributed_share"] = {
      sim_run_s <= 0 ? 0.0 : 1.0 - attributed_ns / 1e9 / sim_run_s, "share"};
}

}  // namespace perfbench
