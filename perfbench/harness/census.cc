// census: the paper's discovery scan (Sections III/IV) over the fifteen
// calibrated ISP blocks at 2^16 delegations per block — one ICMPv6 echo
// probe per delegation, ~983k probes — through engine::run_parallel_scan
// at one worker and the tool's default 25 kpps simulated rate, with no
// faults. The merged records are then written as JSONL and as a store
// snapshot (ana::export_store + StoreBuilder::serialize).
#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "analysis/store_export.h"
#include "engine/executor.h"
#include "engine/probe_factory.h"
#include "replay.h"
#include "store/snapshot.h"
#include "topology/paper_profiles.h"
#include "xmap/output.h"

namespace perfbench {
namespace {

class Census final : public Workload {
 public:
  explicit Census(const Options& options)
      : options_(options),
        module_(engine::make_probe_module("icmp_echo").module) {
    build_.window_bits = options.tiny ? 8 : 16;
    build_.seed = options.seed;
  }

  void setup(Spans& spans) override {
    world_ = build_world(spans, topo::paper::isp_specs(), build_);
  }

  void job(Spans& spans, bool traced) override {
    engine::EngineConfig config;
    config.world_specs = topo::paper::isp_specs();
    config.vendors = topo::paper::vendor_catalog();
    config.build = build_;
    config.module = module_.get();
    config.scan = scan_config();
    config.threads = 1;
    config.obs.profile = traced;  // the stage profile the ledger reads
    {
      Spans::Scope span{spans, "engine.run_parallel_scan"};
      result_ = engine::run_parallel_scan(config);
    }
    {
      Spans::Scope span{spans, "xmap.write_jsonl"};
      std::ostringstream out;
      scan::JsonlWriter writer{out};
      writer.begin();
      for (const auto& r : result_.records) writer.record(r.response, r.when);
      writer.end();
      jsonl_ = out.str();
    }
    {
      Spans::Scope span{spans, "store.export_encode"};
      ana::DiscoveryResult discovery;
      discovery.stats = result_.stats;
      discovery.last_hops = result_.collector.last_hops();
      discovery.aliased = result_.collector.aliased();
      store::StoreBuilder builder =
          ana::export_store(discovery, nullptr, {}, world_.internet);
      image_ = builder.serialize();
    }
  }

  void check(Report& report) override {
    report.require(result_.ok && result_.failed_workers == 0,
                   "census: engine run failed: " + result_.error);
    std::vector<scan::ProbeResponse> records = responses();
    if (options_.inject == "drop_record") drop_one_device_record(records);
    truth_ = check_discovery(*world_.net, world_.internet, records,
                             options_.seed);
    report.tally(truth_.devices, truth_.unaccounted + truth_.loop_unaccounted,
                 "census: expected responders not discovered");
    report.tally(truth_.found, truth_.misattributed,
                 "census: device answered a foreign delegation");
    const scan::ScanStats& s = result_.stats;
    report.require(s.received == s.validated + s.discarded + s.corrupted +
                                     s.late,
                   "census: received != validated+discarded+corrupted+late");
    report.require(s.sent == expected_probes(),
                   "census: probes sent != delegations in the windows");
    report.require(static_cast<std::size_t>(std::count(
                       jsonl_.begin(), jsonl_.end(), '\n')) ==
                       result_.records.size(),
                   "census: JSONL lines != records");
    auto loaded = store::Snapshot::from_buffer(image_);
    report.require(loaded.snapshot != nullptr &&
                       loaded.snapshot->record_count() ==
                           result_.collector.unique_responders(),
                   "census: store snapshot does not hold every responder");
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(result_.stats.sent);
  }

  void describe(Report& report, double wall_s) override {
    report.info("census.probes_per_s", ops() / wall_s, "1/s");
    report.info("census.peripheries_per_s",
                static_cast<double>(truth_.found) / wall_s, "1/s");
    report.info("census.devices", static_cast<double>(truth_.devices),
                "count");
  }

  void layers(Spans& spans, Ledger& ledger, Report& report) override {
    fill_world_ledger(world_, ledger);
    const obs::StageProfile& profile = result_.stage_profile;
    const double build_s =
        static_cast<double>(profile.at(obs::Stage::kBuild).ns) / 1e9;
    const double merge_s =
        static_cast<double>(profile.at(obs::Stage::kMerge).ns) / 1e9;
    ledger["engine.replica_build_s"] = {build_s, "s"};
    ledger["engine.merge_s"] = {merge_s, "s"};
    const double sim_run_s =
        spans.last_s("engine.run_parallel_scan") - build_s - merge_s;

    // The same scan on the harness's own (still unrun) world.
    const SimReplay replay = run_sim_replay(spans, world_, scan_config(),
                                            *module_, {}, scan_vantage());
    report.require(replay.clamped == 0, "census: events clamped to now");
    report.require(replay.records.size() == result_.records.size() &&
                       replay.stats.sent == result_.stats.sent,
                   "census: direct scanner replay disagrees with the engine");

    const std::vector<scan::ProbeResponse> records = responses();
    const ScanLayerCosts costs = replay_scan_layers(
        spans, world_.internet, options_.seed, records, ledger);
    fill_scan_ledger(replay, sim_run_s, costs,
                     static_cast<double>(result_.stats.sent),
                     static_cast<double>(result_.stats.received),
                     static_cast<double>(records.size()), ledger);

    ledger["fabric.bytes_per_record"] = {
        replay_fabric_frames(spans, records, ledger), "B"};
    ledger["fabric.retransmits"] = {0, "count"};

    ledger["store.encode_s"] = {spans.last_s("store.export_encode"), "s"};
    ledger["store.bytes_per_record"] = {
        static_cast<double>(image_.size()) /
            std::max<double>(1, static_cast<double>(
                                    result_.collector.unique_responders())),
        "B"};
    replay_store_queries(spans, image_,
                         options_.out_dir + "/census_replay.xstore", ledger);

    World fresh = build_world(spans, topo::paper::isp_specs(), build_);
    replay_analysis_layers(spans, fresh, 64, ledger);
    measure_case_study(spans, ledger);
  }

 private:
  [[nodiscard]] scan::ScanConfig scan_config() const {
    scan::ScanConfig cfg;
    cfg.source = scan_source();
    cfg.seed = options_.seed;
    cfg.probes_per_sec = 25000;  // the tool's default rate
    return cfg;
  }

  [[nodiscard]] std::uint64_t expected_probes() const {
    return topo::paper::isp_specs().size() *
           (std::uint64_t{1} << build_.window_bits);
  }

  [[nodiscard]] std::vector<scan::ProbeResponse> responses() const {
    std::vector<scan::ProbeResponse> out;
    out.reserve(result_.records.size());
    for (const auto& r : result_.records) out.push_back(r.response);
    return out;
  }

  // Self-test defect: loses the only record of one answering device.
  void drop_one_device_record(std::vector<scan::ProbeResponse>& records) const {
    std::unordered_map<net::Ipv6Address, int> seen;
    for (const auto& r : records) ++seen[r.responder];
    for (const auto& isp : world_.internet.isps) {
      for (const auto& d : isp.devices) {
        const auto it = seen.find(d.address);
        if (it == seen.end() || it->second != 1) continue;
        records.erase(std::find_if(records.begin(), records.end(),
                                   [&d](const scan::ProbeResponse& r) {
                                     return r.responder == d.address;
                                   }));
        return;
      }
    }
  }

  Options options_;
  std::unique_ptr<scan::ProbeModule> module_;
  topo::BuildConfig build_;
  World world_;
  engine::EngineResult result_;
  std::string jsonl_;
  std::string image_;
  DiscoveryTruth truth_;
};

}  // namespace

std::unique_ptr<Workload> make_census(const Options& options) {
  return std::make_unique<Census>(options);
}

}  // namespace perfbench
