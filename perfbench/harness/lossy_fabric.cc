// lossy_fabric: the census world class at 2^14 delegations per block,
// scanned at a simulated 1M pps (many packets in flight) through
// fabric::run_fabric_scan with 2 worker nodes and 4 shards over the TCP
// transport on 127.0.0.1. Faults: 5% access loss, Gilbert-Elliott bursts,
// 5 ms jitter, 1% duplication, 0.5% corruption and a device ICMPv6 rate
// limit, with 2 retries. Faults force the per-packet delivery path.
#include <algorithm>
#include <cmath>

#include "engine/probe_factory.h"
#include "fabric/coordinator.h"
#include "replay.h"
#include "topology/paper_profiles.h"

namespace perfbench {
namespace {

constexpr int kNodes = 2;
constexpr int kShards = 4;
constexpr int kRetries = 2;

sim::FaultPlan fault_plan() {
  sim::FaultPlan plan;
  plan.access.loss = 0.05;
  plan.access.burst.rate_per_sec = 2.0;
  plan.access.burst.mean_ms = 20.0;
  plan.access.burst.loss = 1.0;
  plan.access.jitter_ms = 5.0;
  plan.access.duplicate = 0.01;
  plan.access.corrupt = 0.005;
  return plan;
}

// Share of devices the fault plan may hide from every copy of a probe:
// each copy crosses the access link twice and survives i.i.d. loss, the
// burst duty cycle and corruption in each direction; copies are spaced
// farther apart than a mean burst, so they fail independently. Three times
// that expectation is the tolerance; misses beyond it fail the run.
double loss_budget_share() {
  const sim::FaultPlan p = fault_plan();
  const double burst_duty =
      std::min(1.0, p.access.burst.rate_per_sec * p.access.burst.mean_ms /
                        1000.0 * p.access.burst.loss);
  const double one_way =
      (1 - p.access.loss) * (1 - burst_duty) * (1 - p.access.corrupt);
  const double copy_lost = 1 - one_way * one_way;
  return 3 * std::pow(copy_lost, 1 + kRetries);
}

class LossyFabric final : public Workload {
 public:
  explicit LossyFabric(const Options& options)
      : options_(options),
        module_(engine::make_probe_module("icmp_echo").module) {
    build_.window_bits = options.tiny ? 8 : 14;
    build_.seed = options.seed;
    build_.device_icmp_rate = 10;
  }

  void setup(Spans& spans) override {
    world_ = build_world(spans, topo::paper::isp_specs(), build_);
  }

  void job(Spans& spans, bool traced) override {
    fabric::FabricConfig config;
    config.world_specs = topo::paper::isp_specs();
    config.vendors = topo::paper::vendor_catalog();
    config.build = build_;
    config.module = module_.get();
    config.scan = scan_config();
    config.faults = fault_plan();
    config.nodes = kNodes;
    config.shards = kShards;
    config.transport = fabric::TransportKind::kTcp;
    config.listen_address = "127.0.0.1:0";
    config.backoff.seed = options_.seed;
    config.obs.profile = traced;
    Spans::Scope span{spans, "fabric.run_fabric_scan"};
    result_ = fabric::run_fabric_scan(config);
  }

  void check(Report& report) override {
    report.require(result_.ok, "lossy_fabric: invalid config: " +
                                   result_.error);
    bool complete = !result_.failed && result_.dead_workers == 0;
    for (const auto& shard : result_.shards) complete &= shard.completed;
    std::vector<scan::ProbeResponse> records;
    records.reserve(result_.records.size());
    for (const auto& r : result_.records) records.push_back(r.response);
    truth_ = check_discovery(*world_.net, world_.internet, records,
                             options_.seed);
    const auto budget = static_cast<std::uint64_t>(
        std::ceil(loss_budget_share() * static_cast<double>(truth_.devices)));
    // Only self-answers are held to the budget (looping probes cross the
    // lossy access link once per hop). A failed worker or shard counts
    // every target as missed.
    const std::uint64_t missed =
        complete ? (truth_.unaccounted > budget ? truth_.unaccounted : 0)
                 : truth_.devices;
    report.tally(truth_.devices, missed,
                 "lossy_fabric: responders missed beyond the loss budget "
                 "(or a shard failed)");
    report.tally(truth_.found, truth_.misattributed,
                 "lossy_fabric: device answered a foreign delegation");
    const scan::ScanStats& s = result_.stats;
    report.require(s.received == s.validated + s.discarded + s.corrupted +
                                     s.late,
                   "lossy_fabric: received != "
                   "validated+discarded+corrupted+late");
    report.require(s.sent == (1 + kRetries) * expected_targets() &&
                       s.retransmits == kRetries * expected_targets(),
                   "lossy_fabric: sent/retransmits != targets x copies");
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(result_.stats.sent);
  }

  void describe(Report& report, double wall_s) override {
    report.info("lossy_fabric.probes_per_s", ops() / wall_s, "1/s");
    report.info("lossy_fabric.peripheries_per_s",
                static_cast<double>(truth_.found) / wall_s, "1/s");
    report.info("lossy_fabric.loss_miss_ratio",
                static_cast<double>(truth_.unaccounted) /
                    std::max<double>(1, static_cast<double>(truth_.devices)),
                "share");
    report.info("lossy_fabric.loss_budget_ratio", loss_budget_share(),
                "share");
    report.info("lossy_fabric.loops_lost", static_cast<double>(
                                               truth_.loop_unaccounted),
                "count");
  }

  void layers(Spans& spans, Ledger& ledger, Report& report) override {
    fill_world_ledger(world_, ledger);
    const obs::StageProfile& profile = result_.stage_profile;
    ledger["engine.replica_build_s"] = {
        static_cast<double>(profile.at(obs::Stage::kBuild).ns) / 1e9, "s"};
    ledger["engine.merge_s"] = {
        static_cast<double>(profile.at(obs::Stage::kMerge).ns) / 1e9, "s"};

    // Shard 0 of 4 on the harness's own world, faults installed exactly as
    // the fabric's workers install them; the simulator's time for the
    // whole scan is the shard's time times the shard count.
    scan::ScanConfig cfg = scan_config();
    cfg.shard = 0;
    cfg.shards = kShards;
    const SimReplay replay = run_sim_replay(spans, world_, cfg, *module_,
                                            fault_plan(), scan_vantage());
    report.require(replay.clamped == 0, "lossy_fabric: events clamped to now");
    std::uint64_t shard0 = 0;
    for (const auto& r : result_.records) shard0 += r.shard == 0 ? 1 : 0;
    report.require(replay.records.size() == shard0,
                   "lossy_fabric: direct scanner replay of shard 0 disagrees "
                   "with the fabric");

    std::vector<scan::ProbeResponse> records;
    for (const auto& r : result_.records) records.push_back(r.response);
    const ScanLayerCosts costs = replay_scan_layers(
        spans, world_.internet, options_.seed, records, ledger);
    fill_scan_ledger(replay, replay.run_s * kShards, costs,
                     static_cast<double>(result_.stats.sent),
                     static_cast<double>(result_.stats.received),
                     static_cast<double>(records.size()), ledger);

    (void)replay_fabric_frames(spans, records, ledger);
    ledger["fabric.bytes_per_record"] = {
        static_cast<double>(result_.bytes_received) /
            std::max<double>(1, static_cast<double>(records.size())),
        "B"};
    ledger["fabric.retransmits"] = {static_cast<double>(result_.retransmits),
                                    "count"};

    const std::string image =
        encode_records_store(spans, world_.internet, records, ledger);
    replay_store_queries(spans, image,
                         options_.out_dir + "/lossy_fabric_replay.xstore",
                         ledger);

    World fresh = build_world(spans, topo::paper::isp_specs(), build_);
    replay_analysis_layers(spans, fresh, 64, ledger);
    measure_case_study(spans, ledger);
  }

 private:
  [[nodiscard]] scan::ScanConfig scan_config() const {
    scan::ScanConfig cfg;
    cfg.source = scan_source();
    cfg.seed = options_.seed;
    cfg.probes_per_sec = 1e6;
    cfg.retries = kRetries;
    return cfg;
  }

  [[nodiscard]] std::uint64_t expected_targets() const {
    return topo::paper::isp_specs().size() *
           (std::uint64_t{1} << build_.window_bits);
  }

  Options options_;
  std::unique_ptr<scan::ProbeModule> module_;
  topo::BuildConfig build_;
  World world_;
  fabric::FabricResult result_;
  DiscoveryTruth truth_;
};

}  // namespace

std::unique_ptr<Workload> make_lossy_fabric(const Options& options) {
  return std::make_unique<LossyFabric>(options);
}

}  // namespace perfbench
