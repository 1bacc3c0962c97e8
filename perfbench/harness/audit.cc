// audit: the paper's security follow-up (Sections V/VI) on a 2^12-per-block
// world. ana::grab_services runs all eight services against the world's
// ground-truth periphery addresses, ana::run_loop_scan runs the h/h+2 loop
// scan, and atk::test_router_model runs HL-255 amplification for every
// case_study_models() entry.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "analysis/pipeline.h"
#include "analysis/store_export.h"
#include "loopattack/attack_lab.h"
#include "replay.h"
#include "store/snapshot.h"
#include "topology/paper_profiles.h"

namespace perfbench {
namespace {

class Audit final : public Workload {
 public:
  explicit Audit(const Options& options) : options_(options) {
    build_.window_bits = options.tiny ? 8 : 12;
    build_.seed = options.seed;
  }

  void setup(Spans& spans) override {
    world_ = build_world(spans, topo::paper::isp_specs(), build_);
    targets_.clear();
    for (const auto& isp : world_.internet.isps) {
      for (const auto& d : isp.devices) targets_.push_back(d.address);
    }
  }

  void job(Spans& spans, bool traced) override {
    (void)traced;
    sim::Network& net = *world_.net;
    const auto t0 = Clock::now();
    const std::uint64_t events0 = net.loop().events_processed();
    const std::uint64_t hops0 = net.packets_delivered();
    // The loop scan goes first: its scanner stamps sends from sim time 0,
    // so on a network whose clock has already advanced every probe would
    // be clamped to "now" (see sim.clamped_events).
    {
      Spans::Scope span{spans, "analysis.loop_scan"};
      loops_ = ana::run_loop_scan(net, world_.internet, {}, {});
    }
    {
      Spans::Scope span{spans, "analysis.grab"};
      grabs_ = ana::grab_services(net, world_.internet, targets_, {});
    }
    events_ = net.loop().events_processed() - events0;
    hops_ = net.packets_delivered() - hops0;
    {
      Spans::Scope span{spans, "loopattack.case_study"};
      rows_.clear();
      for (const auto& model : atk::case_study_models()) {
        rows_.push_back(atk::test_router_model(model));
      }
    }
    job_s_ = seconds_since(t0);
  }

  void check(Report& report) override {
    check_grabs(report);
    check_loops(report);
    std::uint64_t bad_rows = 0;
    for (const auto& row : rows_) {
      const atk::RouterModel& m = *row.model;
      if (row.wan_loop_observed != m.wan_vulnerable ||
          row.lan_loop_observed != m.lan_vulnerable || !row.fixed_after_patch) {
        ++bad_rows;
      }
    }
    report.tally(rows_.size(), bad_rows,
                 "audit: case-study rows contradicting the model's flags");
    report.require(rows_.size() == atk::case_study_models().size(),
                   "audit: case-study matrix incomplete");
    // sim.clamped_events is reported, not asserted, here: run_loop_scan
    // clamps one event even on a fresh network (a known substrate defect).
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(loops_.probes_sent + grabs_.size());
  }

  void describe(Report& report, double wall_s) override {
    report.info("audit.probes_per_s", ops() / wall_s, "1/s");
    report.info("audit.grabs", static_cast<double>(grabs_.size()), "count");
    report.info("audit.loop_confirmed",
                static_cast<double>(loops_.confirmed.size()), "count");
    report.info("audit.loop_expected", static_cast<double>(loop_expected_),
                "count");
  }

  void layers(Spans& spans, Ledger& ledger, Report& report) override {
    (void)report;
    fill_world_ledger(world_, ledger);
    const double grab_s = spans.last_s("analysis.grab");
    const double loop_s = spans.last_s("analysis.loop_scan");
    const double attack_s = spans.last_s("loopattack.case_study");
    ledger["analysis.grab_s"] = {grab_s, "s"};
    ledger["analysis.loop_scan_s"] = {loop_s, "s"};
    ledger["analysis.loop_candidates"] = {
        static_cast<double>(loops_.candidates), "count"};
    ledger["loopattack.attack_s"] = {attack_s, "s"};
    double packets = 0;
    double vulnerable = 0;
    for (const auto& row : rows_) {
      if (!row.wan_loop_observed) continue;
      packets += static_cast<double>(row.wan_link_packets);
      vulnerable += 1;
    }
    ledger["loopattack.amplification"] = {
        vulnerable == 0 ? 0.0 : packets / vulnerable, "x"};

    // The grab and the loop scan are the simulator's work here.
    const double probes = std::max(1.0, ops());
    ledger["sim.run_s"] = {grab_s + loop_s, "s"};
    ledger["sim.events_per_probe"] = {static_cast<double>(events_) / probes,
                                      "count"};
    ledger["sim.hops_per_probe"] = {static_cast<double>(hops_) / probes,
                                    "count"};
    ledger["sim.bulk_mode"] = {world_.net->bulk_mode() ? 1.0 : 0.0, "bool"};
    ledger["sim.fault_drops"] = {0, "count"};
    ledger["sim.clamped_events"] = {
        static_cast<double>(world_.net->loop().clamped()), "count"};

    // Layers the audit does not call, replayed on its world class.
    const std::vector<scan::ProbeResponse> records =
        replay_engine(spans, build_, options_.seed, 0, ledger);
    (void)replay_scan_layers(spans, world_.internet, options_.seed, records,
                             ledger);
    ledger["fabric.bytes_per_record"] = {
        replay_fabric_frames(spans, records, ledger), "B"};
    ledger["fabric.retransmits"] = {0, "count"};

    // The audit's own results as a store: loop scan + alive services.
    const auto t0 = Clock::now();
    std::string image;
    {
      Spans::Scope span{spans, "store.encode"};
      store::StoreBuilder builder =
          ana::export_store({}, &loops_, grabs_, world_.internet);
      image = builder.serialize();
    }
    ledger["store.encode_s"] = {seconds_since(t0), "s"};
    const auto snap = store::Snapshot::from_buffer(image);
    ledger["store.bytes_per_record"] = {
        snap.snapshot == nullptr
            ? 0.0
            : static_cast<double>(image.size()) /
                  std::max<double>(1, static_cast<double>(
                                          snap.snapshot->record_count())),
        "B"};
    replay_store_queries(spans, image,
                         options_.out_dir + "/audit_replay.xstore", ledger);

    // Share of the job's wall time outside the three layer calls.
    ledger["ledger.unattributed_share"] = {
        job_s_ <= 0 ? 0.0 : 1.0 - (grab_s + loop_s + attack_s) / job_s_,
        "share"};
  }

 private:
  // Every (address, service) grab against the device's deployed services:
  // alive exactly when deployed, and the banner names the deployed
  // software.
  void check_grabs(Report& report) const {
    std::unordered_map<net::Ipv6Address, const topo::DeviceRecord*> by_addr;
    for (const auto& isp : world_.internet.isps) {
      for (const auto& d : isp.devices) by_addr[d.address] = &d;
    }
    std::uint64_t bad = 0;
    for (const auto& g : grabs_) {
      const auto it = by_addr.find(g.target);
      if (it == by_addr.end()) {
        ++bad;
        continue;
      }
      const svc::SoftwareInfo* deployed = nullptr;
      for (const auto& [kind, sw] : it->second->services) {
        if (kind == g.kind) deployed = &sw;
      }
      if (g.alive != (deployed != nullptr)) {
        ++bad;
      } else if (g.alive && g.software &&
                 g.software->software != deployed->software) {
        ++bad;
      }
    }
    report.tally(grabs_.size(), bad,
                 "audit: grabs contradicting DeviceRecord::services");
    report.require(grabs_.size() == targets_.size() * svc::kServiceCount,
                   "audit: grab count != targets x services");
  }

  // The oracle's loop verdict for each device's loop-scan probe: every
  // device whose probe enters an uncapped loop must be confirmed, and
  // every confirmation must come from such a probe.
  void check_loops(Report& report) {
    const std::uint64_t seed = ana::LoopScanOptions{}.seed;
    std::unordered_map<net::Ipv6Address, const topo::DeviceRecord*> looping;
    std::unordered_set<net::Ipv6Address> devices;
    std::unordered_set<net::Ipv6Address> vulnerable;
    for (const auto& isp : world_.internet.isps) {
      for (const auto& d : isp.devices) {
        devices.insert(d.address);
        if (d.loop_wan || d.loop_lan) vulnerable.insert(d.address);
        const net::Ipv6Address probe = slot_probe(isp, d, seed);
        if (expect_for(*world_.net, world_.internet, d, probe) ==
            Expect::kLoop) {
          looping[probe] = &d;
        }
      }
    }
    loop_expected_ = looping.size();
    std::unordered_set<net::Ipv6Address> confirmed;
    std::uint64_t wrong = 0;
    for (const auto& c : loops_.confirmed) {
      confirmed.insert(c.address);
      const bool from_loop = looping.count(c.probe_dst) != 0;
      // The loop's far end (the ISP edge router) may answer too.
      const bool device_ok = vulnerable.count(c.address) != 0 ||
                             devices.count(c.address) == 0;
      if (!from_loop || !device_ok) ++wrong;
    }
    std::uint64_t missed = 0;
    for (const auto& [probe, d] : looping) {
      if (confirmed.count(d->address) == 0) ++missed;
    }
    report.tally(looping.size(), missed,
                 "audit: loop-vulnerable devices not confirmed");
    report.tally(loops_.confirmed.size(), wrong,
                 "audit: confirmations of non-looping probes or devices");
  }

  Options options_;
  topo::BuildConfig build_;
  World world_;
  std::vector<net::Ipv6Address> targets_;
  std::vector<ana::GrabResult> grabs_;
  ana::LoopScanResult loops_;
  std::vector<atk::CaseStudyRow> rows_;
  std::uint64_t events_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t loop_expected_ = 0;
  double job_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_audit(const Options& options) {
  return std::make_unique<Audit>(options);
}

}  // namespace perfbench
