// store_query: the results store's read path. Preparation builds a
// census-sized world (no scan) and encodes its ground-truth device table as
// a snapshot file; setup is Snapshot::load (mmap + full validation). The
// job runs 2 closed-loop reader threads over a seeded mix of point lookups
// (hits and near misses), prefix scans and aggregate/summarize calls.
// Every answer is compared with the in-memory source table or a flat
// recompute of the aggregates.
#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "analysis/store_export.h"
#include "netbase/random.h"
#include "replay.h"
#include "store/query.h"
#include "store/snapshot.h"
#include "store/writer.h"
#include "topology/paper_profiles.h"

namespace perfbench {
namespace {

constexpr int kReaders = 2;
constexpr store::GroupBy kGroupings[] = {
    store::GroupBy::kAsn, store::GroupBy::kCountry, store::GroupBy::kVendor,
    store::GroupBy::kService};

enum class OpKind : std::uint8_t { kLookup, kScan, kAggregate, kSummarize };

struct Op {
  OpKind kind = OpKind::kLookup;
  net::Ipv6Address key;     // lookup key
  net::Ipv6Prefix prefix;   // scan prefix
  store::GroupBy by = store::GroupBy::kAsn;
};

// One answer as the reader saw it; compared after the job.
struct Answer {
  bool found = false;
  store::Record record;
  std::uint64_t count = 0;  // scan: records visited; aggregate: rows
  std::uint64_t sum = 0;    // scan: summed responses
  std::vector<store::AggRow> rows;
  store::PeripherySummary summary;
};

struct Reader {
  std::vector<Op> ops;
  std::vector<Answer> answers;
  std::vector<std::uint32_t> lookup_ns;
};

using AggMap = std::map<std::string, store::AggRow>;

class StoreQuery final : public Workload {
 public:
  explicit StoreQuery(const Options& options) : options_(options) {
    build_.window_bits = options.tiny ? 8 : 16;
    build_.seed = options.seed;
    path_ = options.out_dir + "/store_query_seed" +
            std::to_string(options.seed) + ".xstore";
  }

  void prepare(Spans& spans) override {
    world_ = build_world(spans, topo::paper::isp_specs(), build_);
    const auto t0 = Clock::now();
    {
      Spans::Scope span{spans, "store.generate_encode"};
      store::StoreBuilder builder;
      ana::fill_geo(builder, world_.internet.geo);
      std::uint64_t i = 0;
      for (const auto& isp : world_.internet.isps) {
        for (const auto& d : isp.devices) {
          store::Record rec = source_record(isp, d, i++);
          const std::string& vendor = world_.internet.vendor(d.vendor).name;
          rec.vendor = builder.vendor_id(vendor);
          builder.add(rec);
          rec.vendor = 0;
          source_.push_back({rec, vendor});
        }
      }
      image_ = builder.serialize();
    }
    encode_s_ = seconds_since(t0);
    std::sort(source_.begin(), source_.end(),
              [](const Source& a, const Source& b) {
                return a.rec.key < b.rec.key;
              });
    if (std::FILE* f = std::fopen(path_.c_str(), "wb")) {
      std::fwrite(image_.data(), 1, image_.size(), f);
      std::fclose(f);
    }
    for (auto by : kGroupings) flat_[static_cast<int>(by)] = flat_aggregate(by);
    make_ops();
  }

  void setup(Spans& spans) override {
    snap_.reset();
    Spans::Scope span{spans, "store.load"};
    auto loaded = store::Snapshot::load(path_);
    if (!loaded.snapshot) throw std::runtime_error(loaded.error);
    snap_ = std::move(loaded.snapshot);
  }

  void job(Spans& spans, bool traced) override {
    (void)traced;
    const auto t0 = Clock::now();
    Spans::Scope span{spans, "store.readers"};
    std::vector<std::thread> threads;
    for (auto& reader : readers_) {
      threads.emplace_back([this, &reader] { run_reader(reader); });
    }
    for (auto& t : threads) t.join();
    job_s_ = seconds_since(t0);
  }

  void check(Report& report) override {
    std::uint64_t attempted = 0;
    std::uint64_t wrong = 0;
    bool injected = options_.inject != "wrong_answer";
    for (auto& reader : readers_) {
      for (std::size_t i = 0; i < reader.ops.size(); ++i) {
        Answer& a = reader.answers[i];
        if (!injected && reader.ops[i].kind == OpKind::kLookup && a.found) {
          ++a.record.responses;  // self-test defect: one wrong answer
          injected = true;
        }
        ++attempted;
        wrong += agrees(reader.ops[i], a) ? 0 : 1;
      }
    }
    report.tally(attempted, wrong,
                 "store_query: answers differing from the source table");
    report.require(snap_->record_count() == source_.size(),
                   "store_query: snapshot record count != source rows");
  }

  [[nodiscard]] double ops() const override {
    double n = 0;
    for (const auto& r : readers_) n += static_cast<double>(r.ops.size());
    return n;
  }

  void describe(Report& report, double wall_s) override {
    std::vector<double> us;
    for (const auto& r : readers_) {
      for (auto ns : r.lookup_ns) us.push_back(static_cast<double>(ns) / 1e3);
    }
    report.info("store_query.lookups_per_s",
                static_cast<double>(us.size()) / wall_s, "1/s");
    report.info("store_query.lookup_p50_us", quantile(us, 0.5), "us");
    report.info("store_query.lookup_p99_us", quantile(us, 0.99), "us");
    report.info("store_query.lookup_samples", static_cast<double>(us.size()),
                "count");
  }

  void layers(Spans& spans, Ledger& ledger, Report& report) override {
    fill_world_ledger(world_, ledger);
    ledger["store.encode_s"] = {encode_s_, "s"};
    ledger["store.bytes_per_record"] = {
        static_cast<double>(image_.size()) /
            std::max<double>(1, static_cast<double>(source_.size())),
        "B"};
    replay_store_queries(spans, image_,
                         options_.out_dir + "/store_query_replay.xstore",
                         ledger);

    // The store's share of the readers' CPU time (2 threads x wall).
    double lookups = 0;
    double scanned = 0;
    for (const auto& r : readers_) {
      for (std::size_t i = 0; i < r.ops.size(); ++i) {
        if (r.ops[i].kind == OpKind::kLookup) lookups += 1;
        if (r.ops[i].kind == OpKind::kScan) {
          scanned += static_cast<double>(r.answers[i].count);
        }
      }
    }
    const double attributed_s =
        (ledger["store.lookup_ns"].first * lookups +
         ledger["store.scan_ns_per_record"].first * scanned) /
            1e9 +
        ledger["store.aggregate_s"].first * kReaders;

    // Layers the store workload does not call, replayed on the world the
    // snapshot was generated from: one window scanned directly (sim.*),
    // a capped engine scan, and the analysis/loopattack calls.
    scan::ScanConfig cfg;
    cfg.source = scan_source();
    cfg.seed = options_.seed;
    cfg.targets = {window_spec(world_.internet.isps[0])};
    const SimReplay replay = run_sim_replay(spans, world_, cfg,
                                            scan::IcmpEchoProbe{}, {},
                                            scan_vantage());
    report.require(replay.clamped == 0, "store_query: events clamped to now");
    const std::vector<scan::ProbeResponse> records =
        replay_engine(spans, build_, options_.seed, 1u << 16, ledger);
    const ScanLayerCosts costs = replay_scan_layers(
        spans, world_.internet, options_.seed, records, ledger);
    fill_scan_ledger(replay, replay.run_s, costs,
                     static_cast<double>(replay.stats.sent),
                     static_cast<double>(replay.stats.received),
                     static_cast<double>(replay.records.size()), ledger);
    ledger["fabric.bytes_per_record"] = {
        replay_fabric_frames(spans, records, ledger), "B"};
    ledger["fabric.retransmits"] = {0, "count"};
    World fresh = build_world(spans, topo::paper::isp_specs(), build_);
    replay_analysis_layers(spans, fresh, 64, ledger);
    measure_case_study(spans, ledger);

    ledger["ledger.unattributed_share"] = {
        job_s_ <= 0 ? 0.0 : 1.0 - attributed_s / (kReaders * job_s_),
        "share"};
  }

 private:
  struct Source {
    store::Record rec;  // vendor id 0: compared by name
    std::string vendor;
  };

  [[nodiscard]] store::Record source_record(const topo::IspInstance& isp,
                                            const topo::DeviceRecord& d,
                                            std::uint64_t i) const {
    store::Record rec;
    rec.key = d.address;
    rec.probe_dst = slot_probe(isp, d, options_.seed);
    rec.kind = static_cast<std::uint8_t>(
        rec.key == rec.probe_dst ? scan::ResponseKind::kEchoReply
                                 : scan::ResponseKind::kDestUnreachable);
    rec.hop_limit = 60;
    if (d.loop_wan || d.loop_lan) rec.flags |= store::kFlagLoopCandidate;
    for (const auto& [kind, sw] : d.services) {
      rec.services |= static_cast<std::uint16_t>(1u << static_cast<int>(kind));
    }
    rec.responses = 1 + i % 3;
    rec.first_us = i;
    return rec;
  }

  [[nodiscard]] AggMap flat_aggregate(store::GroupBy by) const {
    AggMap rows;
    auto bump = [&rows](const std::string& key, const store::Record& r) {
      store::AggRow& row = rows[key];
      row.key = key;
      ++row.records;
      row.responses += r.responses;
      if ((r.flags & store::kFlagLoopCandidate) != 0) ++row.loop_candidates;
      if ((r.flags & store::kFlagLoopConfirmed) != 0) ++row.loop_confirmed;
    };
    for (const auto& s : source_) {
      const topo::GeoInfo* geo = world_.internet.geo.lookup(s.rec.key);
      switch (by) {
        case store::GroupBy::kAsn: {
          std::string key = "unattributed";
          if (geo != nullptr) {
            key = "AS" + std::to_string(geo->asn);
            if (!geo->as_name.empty()) key += " " + geo->as_name;
          }
          bump(key, s.rec);
          break;
        }
        case store::GroupBy::kCountry:
          bump(geo != nullptr && geo->country.size() >= 2
                   ? geo->country.substr(0, 2)
                   : std::string{"--"},
               s.rec);
          break;
        case store::GroupBy::kVendor:
          bump(s.vendor.empty() ? std::string{"unknown"} : s.vendor, s.rec);
          break;
        case store::GroupBy::kService:
          for (int k = 0; k < svc::kServiceCount; ++k) {
            if ((s.rec.services >> k & 1u) != 0) {
              bump(svc::service_name(static_cast<svc::ServiceKind>(k)), s.rec);
            }
          }
          break;
      }
    }
    return rows;
  }

  // Seeded op mix per reader: lookups (hits and near misses) with prefix
  // scans spread among them, and one of each aggregate plus a summary.
  void make_ops() {
    const std::size_t lookups = options_.tiny ? 2000 : 150000;
    const std::size_t scans = options_.tiny ? 8 : 64;
    net::Rng rng{options_.seed ^ 0x5157ULL};
    for (int t = 0; t < kReaders; ++t) {
      Reader reader;
      for (std::size_t i = 0; i < lookups; ++i) {
        const auto& key = source_[rng.uniform(source_.size())].rec.key;
        Op op;
        op.key = i % 2 == 0 ? key
                            : net::Ipv6Address::from_value(key.value() +
                                                           net::Uint128{1});
        reader.ops.push_back(op);
        if (i % (lookups / scans) == 0) {
          Op scan;
          scan.kind = OpKind::kScan;
          const auto& k = source_[rng.uniform(source_.size())].rec.key;
          scan.prefix = net::Ipv6Prefix{k, 44};
          reader.ops.push_back(scan);
        }
      }
      for (auto by : kGroupings) {
        Op agg;
        agg.kind = OpKind::kAggregate;
        agg.by = by;
        reader.ops.insert(
            reader.ops.begin() +
                static_cast<std::ptrdiff_t>(rng.uniform(reader.ops.size())),
            agg);
      }
      Op sum;
      sum.kind = OpKind::kSummarize;
      reader.ops.push_back(sum);
      reader.answers.resize(reader.ops.size());
      reader.lookup_ns.reserve(lookups);
      readers_.push_back(std::move(reader));
    }
  }

  void run_reader(Reader& reader) const {
    const store::Snapshot& snap = *snap_;
    reader.lookup_ns.clear();
    for (std::size_t i = 0; i < reader.ops.size(); ++i) {
      const Op& op = reader.ops[i];
      Answer& a = reader.answers[i];
      switch (op.kind) {
        case OpKind::kLookup: {
          const auto t0 = Clock::now();
          a.found = snap.lookup(op.key, &a.record);
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count();
          reader.lookup_ns.push_back(static_cast<std::uint32_t>(ns));
          break;
        }
        case OpKind::kScan:
          a.sum = 0;
          a.count = snap.scan_prefix(op.prefix, [&a](const store::Record& r) {
            a.sum += r.responses;
          });
          break;
        case OpKind::kAggregate:
          a.rows = store::aggregate(snap, op.by);
          break;
        case OpKind::kSummarize:
          a.summary = store::summarize(snap);
          break;
      }
    }
  }

  [[nodiscard]] bool agrees(const Op& op, const Answer& a) const {
    switch (op.kind) {
      case OpKind::kLookup: {
        const auto it = std::lower_bound(
            source_.begin(), source_.end(), op.key,
            [](const Source& s, const net::Ipv6Address& k) {
              return s.rec.key < k;
            });
        const bool present = it != source_.end() && it->rec.key == op.key;
        if (present != a.found) return false;
        if (!present) return true;
        store::Record got = a.record;
        const std::string vendor{snap_->vendor_name(got.vendor)};
        got.vendor = 0;
        return got == it->rec && vendor == it->vendor;
      }
      case OpKind::kScan: {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        for (const auto& s : source_) {
          if (op.prefix.contains(s.rec.key)) {
            ++count;
            sum += s.rec.responses;
          }
        }
        return count == a.count && sum == a.sum;
      }
      case OpKind::kAggregate: {
        const AggMap& want = flat_[static_cast<int>(op.by)];
        if (want.size() != a.rows.size()) return false;
        for (const auto& row : a.rows) {
          const auto it = want.find(row.key);
          if (it == want.end() || !(it->second == row)) return false;
        }
        return true;
      }
      case OpKind::kSummarize: {
        std::uint64_t loops = 0;
        for (const auto& s : source_) {
          loops += (s.rec.flags & store::kFlagLoopCandidate) != 0 ? 1 : 0;
        }
        return a.summary.records == source_.size() &&
               a.summary.loop_candidates == loops;
      }
    }
    return false;
  }

  Options options_;
  topo::BuildConfig build_;
  std::string path_;
  World world_;
  std::vector<Source> source_;
  std::string image_;
  double encode_s_ = 0;
  AggMap flat_[4];
  std::vector<Reader> readers_;
  std::unique_ptr<store::Snapshot> snap_;
  double job_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_store_query(const Options& options) {
  return std::make_unique<StoreQuery>(options);
}

}  // namespace perfbench
