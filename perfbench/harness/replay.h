// Per-layer replays for the traced run.
//
// Each replay times one layer's public functions, from outside, on the
// workload's own data: its targets (the world's scan windows), the
// responses and records it produced, and the store image it encoded. The
// per-operation costs feed the ledger, which multiplies them by the
// workload's operation counts and compares the sum with the time the scan
// actually spent in the simulator.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "world.h"

namespace perfbench {

struct ScanLayerCosts {
  double permute_ns = 0;   // per target: CyclicGroup draw + nth_address
  double patch_ns = 0;     // per probe: ProbeModule::patch_probe
  double checksum_ns = 0;  // per probe frame: internet_checksum
  double lpm_ns = 0;       // per destination: edge-router LC-trie lookup
  double classify_ns = 0;  // per response: ProbeModule::classify
  double parse_ns = 0;     // per response: IPv6 + ICMPv6 (+ quote) parse
  double output_ns = 0;    // per record: JsonlWriter
};

// xmap.*, netbase.* and packet.parse_ns. `records` are the responses the
// workload received (the scan's own, or a replay scan's).
[[nodiscard]] ScanLayerCosts replay_scan_layers(
    Spans& spans, const topo::BuiltInternet& internet, std::uint64_t seed,
    const std::vector<scan::ProbeResponse>& records, Ledger& ledger);

// fabric.frame_encode_ns / frame_decode_ns / reassemble_ns over the
// records cut into the fabric's Records batches. Returns the encoded bytes
// per record.
double replay_fabric_frames(Spans& spans,
                            const std::vector<scan::ProbeResponse>& records,
                            Ledger& ledger);

// A store image from raw records (ana::add_response + fill_geo), timed as
// store.encode_s; sets store.bytes_per_record.
[[nodiscard]] std::string encode_records_store(
    Spans& spans, const topo::BuiltInternet& internet,
    const std::vector<scan::ProbeResponse>& records, Ledger& ledger);

// store.load_s / lookup_ns / scan_ns_per_record / aggregate_s, single
// threaded, on a store image written to `path` first.
void replay_store_queries(Spans& spans, const std::string& image,
                          const std::string& path, Ledger& ledger);

// analysis.* and loopattack.* on workloads whose job does not call them:
// a grab of all eight services on `grab_targets` device addresses and a
// loop scan of the world's smallest window, on `world`; and the case-study
// model matrix.
void replay_analysis_layers(Spans& spans, World& world,
                            std::size_t grab_targets, Ledger& ledger);
void measure_case_study(Spans& spans, Ledger& ledger);

// engine.replica_build_s / merge_s on workloads whose job does not call
// the engine: a one-worker engine scan of the workload's world class,
// capped at `max_targets` (0 = every delegation). Returns its responses.
[[nodiscard]] std::vector<scan::ProbeResponse> replay_engine(
    Spans& spans, const topo::BuildConfig& build, std::uint64_t seed,
    std::uint64_t max_targets, Ledger& ledger);

// The scan workloads' sim.* entries and the ledger residue: sim.run_s is
// the simulator's share of the scan, `sent`/`received`/`records` the
// scan's totals; the replay supplies the per-probe substrate counts.
void fill_scan_ledger(const SimReplay& replay, double sim_run_s,
                      const ScanLayerCosts& costs, double sent,
                      double received, double records, Ledger& ledger);

}  // namespace perfbench
