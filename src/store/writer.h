// StoreBuilder: accumulates scan results and serializes them into the
// immutable store format (format.h).
//
// Determinism contract: serialize() output is a pure function of the
// *set* of records, geo entries and vendor names added — insertion order
// (including nondeterministic unordered_map walks upstream) never leaks
// into the bytes. Records are sorted by key; duplicate keys merge
// order-independently (response counts sum, service/flag bits OR, the
// "first response" fields come from the entry that is minimal under a
// total order). This is what makes `xmap_sim --store-file` byte-identical
// across --threads values.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/format.h"

namespace xmap::store {

class StoreBuilder {
 public:
  explicit StoreBuilder(std::uint32_t block_bytes = kDefaultBlockBytes);

  // Interns a vendor name; returns the provisional id to put in
  // Record::vendor (0 for the empty string = unidentified). Final file ids
  // are assigned in sorted-name order at serialize time.
  std::uint16_t vendor_id(const std::string& name);

  // Adds one record (any order; duplicate keys merge at serialize time).
  void add(const Record& record);

  // Adds one attribution entry (the producing scan's GeoDb content).
  void add_geo(const GeoEntry& entry);

  // Scan-identity metadata stamped into the header.
  void set_config_fingerprint(std::uint64_t fp) { config_fingerprint_ = fp; }
  void set_git_sha(const std::string& sha) { git_sha_ = sha; }

  [[nodiscard]] std::size_t pending_records() const {
    return records_.size();
  }

  // Builds the complete file image. Idempotent w.r.t. the added content;
  // callable once (it consumes and re-sorts internal state).
  [[nodiscard]] std::string serialize();

  // serialize() + atomic temp+rename write (recover::write_file_atomic).
  bool write(const std::string& path, std::string* error = nullptr);

 private:
  std::uint32_t block_bytes_;
  std::vector<Record> records_;
  std::vector<GeoEntry> geo_;
  std::vector<std::string> vendor_names_;  // [0] = "" (unidentified)
  std::unordered_map<std::string, std::uint16_t> vendor_ids_;
  std::uint64_t config_fingerprint_ = 0;
  std::string git_sha_;
};

// The source revision to stamp into headers: $GITHUB_SHA, else
// `git rev-parse HEAD`, else "unknown". Resolved on the first call and
// kept for the life of the process (serialize() runs once per export, and
// spawning git each time cost more than the encode). Stable across
// invocations on one checkout, so it never breaks producer byte-identity.
[[nodiscard]] const std::string& current_git_sha();

}  // namespace xmap::store
