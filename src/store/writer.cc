#include "store/writer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "recover/checkpoint.h"

namespace xmap::store {

namespace {

// Total order used to pick the canonical "first response" fields when
// duplicate keys merge — insertion-order independent by construction.
[[nodiscard]] auto first_fields_rank(const Record& r) {
  return std::tuple(r.first_us, r.probe_dst, static_cast<int>(r.kind),
                    static_cast<int>(r.icmp_code),
                    static_cast<int>(r.hop_limit));
}

[[nodiscard]] auto geo_rank(const GeoEntry& g) {
  return std::tuple(g.prefix, g.asn, g.country[0], g.country[1], g.as_name);
}

}  // namespace

StoreBuilder::StoreBuilder(std::uint32_t block_bytes)
    : block_bytes_(block_bytes < 256 ? 256 : block_bytes) {
  vendor_names_.emplace_back();
  vendor_ids_[""] = 0;
}

std::uint16_t StoreBuilder::vendor_id(const std::string& name) {
  auto [it, inserted] =
      vendor_ids_.try_emplace(name, static_cast<std::uint16_t>(
                                        vendor_names_.size()));
  if (inserted) vendor_names_.push_back(name);
  return it->second;
}

void StoreBuilder::add(const Record& record) { records_.push_back(record); }

void StoreBuilder::add_geo(const GeoEntry& entry) { geo_.push_back(entry); }

std::string StoreBuilder::serialize() {
  // --- canonicalise vendors: sorted unique names, "" stays id 0 ----------
  std::vector<std::string> sorted_names(vendor_names_.begin() + 1,
                                        vendor_names_.end());
  std::sort(sorted_names.begin(), sorted_names.end());
  sorted_names.erase(
      std::unique(sorted_names.begin(), sorted_names.end()),
      sorted_names.end());
  std::vector<std::uint16_t> remap(vendor_names_.size(), 0);
  for (std::size_t old = 1; old < vendor_names_.size(); ++old) {
    const auto it = std::lower_bound(sorted_names.begin(),
                                     sorted_names.end(), vendor_names_[old]);
    remap[old] = static_cast<std::uint16_t>(
        1 + (it - sorted_names.begin()));
  }
  for (Record& r : records_) {
    r.vendor = r.vendor < remap.size() ? remap[r.vendor] : 0;
  }

  // --- sort and merge duplicate keys (order-independent) -----------------
  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) {
              if (a.key != b.key) return a.key < b.key;
              return first_fields_rank(a) < first_fields_rank(b);
            });
  std::vector<Record> merged;
  merged.reserve(records_.size());
  for (const Record& r : records_) {
    if (!merged.empty() && merged.back().key == r.key) {
      Record& m = merged.back();
      // The sort already put the rank-minimal entry first, so its
      // first-response fields stand; later duplicates only accumulate.
      m.responses += r.responses;
      m.services |= r.services;
      m.flags |= r.flags;
      if (m.vendor == 0) m.vendor = r.vendor;
      continue;
    }
    merged.push_back(r);
  }

  std::sort(geo_.begin(), geo_.end(), [](const GeoEntry& a,
                                         const GeoEntry& b) {
    return geo_rank(a) < geo_rank(b);
  });
  geo_.erase(std::unique(geo_.begin(), geo_.end(),
                         [](const GeoEntry& a, const GeoEntry& b) {
                           return a.prefix == b.prefix;
                         }),
             geo_.end());

  // --- data blocks -------------------------------------------------------
  std::string blocks;
  std::vector<BlockInfo> index;
  std::string cur;
  cur.reserve(block_bytes_);
  std::uint32_t cur_count = 0;
  net::Ipv6Address first_key;
  auto flush = [&] {
    if (cur_count == 0) return;
    BlockInfo info;
    info.first_key = first_key;
    info.record_count = cur_count;
    info.used_bytes = static_cast<std::uint32_t>(cur.size());
    cur.resize(block_bytes_, '\0');
    info.checksum = fnv1a(cur.data(), cur.size());
    index.push_back(info);
    blocks += cur;
    cur.clear();
    cur_count = 0;
  };
  std::string one;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Record& r = merged[i];
    one.clear();
    const net::Ipv6Address prev =
        cur_count > 0 ? merged[i - 1].key : net::Ipv6Address{};
    encode_record(one, r, cur_count > 0 ? &prev : nullptr);
    if (!cur.empty() && cur.size() + one.size() > block_bytes_) {
      flush();
      one.clear();
      encode_record(one, r, nullptr);
    }
    if (cur_count == 0) first_key = r.key;
    cur += one;
    ++cur_count;
  }
  flush();

  // --- assemble file -----------------------------------------------------
  FileHeader header;
  header.block_bytes = block_bytes_;
  header.block_count = index.size();
  header.record_count = merged.size();
  header.config_fingerprint = config_fingerprint_;
  const std::string& sha = git_sha_.empty() ? current_git_sha() : git_sha_;
  for (std::size_t i = 0; i < header.git_sha.size() && i < sha.size(); ++i) {
    header.git_sha[i] = sha[i];
  }
  header.index_offset = kHeaderBytes + blocks.size();
  header.geo_offset = header.index_offset + index.size() * kIndexEntryBytes;

  std::string geo_bytes;
  put_u64(geo_bytes, geo_.size());
  for (const GeoEntry& g : geo_) {
    geo_bytes.append(
        reinterpret_cast<const char*>(g.prefix.address().bytes().data()), 16);
    geo_bytes.push_back(static_cast<char>(g.prefix.length()));
    put_varint64(geo_bytes, g.asn);
    geo_bytes.push_back(g.country[0]);
    geo_bytes.push_back(g.country[1]);
    put_varint64(geo_bytes, g.as_name.size());
    geo_bytes += g.as_name;
  }
  header.vendor_offset = header.geo_offset + geo_bytes.size();

  std::string vendor_bytes;
  put_u32(vendor_bytes, static_cast<std::uint32_t>(sorted_names.size()));
  for (const std::string& name : sorted_names) {
    put_varint64(vendor_bytes, name.size());
    vendor_bytes += name;
  }
  header.trailer_offset = header.vendor_offset + vendor_bytes.size();

  std::string out = serialize_header(header);
  out += blocks;
  for (const BlockInfo& info : index) out += serialize_index_entry(info);
  out += geo_bytes;
  out += vendor_bytes;
  const std::uint64_t file_hash = fnv1a(out.data(), out.size());
  put_u64(out, file_hash);
  put_u64(out, header.trailer_offset);
  out.append(kEndMagic, sizeof kEndMagic);
  return out;
}

bool StoreBuilder::write(const std::string& path, std::string* error) {
  return recover::write_file_atomic(path, serialize(), error);
}

const std::string& current_git_sha() {
  static const std::string sha = [] {
    if (const char* env = std::getenv("GITHUB_SHA")) return std::string{env};
    std::string resolved = "unknown";
    if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[64] = {};
      if (std::fgets(buf, sizeof buf, p) != nullptr) {
        std::string s{buf};
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
          s.pop_back();
        }
        if (!s.empty()) resolved = s;
      }
      ::pclose(p);
    }
    return resolved;
  }();
  return sha;
}

}  // namespace xmap::store
