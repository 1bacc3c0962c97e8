// Longest-prefix-match container over IPv6 prefixes.
//
// A binary trie on address bits, generic over the mapped value so it backs
// the forwarding tables (RoutingTable), the measurement lookups (GeoDb's
// prefix -> AS/country mapping) and the results store's attribution index
// (src/store compiles one per loaded snapshot). Nodes live in a flat vector for
// locality; an ISP router holding one route per subscriber does a lookup per
// forwarded packet, so this is on the simulator's hot path.
//
// Lookups are served from a level-compressed (LC) trie compiled from the
// binary trie (Nilsson & Karlsson): single-child valueless chains collapse
// into skip strings and dense regions branch on several bits at once, so a
// match costs a handful of multi-bit node visits instead of up to 128
// single-bit steps. Values on levels a stride jumps over are pushed into
// the jump table entries, keeping longest-prefix semantics exact (the
// equivalence property test in tests/topology/lc_trie_test.cc checks every
// lookup against an exact-match-per-length reference). The index compiles
// lazily on first lookup — or eagerly via compile() — and any insert/erase
// invalidates it; its arrays ride the thread-local BytePool so a mid-scan
// compile recycles pool blocks instead of hitting the heap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/compiler.h"
#include "netbase/ipv6.h"
#include "netbase/pool.h"

namespace xmap::net {

template <typename T>
class PrefixMap {
 public:
  PrefixMap() { nodes_.push_back(Node{}); }

  // Inserts or replaces the value at `prefix`.
  void insert(const Ipv6Prefix& prefix, T value) {
    std::size_t node = 0;
    const Uint128 bits = prefix.address().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int b = bits.bit(127 - depth) ? 1 : 0;
      if (nodes_[node].child[b] < 0) {
        nodes_[node].child[b] = static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(Node{});
      }
      node = static_cast<std::size_t>(nodes_[node].child[b]);
    }
    if (nodes_[node].value < 0) {
      nodes_[node].value = static_cast<std::int32_t>(values_.size());
      values_.push_back(std::move(value));
      ++size_;
    } else {
      values_[static_cast<std::size_t>(nodes_[node].value)] = std::move(value);
    }
    compiled_ = false;
  }

  // Longest-prefix match; nullptr when nothing matches.
  [[nodiscard]] const T* lookup(const Ipv6Address& addr) const {
    if (XMAP_UNLIKELY(!compiled_)) do_compile();
    const Uint128 v = addr.value();
    const std::uint64_t hi = v.hi();
    const std::uint64_t lo = v.lo();
    std::int32_t best = -1;
    std::size_t idx = 0;
    int depth = 0;
    for (;;) {
      const LcNode& n = lc_[idx];
      if (n.skip > 0) {
        if (get_bits(hi, lo, depth, n.skip) != n.skip_bits) break;
        depth += n.skip;
      }
      if (n.value >= 0) best = n.value;
      if (n.stride == 0) break;
      const LcEntry& e = entries_[static_cast<std::size_t>(n.child_base) +
                                  get_bits(hi, lo, depth, n.stride)];
      if (e.pushed >= 0) best = e.pushed;
      if (e.node < 0) break;
      depth += n.stride;
      idx = static_cast<std::size_t>(e.node);
    }
    return best < 0 ? nullptr : &values_[static_cast<std::size_t>(best)];
  }

  // Builds the LC index now instead of lazily on the first lookup. Call
  // before handing the map to concurrent readers (lazy compilation mutates
  // shared state; a compiled map's lookup path is fully const).
  void compile() const {
    if (!compiled_) do_compile();
  }

  // Exact-match lookup at a specific prefix; nullptr when absent.
  [[nodiscard]] const T* exact(const Ipv6Prefix& prefix) const {
    const Uint128 bits = prefix.address().value();
    std::size_t node = 0;
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int b = bits.bit(127 - depth) ? 1 : 0;
      const std::int32_t next = nodes_[node].child[b];
      if (next < 0) return nullptr;
      node = static_cast<std::size_t>(next);
    }
    return nodes_[node].value < 0
               ? nullptr
               : &values_[static_cast<std::size_t>(nodes_[node].value)];
  }

  // Removes the exact entry; returns whether one existed. (The trie node is
  // left in place — removal is rare and the memory cost is negligible.)
  bool erase(const Ipv6Prefix& prefix) {
    const Uint128 bits = prefix.address().value();
    std::size_t node = 0;
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int b = bits.bit(127 - depth) ? 1 : 0;
      const std::int32_t next = nodes_[node].child[b];
      if (next < 0) return false;
      node = static_cast<std::size_t>(next);
    }
    if (nodes_[node].value < 0) return false;
    nodes_[node].value = -1;
    --size_;
    compiled_ = false;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Visits every (prefix, value) pair in trie order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Uint128 bits{};
    walk(0, 0, bits, fn);
  }

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t value = -1;
  };

  // Compiled LC-trie node: after `skip` path-compressed bits (which must
  // equal `skip_bits`), apply `value` as the running best match, then
  // branch on the next `stride` bits into the entry array at `child_base`.
  // stride == 0 marks a leaf.
  struct LcNode {
    std::uint64_t skip_bits = 0;
    std::int32_t child_base = -1;
    std::int32_t value = -1;
    std::uint8_t skip = 0;
    std::uint8_t stride = 0;
  };
  // One jump-table slot: `pushed` is the deepest value on the binary path
  // the stride jumps over (depths 1..stride-1, or the partial path when the
  // subtree ends early and `node` is -1).
  struct LcEntry {
    std::int32_t node = -1;
    std::int32_t pushed = -1;
  };

  static constexpr int kMaxStride = 8;

  [[nodiscard]] static std::uint64_t bit_mask(int len) {
    return len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
  }
  // Bits [pos, pos+len) of the 128-bit big-endian address value, len <= 64.
  [[nodiscard]] static std::uint64_t get_bits(std::uint64_t hi,
                                              std::uint64_t lo, int pos,
                                              int len) {
    if (pos + len <= 64) return (hi >> (64 - pos - len)) & bit_mask(len);
    if (pos >= 64) return (lo >> (128 - pos - len)) & bit_mask(len);
    const int lo_len = pos + len - 64;
    return ((hi & bit_mask(64 - pos)) << lo_len) | (lo >> (64 - lo_len));
  }

  // Binary nodes at depth exactly `depth` below `bin` (stride heuristic).
  [[nodiscard]] std::size_t count_at_depth(std::size_t bin, int depth) const {
    if (depth == 0) return 1;
    std::size_t n = 0;
    for (int b = 0; b < 2; ++b) {
      if (nodes_[bin].child[b] >= 0) {
        n += count_at_depth(static_cast<std::size_t>(nodes_[bin].child[b]),
                            depth - 1);
      }
    }
    return n;
  }

  void do_compile() const {
    lc_.clear();
    entries_.clear();
    lc_.push_back(LcNode{});
    compile_node(0, 0);
    compiled_ = true;
  }

  // Compiles the binary subtree rooted at `bin` into lc_[out]. All writes
  // go through indices: lc_ and entries_ reallocate during recursion.
  void compile_node(std::size_t bin, std::size_t out) const {
    // Path-compress through valueless single-child chains. Chains longer
    // than 64 bits simply continue in the (stride-1) child node.
    std::uint64_t skip_bits = 0;
    int skip = 0;
    while (skip < 64 && nodes_[bin].value < 0 &&
           (nodes_[bin].child[0] < 0) != (nodes_[bin].child[1] < 0)) {
      const int b = nodes_[bin].child[1] >= 0 ? 1 : 0;
      skip_bits = (skip_bits << 1) | static_cast<std::uint64_t>(b);
      bin = static_cast<std::size_t>(nodes_[bin].child[b]);
      ++skip;
    }
    lc_[out].skip = static_cast<std::uint8_t>(skip);
    lc_[out].skip_bits = skip_bits;
    lc_[out].value = nodes_[bin].value;
    if (nodes_[bin].child[0] < 0 && nodes_[bin].child[1] < 0) return;

    // Level compression: branch on the widest level that is at least half
    // full, so sparse regions stay narrow and dense ones flatten.
    int stride = 1;
    for (int s = 2; s <= kMaxStride; ++s) {
      if (count_at_depth(bin, s) * 2 >= (std::size_t{1} << s)) stride = s;
    }
    lc_[out].stride = static_cast<std::uint8_t>(stride);
    const std::size_t base = entries_.size();
    lc_[out].child_base = static_cast<std::int32_t>(base);
    entries_.resize(base + (std::size_t{1} << stride));

    for (std::uint64_t e = 0; e < (std::uint64_t{1} << stride); ++e) {
      std::size_t cur = bin;
      std::int32_t pushed = -1;
      bool alive = true;
      for (int d = 0; d < stride; ++d) {
        const int b = static_cast<int>((e >> (stride - 1 - d)) & 1);
        const std::int32_t next = nodes_[cur].child[b];
        if (next < 0) {
          alive = false;
          break;
        }
        cur = static_cast<std::size_t>(next);
        if (d + 1 < stride && nodes_[cur].value >= 0) {
          pushed = nodes_[cur].value;
        }
      }
      if (!alive) {
        entries_[base + e].pushed = pushed;
        continue;
      }
      const auto child = static_cast<std::int32_t>(lc_.size());
      entries_[base + e] = LcEntry{child, pushed};
      lc_.push_back(LcNode{});
      compile_node(cur, static_cast<std::size_t>(child));
    }
  }

  template <typename Fn>
  void walk(std::size_t node, int depth, Uint128& bits, Fn&& fn) const {
    if (nodes_[node].value >= 0) {
      fn(Ipv6Prefix{Ipv6Address::from_value(bits), depth},
         values_[static_cast<std::size_t>(nodes_[node].value)]);
    }
    for (int b = 0; b < 2; ++b) {
      if (nodes_[node].child[b] < 0) continue;
      if (b) bits.set_bit(127 - depth, true);
      walk(static_cast<std::size_t>(nodes_[node].child[b]), depth + 1, bits,
           fn);
      if (b) bits.set_bit(127 - depth, false);
    }
  }

  std::vector<Node> nodes_;
  std::vector<T> values_;
  std::size_t size_ = 0;

  // Compiled index (mutable: rebuilt lazily from the const lookup path).
  mutable PoolVector<LcNode> lc_;
  mutable PoolVector<LcEntry> entries_;
  mutable bool compiled_ = false;
};

}  // namespace xmap::net
