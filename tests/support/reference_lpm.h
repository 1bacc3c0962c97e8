// Longest-prefix match the slow, obvious way: one exact hash probe per
// prefix length, longest first. The oracle the LC-trie lookup
// (netbase/prefix_map.h) and the store's attribution index are checked
// against in the property tests; it shares no code with the trie.
#pragma once

#include <unordered_map>
#include <utility>

#include "netbase/ipv6.h"
#include "netbase/prefix_map.h"

namespace xmap::test_support {

template <typename T>
class ReferenceLpm {
 public:
  ReferenceLpm() = default;
  // Every entry of `map`.
  explicit ReferenceLpm(const net::PrefixMap<T>& map) {
    map.for_each([this](const net::Ipv6Prefix& p, const T& v) { insert(p, v); });
  }

  void insert(const net::Ipv6Prefix& prefix, T value) {
    entries_.insert_or_assign(prefix, std::move(value));
  }

  // The value of the longest prefix containing `addr`; nullptr if none.
  [[nodiscard]] const T* lookup(const net::Ipv6Address& addr) const {
    for (int len = 128; len >= 0; --len) {
      const auto it = entries_.find(net::Ipv6Prefix{addr, len});
      if (it != entries_.end()) return &it->second;
    }
    return nullptr;
  }

 private:
  std::unordered_map<net::Ipv6Prefix, T> entries_;
};

}  // namespace xmap::test_support
