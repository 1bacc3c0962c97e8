// Property tests for the compiled LC-trie lookup path in PrefixMap: for any
// prefix set and any address, lookup() (skip/stride walk over the compiled
// index) must return exactly what the reference LPM (one exact-match probe
// per prefix length, tests/support/reference_lpm.h) returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netbase/ipv6.h"
#include "netbase/random.h"
#include "tests/support/reference_lpm.h"
#include "topology/prefix_map.h"

namespace xmap::topo {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using net::Rng;
using net::Uint128;

Ipv6Address random_addr(Rng& rng) {
  return Ipv6Address::from_value(Uint128{rng.next(), rng.next()});
}

// Checks lookup() against the reference LPM on `probes` random addresses plus
// one address inside every inserted prefix (mutated around the prefix
// boundary so both just-inside and just-outside bit patterns occur).
void expect_equivalent(const PrefixMap<int>& map,
                       const std::vector<Ipv6Prefix>& prefixes, Rng& rng,
                       int probes) {
  const test_support::ReferenceLpm<int> reference{map};
  for (int i = 0; i < probes; ++i) {
    const Ipv6Address a = random_addr(rng);
    const int* fast = map.lookup(a);
    const int* ref = reference.lookup(a);
    ASSERT_EQ(fast == nullptr, ref == nullptr) << a.to_string();
    if (ref != nullptr) {
      ASSERT_EQ(*fast, *ref) << a.to_string();
    }
  }
  for (const auto& p : prefixes) {
    Uint128 v = p.address().value();
    // Randomise host bits below the prefix, then flip one bit at a random
    // depth — sometimes inside the prefix (leaves it), sometimes below.
    for (int b = 0; b < 128 - p.length(); ++b) {
      v.set_bit(b, rng.uniform(2) == 1);
    }
    if (p.length() > 0) {
      const int flip = static_cast<int>(rng.uniform(128));
      v.set_bit(127 - flip, !v.bit(127 - flip));
    }
    const Ipv6Address a = Ipv6Address::from_value(v);
    const int* fast = map.lookup(a);
    const int* ref = reference.lookup(a);
    ASSERT_EQ(fast == nullptr, ref == nullptr) << a.to_string();
    if (ref != nullptr) {
      ASSERT_EQ(*fast, *ref) << a.to_string();
    }
  }
}

TEST(LcTrie, EmptyMapMatchesNothing) {
  PrefixMap<int> map;
  Rng rng{1};
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(map.lookup(random_addr(rng)), nullptr);
  }
}

TEST(LcTrie, DefaultRouteOnly) {
  PrefixMap<int> map;
  map.insert(Ipv6Prefix{}, 42);
  Rng rng{2};
  for (int i = 0; i < 64; ++i) {
    const int* v = map.lookup(random_addr(rng));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 42);
  }
}

TEST(LcTrie, DenseSequentialPrefixes) {
  // Sibling-dense region: /64s counting up from a common /48, the shape
  // level compression flattens into wide strides.
  PrefixMap<int> map;
  std::vector<Ipv6Prefix> prefixes;
  const Uint128 base{0x2001'0db8'0001'0000, 0};
  for (int i = 0; i < 256; ++i) {
    Uint128 v = base;
    v = Uint128{v.hi() + static_cast<std::uint64_t>(i), v.lo()};
    const Ipv6Prefix p{Ipv6Address::from_value(v), 64};
    map.insert(p, i);
    prefixes.push_back(p);
  }
  Rng rng{3};
  expect_equivalent(map, prefixes, rng, 512);
}

TEST(LcTrie, SparseDeepPrefixes) {
  // Random /128 hosts: long valueless chains that exercise skip strings,
  // including skips longer than 64 bits (which must split across nodes).
  PrefixMap<int> map;
  std::vector<Ipv6Prefix> prefixes;
  Rng rng{4};
  for (int i = 0; i < 128; ++i) {
    const Ipv6Prefix p{random_addr(rng), 128};
    map.insert(p, i);
    prefixes.push_back(p);
  }
  expect_equivalent(map, prefixes, rng, 512);
}

TEST(LcTrie, NestedPrefixChains) {
  // Values at several depths along the same path: stride jumps must pick up
  // the deepest covering value via the pushed slots.
  PrefixMap<int> map;
  std::vector<Ipv6Prefix> prefixes;
  Rng rng{5};
  map.insert(Ipv6Prefix{}, -100);
  prefixes.push_back(Ipv6Prefix{});
  for (int i = 0; i < 64; ++i) {
    const Ipv6Address a = random_addr(rng);
    for (int len : {8, 16, 24, 37, 48, 64, 96, 128}) {
      const Ipv6Prefix p{a, len};
      map.insert(p, i * 1000 + len);
      prefixes.push_back(p);
    }
  }
  expect_equivalent(map, prefixes, rng, 512);
}

TEST(LcTrie, RandomMixedLengths) {
  PrefixMap<int> map;
  std::vector<Ipv6Prefix> prefixes;
  Rng rng{6};
  for (int i = 0; i < 400; ++i) {
    const int len = static_cast<int>(rng.uniform(129));
    const Ipv6Prefix p{random_addr(rng), len};
    map.insert(p, i);
    prefixes.push_back(p);
  }
  expect_equivalent(map, prefixes, rng, 1024);
}

TEST(LcTrie, MutationInvalidatesCompiledIndex) {
  PrefixMap<int> map;
  Rng rng{7};
  const Ipv6Prefix p1{*Ipv6Address::parse("2001:db8::"), 32};
  const Ipv6Prefix p2{*Ipv6Address::parse("2001:db8:1::"), 48};
  const Ipv6Address inside = *Ipv6Address::parse("2001:db8:1::42");

  map.insert(p1, 1);
  ASSERT_NE(map.lookup(inside), nullptr);  // compiles lazily here
  EXPECT_EQ(*map.lookup(inside), 1);

  map.insert(p2, 2);  // must invalidate and recompile
  ASSERT_NE(map.lookup(inside), nullptr);
  EXPECT_EQ(*map.lookup(inside), 2);

  ASSERT_TRUE(map.erase(p2));
  ASSERT_NE(map.lookup(inside), nullptr);
  EXPECT_EQ(*map.lookup(inside), 1);

  ASSERT_TRUE(map.erase(p1));
  EXPECT_EQ(map.lookup(inside), nullptr);
}

TEST(LcTrie, EagerCompileMatchesLazy) {
  PrefixMap<int> map;
  std::vector<Ipv6Prefix> prefixes;
  Rng rng{8};
  for (int i = 0; i < 100; ++i) {
    const Ipv6Prefix p{random_addr(rng),
                       static_cast<int>(rng.uniform(129))};
    map.insert(p, i);
    prefixes.push_back(p);
  }
  map.compile();  // pre-share path: index built before any lookup
  expect_equivalent(map, prefixes, rng, 256);
}

}  // namespace
}  // namespace xmap::topo
