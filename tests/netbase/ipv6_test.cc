#include "netbase/ipv6.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include "netbase/random.h"

namespace xmap::net {
namespace {

TEST(Ipv6Address, ParseFull) {
  auto a = Ipv6Address::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(Ipv6Address, ParseCompressed) {
  auto a = Ipv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  EXPECT_EQ(a->group(7), 1);
  for (int i = 2; i < 7; ++i) EXPECT_EQ(a->group(i), 0) << i;
}

TEST(Ipv6Address, ParseAllZeros) {
  auto a = Ipv6Address::parse("::");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_unspecified());
  EXPECT_EQ(a->to_string(), "::");
}

TEST(Ipv6Address, ParseLoopback) {
  auto a = Ipv6Address::parse("::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_loopback());
  EXPECT_EQ(a->to_string(), "::1");
}

TEST(Ipv6Address, ParseTrailingCompression) {
  auto a = Ipv6Address::parse("2001:db8::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::");
}

TEST(Ipv6Address, ParseEmbeddedIpv4) {
  auto a = Ipv6Address::parse("::ffff:192.168.1.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(5), 0xffff);
  EXPECT_EQ(a->group(6), 0xc0a8);
  EXPECT_EQ(a->group(7), 0x0101);
}

TEST(Ipv6Address, ParseFullWithIpv4Tail) {
  auto a = Ipv6Address::parse("0:0:0:0:0:ffff:10.0.0.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(6), 0x0a00);
  EXPECT_EQ(a->group(7), 0x0001);
}

TEST(Ipv6Address, ParseSevenGroupsWithCompression) {
  auto a = Ipv6Address::parse("1:2:3:4:5:6:7::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(6), 7);
  EXPECT_EQ(a->group(7), 0);
}

struct BadInput {
  const char* text;
  const char* why;
};

// Names each case by its reason, so the test name is the same on every build
// (the default printer shows the raw pointer bytes).
void PrintTo(const BadInput& b, std::ostream* os) { *os << b.why; }

class Ipv6ParseRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(Ipv6ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv6Address::parse(GetParam().text).has_value())
      << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv6ParseRejects,
    ::testing::Values(
        BadInput{"", "empty"}, BadInput{":", "single colon"},
        BadInput{":::", "triple colon"},
        BadInput{"1:2:3:4:5:6:7", "seven groups, no compression"},
        BadInput{"1:2:3:4:5:6:7:8:9", "nine groups"},
        BadInput{"1:2:3:4:5:6:7:8::", "compression with eight groups"},
        BadInput{"::1::2", "two compressions"},
        BadInput{"12345::", "five hex digits"},
        BadInput{"g::1", "non-hex digit"},
        BadInput{"1:2:3:4:5:6:1.2.3.4.5", "five octets"},
        BadInput{"::256.1.1.1", "octet out of range"},
        BadInput{"::1.2.3", "three octets"},
        BadInput{"1:", "trailing colon"},
        BadInput{"2001:db8::1 ", "trailing space"}));

TEST(Ipv6Address, Rfc5952LeftmostLongestRun) {
  // Two runs of equal length: compress the leftmost.
  auto a = Ipv6Address::parse("2001:0:0:1:0:0:0:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:0:0:1::1");
  // Longer second run: compress it.
  auto b = Ipv6Address::parse("2001:0:0:1:0:0:0:0");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->to_string(), "2001:0:0:1::");
}

TEST(Ipv6Address, Rfc5952NoSingleGroupCompression) {
  auto a = Ipv6Address::parse("2001:db8:0:1:1:1:1:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8:0:1:1:1:1:1");
}

TEST(Ipv6Address, Rfc5952Lowercase) {
  auto a = Ipv6Address::parse("2001:DB8::ABCD");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::abcd");
}

TEST(Ipv6Address, ValueRoundTrip) {
  auto a = Ipv6Address::parse("2001:db8:1234:5678:9abc:def0:1357:2468");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(Ipv6Address::from_value(a->value()), *a);
  EXPECT_EQ(a->value().hi(), 0x20010db812345678ULL);
  EXPECT_EQ(a->value().lo(), 0x9abcdef013572468ULL);
  EXPECT_EQ(a->prefix64(), 0x20010db812345678ULL);
  EXPECT_EQ(a->iid(), 0x9abcdef013572468ULL);
}

// Golden RFC 5952 text for every formatting rule, through both entry
// points (to_string is a wrapper over format_to).
TEST(Ipv6Address, FormatToGoldenStrings) {
  const std::pair<const char*, const char*> cases[] = {
      {"0:0:0:0:0:0:0:0", "::"},
      {"0:0:0:0:0:0:0:1", "::1"},
      {"0:0:0:0:0:ffff:c000:0280", "::ffff:192.0.2.128"},
      {"::ffff:0.0.0.0", "::ffff:0.0.0.0"},
      {"::ffff:255.255.255.255", "::ffff:255.255.255.255"},
      // Leading, trailing and middle zero runs.
      {"0:0:0:1:2:3:4:5", "::1:2:3:4:5"},
      {"1:2:3:4:5:0:0:0", "1:2:3:4:5::"},
      {"2001:db8:0:0:0:0:2:1", "2001:db8::2:1"},
      // Equal-length runs: the leftmost is compressed.
      {"1:0:0:2:0:0:3:4", "1::2:0:0:3:4"},
      {"2001:0:0:1:0:0:0:1", "2001:0:0:1::1"},
      // A lone zero group is not compressed.
      {"2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"},
      {"1:2:3:4:5:6:7:0", "1:2:3:4:5:6:7:0"},
      {"0:1:2:3:4:5:6:7", "0:1:2:3:4:5:6:7"},
      {"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
       "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
      {"0abc:00de:000f:1000:0:0:0:0", "abc:de:f:1000::"},
      // Not v4-mapped: the dotted tail is for ::ffff:0:0/96 only.
      {"0:0:0:0:1:ffff:0102:0304", "::1:ffff:102:304"},
  };
  for (const auto& [text, want] : cases) {
    const auto a = Ipv6Address::parse(text);
    ASSERT_TRUE(a.has_value()) << text;
    EXPECT_EQ(a->to_string(), want) << text;
    char buf[Ipv6Address::kMaxTextLength];
    char* end = a->format_to(buf);
    EXPECT_EQ(std::string(buf, end), want) << text;
  }
}

// The formatter this one replaced (one snprintf per group), kept here as
// the independent reference for the property sweep below.
std::string snprintf_reference(const Ipv6Address& a) {
  if (a.group(0) == 0 && a.group(1) == 0 && a.group(2) == 0 &&
      a.group(3) == 0 && a.group(4) == 0 && a.group(5) == 0xffff) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "::ffff:%u.%u.%u.%u", a.byte(12),
                  a.byte(13), a.byte(14), a.byte(15));
    return std::string{buf};
  }
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (a.group(i) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && a.group(j) == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  std::string out;
  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      out += "::";
      i += best_len - 1;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    char g[8];
    std::snprintf(g, sizeof g, "%x", a.group(i));
    out += g;
  }
  return out;
}

// Seeded addresses rich in zero groups and short groups (every run shape
// and digit count occurs), plus v4-mapped ones: format_to must equal the
// snprintf reference and parse back to the same address.
TEST(Ipv6Address, FormatMatchesSnprintfReferenceOn100kAddresses) {
  Rng rng{5952};
  char buf[Ipv6Address::kMaxTextLength];
  for (int i = 0; i < 100'000; ++i) {
    std::array<std::uint8_t, 16> b{};
    for (int g = 0; g < 8; ++g) {
      std::uint16_t v = 0;
      switch (rng.uniform(4)) {
        case 0: break;  // a zero group
        case 1: v = static_cast<std::uint16_t>(rng.uniform(16)); break;
        case 2: v = static_cast<std::uint16_t>(rng.uniform(0x1000)); break;
        default: v = static_cast<std::uint16_t>(rng.next()); break;
      }
      b[static_cast<std::size_t>(2 * g)] = static_cast<std::uint8_t>(v >> 8);
      b[static_cast<std::size_t>(2 * g + 1)] = static_cast<std::uint8_t>(v);
    }
    if (rng.uniform(16) == 0) {  // v4-mapped
      for (int k = 0; k < 10; ++k) b[static_cast<std::size_t>(k)] = 0;
      b[10] = b[11] = 0xff;
    }
    const Ipv6Address a{b};
    const std::string text(buf, a.format_to(buf));
    ASSERT_EQ(text, snprintf_reference(a)) << i;
    ASSERT_EQ(a.to_string(), text);
    const auto reparsed = Ipv6Address::parse(text);
    ASSERT_TRUE(reparsed.has_value()) << text;
    ASSERT_EQ(*reparsed, a) << text;
  }
}

// value()/from_value() evaluate at compile time (the static_asserts) and
// give the same big-endian value at run time.
constexpr std::array<std::uint8_t, 16> kValueBytes = {
    0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56, 0x78,
    0x9a, 0xbc, 0xde, 0xf0, 0x13, 0x57, 0x24, 0x68};
constexpr Uint128 kConstValue = Ipv6Address{kValueBytes}.value();
static_assert(kConstValue == Uint128{0x20010db812345678ULL,
                                     0x9abcdef013572468ULL});
static_assert(Ipv6Address::from_value(kConstValue).bytes() == kValueBytes);
static_assert(Ipv6Address{}.value().is_zero());
static_assert(Ipv6Address::from_value(Uint128{1}).byte(15) == 1);

TEST(Ipv6Address, RuntimeValueMatchesConstantEvaluation) {
  // Opaque to the optimiser, so these are computed at run time.
  volatile std::uint8_t first = kValueBytes[0];
  std::array<std::uint8_t, 16> b = kValueBytes;
  b[0] = first;
  const Ipv6Address a{b};
  EXPECT_EQ(a.value(), kConstValue);
  EXPECT_EQ(Ipv6Address::from_value(kConstValue).bytes(), kValueBytes);
  EXPECT_EQ(a.prefix64(), 0x20010db812345678ULL);
  EXPECT_EQ(a.iid(), 0x9abcdef013572468ULL);
}

TEST(Ipv6Address, ValueRoundTripAndOrderMatchBytes) {
  Rng rng{128};
  for (int i = 0; i < 20'000; ++i) {
    const Uint128 v{rng.next(), rng.next()};
    const Ipv6Address a = Ipv6Address::from_value(v);
    ASSERT_EQ(a.value(), v);
    // Bit 127 of the value is the first bit on the wire.
    ASSERT_EQ(a.byte(0), static_cast<std::uint8_t>(v.hi() >> 56));
    ASSERT_EQ(a.byte(15), static_cast<std::uint8_t>(v.lo()));
    // operator<=> is byte-lexicographic order; share a random-length
    // prefix so ties deep into the address occur too.
    std::array<std::uint8_t, 16> ob = a.bytes();
    const auto keep = static_cast<std::size_t>(rng.uniform(17));
    for (std::size_t k = keep; k < 16; ++k) {
      ob[k] = static_cast<std::uint8_t>(rng.next());
    }
    const Ipv6Address b{ob};
    const bool less_bytes = std::lexicographical_compare(
        a.bytes().begin(), a.bytes().end(), ob.begin(), ob.end());
    const bool greater_bytes = std::lexicographical_compare(
        ob.begin(), ob.end(), a.bytes().begin(), a.bytes().end());
    ASSERT_EQ(a < b, less_bytes) << a.to_string() << " " << b.to_string();
    ASSERT_EQ(a > b, greater_bytes) << a.to_string() << " " << b.to_string();
    ASSERT_EQ(a == b, !less_bytes && !greater_bytes);
  }
}

TEST(Ipv6Address, Classification) {
  EXPECT_TRUE(Ipv6Address::parse("ff02::1")->is_multicast());
  EXPECT_TRUE(Ipv6Address::parse("fe80::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_multicast());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("fec0::1")->is_link_local());
}

TEST(Ipv6Address, RandomRoundTripPropertySweep) {
  Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    const Ipv6Address a = Ipv6Address::from_value(Uint128{rng.next(), rng.next()});
    auto reparsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(reparsed.has_value()) << a.to_string();
    EXPECT_EQ(*reparsed, a) << a.to_string();
  }
}

TEST(Ipv6Prefix, CanonicalisesHostBits) {
  auto a = Ipv6Address::parse("2001:db8:ffff:ffff::1");
  Ipv6Prefix p{*a, 32};
  EXPECT_EQ(p.to_string(), "2001:db8::/32");
}

TEST(Ipv6Prefix, ParseAndFormat) {
  auto p = Ipv6Prefix::parse("2001:db8::/32");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 32);
  EXPECT_EQ(p->to_string(), "2001:db8::/32");
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/-1").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/x").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/64x").has_value());
}

TEST(Ipv6Prefix, ContainsAddress) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8::1")));
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8:ffff::1")));
  EXPECT_FALSE(p.contains(*Ipv6Address::parse("2001:db9::1")));
}

TEST(Ipv6Prefix, ContainsPrefix) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(*Ipv6Prefix::parse("2001:db8:1::/48")));
  EXPECT_TRUE(p.contains(p));
  EXPECT_FALSE(p.contains(*Ipv6Prefix::parse("2001::/16")));
  EXPECT_FALSE(p.contains(*Ipv6Prefix::parse("2001:db9::/48")));
}

TEST(Ipv6Prefix, ZeroLengthContainsEverything) {
  Ipv6Prefix all{Ipv6Address{}, 0};
  EXPECT_TRUE(all.contains(*Ipv6Address::parse("ffff::1")));
  EXPECT_TRUE(all.contains(*Ipv6Prefix::parse("::/0")));
}

TEST(Ipv6Prefix, SubprefixCount) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_EQ(p.subprefix_count(64), Uint128::pow2(32));
  EXPECT_EQ(p.subprefix_count(33), Uint128{2});
  EXPECT_EQ(p.subprefix_count(32), Uint128{1});
  EXPECT_EQ(p.subprefix_count(31), Uint128{});
}

TEST(Ipv6Prefix, NthSubprefix) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_EQ(p.nth_subprefix(64, Uint128{0}).to_string(), "2001:db8::/64");
  EXPECT_EQ(p.nth_subprefix(64, Uint128{1}).to_string(), "2001:db8:0:1::/64");
  EXPECT_EQ(p.nth_subprefix(48, Uint128{0xffff}).to_string(),
            "2001:db8:ffff::/48");
}

TEST(Ipv6Prefix, AddressWithSuffix) {
  auto p = *Ipv6Prefix::parse("2001:db8:0:1::/64");
  EXPECT_EQ(p.address_with_suffix(Uint128{0x1234}).to_string(),
            "2001:db8:0:1::1234");
  // Suffix is masked to the host bits.
  EXPECT_EQ(p.address_with_suffix(Uint128::max()).to_string(),
            "2001:db8:0:1:ffff:ffff:ffff:ffff");
}

TEST(Ipv6Prefix, OrderingAndHash) {
  auto a = *Ipv6Prefix::parse("2001:db8::/32");
  auto b = *Ipv6Prefix::parse("2001:db8::/48");
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<Ipv6Prefix>{}(a), std::hash<Ipv6Prefix>{}(b));
}

// Property: nth_subprefix enumerates disjoint prefixes covering the parent.
class SubprefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubprefixSweep, DisjointAndContained) {
  const int sublen = GetParam();
  auto parent = *Ipv6Prefix::parse("2001:db8::/48");
  const Uint128 n = parent.subprefix_count(sublen);
  ASSERT_TRUE(n.fits_u64());
  Ipv6Prefix prev;
  for (std::uint64_t i = 0; i < n.to_u64(); ++i) {
    Ipv6Prefix sub = parent.nth_subprefix(sublen, Uint128{i});
    EXPECT_TRUE(parent.contains(sub));
    EXPECT_EQ(sub.length(), sublen);
    if (i > 0) {
      EXPECT_FALSE(sub.contains(prev));
      EXPECT_FALSE(prev.contains(sub));
      EXPECT_LT(prev, sub);
    }
    prev = sub;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SubprefixSweep,
                         ::testing::Values(49, 52, 56, 60));

}  // namespace
}  // namespace xmap::net
