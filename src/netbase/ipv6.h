// IPv6 address and prefix value types.
//
// Text parsing accepts every RFC 4291 form (full, "::" compression, embedded
// IPv4 dotted-quad tail); formatting follows RFC 5952 (lowercase hex,
// longest/leftmost zero-run compression, no single-group compression).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/uint128.h"

namespace xmap::net {

class Ipv6Address {
 public:
  constexpr Ipv6Address() = default;
  explicit constexpr Ipv6Address(const std::array<std::uint8_t, 16>& bytes)
      : b_(bytes) {}

  // Builds from the numeric value (big-endian: bit 127 of `v` is the first
  // bit on the wire): each 64-bit half is byte-swapped into place in one
  // step, at run time and in constant evaluation alike.
  static constexpr Ipv6Address from_value(Uint128 v) {
    const std::array<std::uint64_t, 2> words{to_big_endian(v.hi()),
                                             to_big_endian(v.lo())};
    return Ipv6Address{std::bit_cast<std::array<std::uint8_t, 16>>(words)};
  }

  [[nodiscard]] constexpr Uint128 value() const {
    const auto words = std::bit_cast<std::array<std::uint64_t, 2>>(b_);
    return Uint128{to_big_endian(words[0]), to_big_endian(words[1])};
  }

  [[nodiscard]] constexpr const std::array<std::uint8_t, 16>& bytes() const {
    return b_;
  }
  [[nodiscard]] constexpr std::uint8_t byte(int i) const {
    return b_[static_cast<std::size_t>(i)];
  }

  // 16-bit group i in [0, 8), network order.
  [[nodiscard]] constexpr std::uint16_t group(int i) const {
    return static_cast<std::uint16_t>((b_[static_cast<std::size_t>(2 * i)] << 8) |
                                      b_[static_cast<std::size_t>(2 * i + 1)]);
  }

  // Low 64 bits: the interface identifier under the /64 convention.
  [[nodiscard]] constexpr std::uint64_t iid() const {
    return value().to_u64();
  }
  // High 64 bits: the /64 routing prefix.
  [[nodiscard]] constexpr std::uint64_t prefix64() const {
    return value().hi();
  }

  [[nodiscard]] constexpr bool is_unspecified() const {
    return value().is_zero();
  }
  [[nodiscard]] constexpr bool is_loopback() const {
    return value() == Uint128{1};
  }
  [[nodiscard]] constexpr bool is_multicast() const { return b_[0] == 0xff; }
  [[nodiscard]] constexpr bool is_link_local() const {
    return b_[0] == 0xfe && (b_[1] & 0xc0) == 0x80;
  }

  // Parses any RFC 4291 text form; nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv6Address> parse(std::string_view text);
  // Longest RFC 5952 text: eight four-digit groups and seven colons.
  static constexpr std::size_t kMaxTextLength = 39;
  // Writes the RFC 5952 canonical text form to `out` (which must hold
  // kMaxTextLength chars) and returns one past the last char written; no
  // terminator, no allocation. The repo's one address formatter.
  char* format_to(char* out) const;
  // RFC 5952 canonical text form (format_to into a std::string).
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const Ipv6Address&, const Ipv6Address&) =
      default;
  friend constexpr auto operator<=>(const Ipv6Address& a,
                                    const Ipv6Address& b) {
    return a.value() <=> b.value();
  }

 private:
  // A 64-bit word between host and network (big-endian) byte order; the
  // swap is its own inverse.
  static constexpr std::uint64_t to_big_endian(std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::big) return w;
    return __builtin_bswap64(w);
  }

  std::array<std::uint8_t, 16> b_{};
};

// A CIDR prefix: address plus length, canonicalised (host bits zero).
class Ipv6Prefix {
 public:
  constexpr Ipv6Prefix() = default;
  // Host bits of `addr` beyond `len` are cleared.
  constexpr Ipv6Prefix(Ipv6Address addr, int len)
      : len_(len < 0 ? 0 : (len > 128 ? 128 : len)) {
    Uint128 v = addr.value();
    if (len_ < 128) {
      Uint128 mask = len_ == 0 ? Uint128{} : (Uint128::max() << (128 - len_));
      v &= mask;
    }
    addr_ = Ipv6Address::from_value(v);
  }

  [[nodiscard]] constexpr Ipv6Address address() const { return addr_; }
  [[nodiscard]] constexpr int length() const { return len_; }

  [[nodiscard]] constexpr bool contains(const Ipv6Address& a) const {
    if (len_ == 0) return true;
    Uint128 mask = Uint128::max() << (128 - len_);
    return (a.value() & mask) == addr_.value();
  }
  [[nodiscard]] constexpr bool contains(const Ipv6Prefix& p) const {
    return p.len_ >= len_ && contains(p.addr_);
  }

  // Number of sub-prefixes of length `sublen` (for sublen - len_ < 128).
  [[nodiscard]] constexpr Uint128 subprefix_count(int sublen) const {
    if (sublen < len_) return Uint128{};
    return Uint128::pow2(sublen - len_);
  }

  // The index-th sub-prefix of length `sublen` (index < subprefix_count).
  [[nodiscard]] constexpr Ipv6Prefix nth_subprefix(int sublen,
                                                   Uint128 index) const {
    Uint128 v = addr_.value() | (index << (128 - sublen));
    return Ipv6Prefix{Ipv6Address::from_value(v), sublen};
  }

  // An address inside this prefix with the given suffix value in the host
  // bits (suffix is masked to fit).
  [[nodiscard]] constexpr Ipv6Address address_with_suffix(Uint128 suffix) const {
    if (len_ == 0) return Ipv6Address::from_value(suffix);
    if (len_ == 128) return addr_;
    Uint128 host_mask = ~(Uint128::max() << (128 - len_));
    return Ipv6Address::from_value(addr_.value() | (suffix & host_mask));
  }

  // Parses "addr/len"; nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv6Prefix> parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const Ipv6Prefix&, const Ipv6Prefix&) =
      default;
  friend constexpr auto operator<=>(const Ipv6Prefix& a, const Ipv6Prefix& b) {
    if (auto c = a.addr_ <=> b.addr_; c != 0) return c;
    return a.len_ <=> b.len_;
  }

 private:
  Ipv6Address addr_{};
  int len_ = 0;
};

}  // namespace xmap::net

template <>
struct std::hash<xmap::net::Ipv6Address> {
  std::size_t operator()(const xmap::net::Ipv6Address& a) const noexcept {
    const xmap::net::Uint128 v = a.value();
    // Simple 64-bit mix of both halves (splitmix finaliser).
    std::uint64_t x = v.hi() ^ (v.lo() + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

template <>
struct std::hash<xmap::net::Ipv6Prefix> {
  std::size_t operator()(const xmap::net::Ipv6Prefix& p) const noexcept {
    return std::hash<xmap::net::Ipv6Address>{}(p.address()) ^
           (static_cast<std::size_t>(p.length()) * 0x9e3779b97f4a7c15ULL);
  }
};
