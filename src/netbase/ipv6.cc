#include "netbase/ipv6.h"

#include <algorithm>
#include <charconv>
#include <vector>

namespace xmap::net {
namespace {

// Parses one hex group (1-4 digits); returns nullopt on bad syntax.
std::optional<std::uint16_t> parse_group(std::string_view g) {
  if (g.empty() || g.size() > 4) return std::nullopt;
  std::uint16_t v = 0;
  for (char c : g) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    v = static_cast<std::uint16_t>((v << 4) | digit);
  }
  return v;
}

// Parses a dotted-quad IPv4 tail into two 16-bit groups.
std::optional<std::pair<std::uint16_t, std::uint16_t>> parse_v4_tail(
    std::string_view text) {
  std::array<std::uint32_t, 4> oct{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    std::size_t dot = i < 3 ? text.find('.', pos) : text.size();
    if (dot == std::string_view::npos) return std::nullopt;
    std::string_view part = text.substr(pos, dot - pos);
    if (part.empty() || part.size() > 3) return std::nullopt;
    std::uint32_t v = 0;
    for (char c : part) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (v > 255) return std::nullopt;
    oct[static_cast<std::size_t>(i)] = v;
    pos = dot + 1;
  }
  return std::pair{static_cast<std::uint16_t>((oct[0] << 8) | oct[1]),
                   static_cast<std::uint16_t>((oct[2] << 8) | oct[3])};
}

// One group in lowercase hex without leading zeros (RFC 5952 §4.1).
char* put_hex_group(char* out, unsigned g) {
  constexpr char kHex[] = "0123456789abcdef";
  if (g >= 0x1000) *out++ = kHex[g >> 12];
  if (g >= 0x100) *out++ = kHex[(g >> 8) & 0xf];
  if (g >= 0x10) *out++ = kHex[(g >> 4) & 0xf];
  *out++ = kHex[g & 0xf];
  return out;
}

// One dotted-quad octet in decimal.
char* put_decimal_octet(char* out, unsigned v) {
  if (v >= 100) *out++ = static_cast<char>('0' + v / 100);
  if (v >= 10) *out++ = static_cast<char>('0' + v / 10 % 10);
  *out++ = static_cast<char>('0' + v % 10);
  return out;
}

}  // namespace

std::optional<Ipv6Address> Ipv6Address::parse(std::string_view text) {
  if (text.size() < 2 || text.size() > 45) return std::nullopt;

  // Split on "::" (at most one occurrence).
  std::size_t dc = text.find("::");
  if (dc != std::string_view::npos &&
      text.find("::", dc + 1) != std::string_view::npos) {
    return std::nullopt;
  }

  auto split_groups = [](std::string_view part,
                         std::vector<std::string_view>& out) -> bool {
    if (part.empty()) return true;
    std::size_t pos = 0;
    while (true) {
      std::size_t colon = part.find(':', pos);
      if (colon == std::string_view::npos) {
        out.push_back(part.substr(pos));
        return true;
      }
      if (colon == pos) return false;  // empty group (stray colon)
      out.push_back(part.substr(pos, colon - pos));
      pos = colon + 1;
      if (pos >= part.size()) return false;  // trailing single colon
    }
  };

  std::vector<std::string_view> head, tail;
  if (dc == std::string_view::npos) {
    if (!split_groups(text, head)) return std::nullopt;
  } else {
    if (!split_groups(text.substr(0, dc), head)) return std::nullopt;
    if (!split_groups(text.substr(dc + 2), tail)) return std::nullopt;
  }

  // Expand groups, handling a possible IPv4 dotted-quad in the final group.
  std::vector<std::uint16_t> groups_head, groups_tail;
  auto expand = [](const std::vector<std::string_view>& parts,
                   std::vector<std::uint16_t>& out, bool allow_v4) -> bool {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const bool last = i + 1 == parts.size();
      if (last && allow_v4 && parts[i].find('.') != std::string_view::npos) {
        auto v4 = parse_v4_tail(parts[i]);
        if (!v4) return false;
        out.push_back(v4->first);
        out.push_back(v4->second);
        return true;
      }
      auto g = parse_group(parts[i]);
      if (!g) return false;
      out.push_back(*g);
    }
    return true;
  };

  const bool v4_in_tail = dc != std::string_view::npos;
  if (!expand(head, groups_head, /*allow_v4=*/!v4_in_tail)) return std::nullopt;
  if (!expand(tail, groups_tail, /*allow_v4=*/true)) return std::nullopt;

  const std::size_t total = groups_head.size() + groups_tail.size();
  if (dc == std::string_view::npos) {
    if (total != 8) return std::nullopt;
  } else {
    // "::" elides at least one zero group, so at most 7 explicit groups.
    if (total > 7) return std::nullopt;
  }

  std::array<std::uint8_t, 16> b{};
  std::size_t gi = 0;
  for (std::uint16_t g : groups_head) {
    b[2 * gi] = static_cast<std::uint8_t>(g >> 8);
    b[2 * gi + 1] = static_cast<std::uint8_t>(g & 0xff);
    ++gi;
  }
  gi = 8 - groups_tail.size();
  for (std::uint16_t g : groups_tail) {
    b[2 * gi] = static_cast<std::uint8_t>(g >> 8);
    b[2 * gi + 1] = static_cast<std::uint8_t>(g & 0xff);
    ++gi;
  }
  return Ipv6Address{b};
}

char* Ipv6Address::format_to(char* out) const {
  std::uint16_t g[8];
  for (int i = 0; i < 8; ++i) g[i] = group(i);
  // RFC 5952 §5: IPv4-mapped addresses render with a dotted-quad tail.
  if (g[0] == 0 && g[1] == 0 && g[2] == 0 && g[3] == 0 && g[4] == 0 &&
      g[5] == 0xffff) {
    constexpr std::string_view kMapped = "::ffff:";
    out = std::copy(kMapped.begin(), kMapped.end(), out);
    for (int i = 12; i < 16; ++i) {
      if (i > 12) *out++ = '.';
      out = put_decimal_octet(out, byte(i));
    }
    return out;
  }
  // Find the longest run of zero groups (length >= 2), leftmost on ties.
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && g[j] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      *out++ = ':';
      *out++ = ':';
      i += best_len - 1;  // loop increment lands on the group after the run
      continue;
    }
    // A separator between groups, except right after "::".
    if (i > 0 && i != best_start + best_len) *out++ = ':';
    out = put_hex_group(out, g[i]);
  }
  return out;
}

std::string Ipv6Address::to_string() const {
  char buf[kMaxTextLength];
  return std::string(buf, format_to(buf));
}

std::optional<Ipv6Prefix> Ipv6Prefix::parse(std::string_view text) {
  std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv6Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::string_view len_text = text.substr(slash + 1);
  int len = 0;
  auto [ptr, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
  if (ec != std::errc{} || ptr != len_text.data() + len_text.size())
    return std::nullopt;
  if (len < 0 || len > 128) return std::nullopt;
  return Ipv6Prefix{*addr, len};
}

std::string Ipv6Prefix::to_string() const {
  return addr_.to_string() + "/" + std::to_string(len_);
}

}  // namespace xmap::net
