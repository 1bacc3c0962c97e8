// Byte-pair RFC 1071 reference accumulator: no word tricks, no carry
// shortcuts, no SIMD. The ground truth the checksum property tests (and
// the SIMD equality sweep in bench/micro_xmap) compare
// net::checksum_accumulate against.
#pragma once

#include <cstdint>
#include <span>

namespace xmap::test_support {

// Same contract as net::checksum_accumulate: the running ones-complement
// sum of big-endian 16-bit words (odd tail padded with zero), not yet
// folded to 16 bits or complemented.
[[nodiscard]] inline std::uint32_t checksum_accumulate_reference(
    std::span<const std::uint8_t> data, std::uint32_t acc = 0) {
  std::uint64_t sum = acc;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint64_t>(data[i]) << 8;
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
}

}  // namespace xmap::test_support
