// 128-bit unsigned integer arithmetic.
//
// XMap generalises ZMap's 32-bit cyclic-group permutation to scan windows at
// arbitrary positions inside a 128-bit IPv6 address, so every layer of this
// library (address values, permutation group, target generation) needs full
// 128-bit arithmetic. We implement it from scratch — no compiler extension
// types in public interfaces — so the representation is portable and
// constexpr-friendly.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace xmap::net {

// Value-semantic 128-bit unsigned integer with wrap-around (mod 2^128)
// semantics, mirroring the built-in unsigned types.
class Uint128 {
 public:
  constexpr Uint128() = default;
  constexpr Uint128(std::uint64_t lo) : lo_(lo) {}  // NOLINT(runtime/explicit)
  constexpr Uint128(std::uint64_t hi, std::uint64_t lo) : hi_(hi), lo_(lo) {}

  [[nodiscard]] constexpr std::uint64_t hi() const { return hi_; }
  [[nodiscard]] constexpr std::uint64_t lo() const { return lo_; }

  // Truncating conversion, analogous to static_cast<uint64_t> on integers.
  [[nodiscard]] constexpr std::uint64_t to_u64() const { return lo_; }
  [[nodiscard]] constexpr bool fits_u64() const { return hi_ == 0; }

  [[nodiscard]] constexpr bool is_zero() const { return hi_ == 0 && lo_ == 0; }

  static constexpr Uint128 max() {
    return Uint128{~std::uint64_t{0}, ~std::uint64_t{0}};
  }

  // 2^n for n in [0, 128). n == 128 would overflow; callers handle that case.
  static constexpr Uint128 pow2(int n) {
    if (n < 64) return Uint128{0, std::uint64_t{1} << n};
    return Uint128{std::uint64_t{1} << (n - 64), 0};
  }

  friend constexpr bool operator==(Uint128 a, Uint128 b) {
    return a.hi_ == b.hi_ && a.lo_ == b.lo_;
  }
  friend constexpr auto operator<=>(Uint128 a, Uint128 b) {
    if (a.hi_ != b.hi_) return a.hi_ <=> b.hi_;
    return a.lo_ <=> b.lo_;
  }

  friend constexpr Uint128 operator+(Uint128 a, Uint128 b) {
    std::uint64_t lo = a.lo_ + b.lo_;
    std::uint64_t carry = lo < a.lo_ ? 1 : 0;
    return Uint128{a.hi_ + b.hi_ + carry, lo};
  }
  friend constexpr Uint128 operator-(Uint128 a, Uint128 b) {
    std::uint64_t lo = a.lo_ - b.lo_;
    std::uint64_t borrow = a.lo_ < b.lo_ ? 1 : 0;
    return Uint128{a.hi_ - b.hi_ - borrow, lo};
  }

  friend constexpr Uint128 operator*(Uint128 a, Uint128 b) {
    // Schoolbook on 32-bit limbs; keep low 128 bits.
    const std::uint64_t a32 = a.lo_ >> 32, a0 = a.lo_ & 0xffffffffu;
    const std::uint64_t b32 = b.lo_ >> 32, b0 = b.lo_ & 0xffffffffu;
    const std::uint64_t p00 = a0 * b0;
    const std::uint64_t p01 = a0 * b32;
    const std::uint64_t p10 = a32 * b0;
    const std::uint64_t p11 = a32 * b32;
    std::uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    std::uint64_t lo = (p00 & 0xffffffffu) | (mid << 32);
    std::uint64_t hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    hi += a.hi_ * b.lo_ + a.lo_ * b.hi_;
    return Uint128{hi, lo};
  }

  friend constexpr Uint128 operator&(Uint128 a, Uint128 b) {
    return Uint128{a.hi_ & b.hi_, a.lo_ & b.lo_};
  }
  friend constexpr Uint128 operator|(Uint128 a, Uint128 b) {
    return Uint128{a.hi_ | b.hi_, a.lo_ | b.lo_};
  }
  friend constexpr Uint128 operator^(Uint128 a, Uint128 b) {
    return Uint128{a.hi_ ^ b.hi_, a.lo_ ^ b.lo_};
  }
  friend constexpr Uint128 operator~(Uint128 a) {
    return Uint128{~a.hi_, ~a.lo_};
  }

  friend constexpr Uint128 operator<<(Uint128 a, int n) {
    if (n <= 0) return a;
    if (n >= 128) return Uint128{};
    if (n >= 64) return Uint128{a.lo_ << (n - 64), 0};
    return Uint128{(a.hi_ << n) | (a.lo_ >> (64 - n)), a.lo_ << n};
  }
  friend constexpr Uint128 operator>>(Uint128 a, int n) {
    if (n <= 0) return a;
    if (n >= 128) return Uint128{};
    if (n >= 64) return Uint128{0, a.hi_ >> (n - 64)};
    return Uint128{a.hi_ >> n, (a.lo_ >> n) | (a.hi_ << (64 - n))};
  }

  constexpr Uint128& operator+=(Uint128 b) { return *this = *this + b; }
  constexpr Uint128& operator-=(Uint128 b) { return *this = *this - b; }
  constexpr Uint128& operator*=(Uint128 b) { return *this = *this * b; }
  constexpr Uint128& operator&=(Uint128 b) { return *this = *this & b; }
  constexpr Uint128& operator|=(Uint128 b) { return *this = *this | b; }
  constexpr Uint128& operator^=(Uint128 b) { return *this = *this ^ b; }
  constexpr Uint128& operator<<=(int n) { return *this = *this << n; }
  constexpr Uint128& operator>>=(int n) { return *this = *this >> n; }

  constexpr Uint128& operator++() { return *this += Uint128{1}; }
  constexpr Uint128 operator++(int) {
    Uint128 old = *this;
    ++*this;
    return old;
  }
  constexpr Uint128& operator--() { return *this -= Uint128{1}; }

  // Number of bits needed to represent the value; 0 for value 0.
  [[nodiscard]] constexpr int bit_width() const {
    if (hi_ != 0) return 64 + std::bit_width(hi_);
    return std::bit_width(lo_);
  }
  [[nodiscard]] constexpr int popcount() const {
    return std::popcount(hi_) + std::popcount(lo_);
  }
  [[nodiscard]] constexpr int countl_zero() const { return 128 - bit_width(); }
  [[nodiscard]] constexpr int countr_zero() const {
    if (lo_ != 0) return std::countr_zero(lo_);
    if (hi_ != 0) return 64 + std::countr_zero(hi_);
    return 128;
  }

  // Bit i (0 = least significant).
  [[nodiscard]] constexpr bool bit(int i) const {
    if (i < 64) return (lo_ >> i) & 1;
    return (hi_ >> (i - 64)) & 1;
  }
  constexpr void set_bit(int i, bool v) {
    if (i < 64) {
      const std::uint64_t m = std::uint64_t{1} << i;
      lo_ = v ? (lo_ | m) : (lo_ & ~m);
    } else {
      const std::uint64_t m = std::uint64_t{1} << (i - 64);
      hi_ = v ? (hi_ | m) : (hi_ & ~m);
    }
  }

  struct DivMod;
  // Long division by shift-subtract. Division by zero is a programming error;
  // callers must check (we return {0, 0} to keep the function total).
  [[nodiscard]] static constexpr DivMod divmod(Uint128 num, Uint128 den);

  constexpr Uint128& operator/=(Uint128 b);
  constexpr Uint128& operator%=(Uint128 b);

  // (a * b) mod m without overflow; m must be nonzero.
  [[nodiscard]] static Uint128 mulmod(Uint128 a, Uint128 b, Uint128 m);
  // (base ^ exp) mod m; m must be nonzero.
  [[nodiscard]] static Uint128 powmod(Uint128 base, Uint128 exp, Uint128 m);

  [[nodiscard]] std::string to_string() const;  // decimal
  [[nodiscard]] std::string to_hex() const;     // lowercase, no 0x prefix
  [[nodiscard]] static std::optional<Uint128> from_string(std::string_view dec);
  [[nodiscard]] static std::optional<Uint128> from_hex(std::string_view hex);

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

struct Uint128::DivMod {
  Uint128 quot;
  Uint128 rem;
};

constexpr Uint128::DivMod Uint128::divmod(Uint128 num, Uint128 den) {
  if (den.is_zero()) return {Uint128{}, Uint128{}};
  if (num < den) return {Uint128{}, num};
  int shift = num.bit_width() - den.bit_width();
  Uint128 d = den << shift;
  Uint128 q{};
  for (; shift >= 0; --shift, d >>= 1) {
    q <<= 1;
    if (num >= d) {
      num -= d;
      q |= Uint128{1};
    }
  }
  return {q, num};
}

[[nodiscard]] constexpr Uint128 operator/(Uint128 a, Uint128 b) {
  return Uint128::divmod(a, b).quot;
}
[[nodiscard]] constexpr Uint128 operator%(Uint128 a, Uint128 b) {
  return Uint128::divmod(a, b).rem;
}
constexpr Uint128& Uint128::operator/=(Uint128 b) { return *this = *this / b; }
constexpr Uint128& Uint128::operator%=(Uint128 b) { return *this = *this % b; }

// A 64-bit hash or checksum as "0x" plus 16 lowercase hex digits: the
// fixed-width form every "stored …, computed …" diagnostic prints.
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace xmap::net
