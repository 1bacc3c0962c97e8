// Open-addressed hash map/set keyed by pre-mixed 64-bit keys.
//
// The scanner's per-probe bookkeeping (first-send times for the RTT
// histogram, probe provenance for the engine merge, response dedup) lives on
// the packet hot path and only ever inserts and looks up — never erases.
// node-based std::unordered_map pays an allocation and a pointer chase per
// operation there; measured on the observability_overhead bench that was
// the entire metrics-on overhead (~9% wall). This table is the
// insert/find-only replacement: linear probing over two parallel arrays
// (keys, values), power-of-two capacity, grow at 7/8 load — one probe
// sequence touching contiguous memory per operation.
//
// Keys are expected to be pre-hashed (addr_key already runs
// hash_combine64), but one more round of mixing is applied so structured
// keys cannot cluster a probe sequence. Key 0 is valid: it is kept in a
// dedicated side slot, since 0 marks an empty bucket in the array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xmap::net {

template <typename V>
class FlatHash64 {
 public:
  FlatHash64() = default;

  // Pre-sizes for at least `n` entries without growth.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap - cap / 8 < n) cap <<= 1;
    if (cap > keys_.size()) rehash(cap);
  }

  // Keep-first semantics (unordered_map::emplace): returns true and stores
  // `value` when `key` is new, false (leaving the stored value) otherwise.
  bool insert(std::uint64_t key, const V& value) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      zero_val_ = value;
      return true;
    }
    if ((size_ + 1) * 8 > keys_.size() * 7) {
      rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2);
    }
    std::size_t i = mix(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    return true;
  }

  [[nodiscard]] const V* find(std::uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_val_ : nullptr;
    if (keys_.empty()) return nullptr;
    std::size_t i = mix(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const {
    return size_ + (has_zero_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  // Empties the table but keeps its buckets: no allocation, so a table
  // recycled this way stays on the heap-free steady-state path.
  void reset() {
    std::fill(keys_.begin(), keys_.end(), std::uint64_t{0});
    size_ = 0;
    has_zero_ = false;
  }

  void clear() {
    keys_.clear();
    vals_.clear();
    mask_ = 0;
    size_ = 0;
    has_zero_ = false;
    zero_val_ = V{};
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  // splitmix64 finalizer: full-avalanche, so linear probing stays
  // well-distributed even for keys with shared high or low bits.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    keys_.assign(cap, 0);
    vals_.assign(cap, V{});
    mask_ = cap - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == 0) continue;
      std::size_t i = mix(old_keys[j]) & mask_;
      while (keys_[i] != 0) i = (i + 1) & mask_;
      keys_[i] = old_keys[j];
      vals_[i] = old_vals[j];
    }
  }

  std::vector<std::uint64_t> keys_;  // 0 = empty bucket
  std::vector<V> vals_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_zero_ = false;
  V zero_val_{};
};

// The value-less form, for dedup sets. insert() returns true when the key
// was new — the drop-in for `set.insert(k).second`.
class FlatSet64 {
 public:
  void reserve(std::size_t n) { map_.reserve(n); }
  bool insert(std::uint64_t key) { return map_.insert(key, 0); }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return map_.find(key) != nullptr;
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  FlatHash64<std::uint8_t> map_;
};

}  // namespace xmap::net
