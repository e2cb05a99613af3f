// Dense fixed-size id bitsets for the activity-driven hot paths.
//
// The sparse event loop tracks "which of the n nodes need attention this
// tick" (due mail, armed timers, pending observations) as one bit per
// node id. A word-packed bitset makes maintaining the set O(1) per
// transition and scanning it O(n/64 + |set|) — the n-independent cost the
// loop needs — while iteration in ascending id order falls out of the
// word/bit layout for free, preserving the simulator's deterministic
// per-id processing order.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace topkmon {

/// kWordBit[j] == 1 << j. Column kernels that pack one bit per lane into a
/// 64-lane word AND a lane's all-ones compare result with its table entry
/// and OR the lanes together: plain vector loads, ANDs and ORs on every
/// ISA level (SSE2 has no per-lane 64-bit shift).
inline constexpr std::array<std::uint64_t, 64> kWordBit = [] {
  std::array<std::uint64_t, 64> bits{};
  for (std::size_t j = 0; j < 64; ++j) bits[j] = std::uint64_t{1} << j;
  return bits;
}();

/// Set bits of one word. std::popcount compiles to a libgcc call where
/// the target lacks POPCNT (baseline x86-64); the SWAR sum here stays
/// inline, a dozen ALU operations.
inline int popcount_word(std::uint64_t x) noexcept {
#if defined(__POPCNT__) || !defined(__x86_64__)
  return std::popcount(x);
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
#endif
}

/// A set of node ids in [0, size), packed 64 per word. All mutators are
/// O(1); `set_all`/`clear_all` are O(size/64). Words past the last valid
/// id stay zero so word-level iteration never yields a phantom id.
class IdBitset {
 public:
  IdBitset() = default;

  explicit IdBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const noexcept { return size_; }

  bool test(NodeId id) const noexcept {
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }

  void set(NodeId id) noexcept {
    words_[id >> 6] |= std::uint64_t{1} << (id & 63);
  }

  void clear(NodeId id) noexcept {
    words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  }

  void assign(NodeId id, bool value) noexcept { value ? set(id) : clear(id); }

  /// Sets every bit (the tail of the last word stays zero).
  void set_all() noexcept {
    if (words_.empty()) return;
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    const std::size_t tail = size_ & 63;
    if (tail != 0) words_.back() = (~std::uint64_t{0}) >> (64 - tail);
  }

  void clear_all() noexcept { std::fill(words_.begin(), words_.end(), 0); }

  bool any() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Number of set bits. O(size/64).
  std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(popcount_word(w));
    }
    return n;
  }

  std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Writable word view for word-wise bulk updates. The caller keeps the
  /// tail of the last word zero.
  std::span<std::uint64_t> mutable_words() noexcept { return words_; }

  /// Word-wise intersection with another bitset of the same size (e.g.
  /// masking a due/armed scan down to the alive nodes).
  void mask_with(const IdBitset& other) noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= other.words_[w];
    }
  }

  /// Word-wise difference: clears every bit set in `other` (same size).
  void subtract(const IdBitset& other) noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace topkmon
