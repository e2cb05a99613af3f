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
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace topkmon {

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

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace topkmon
