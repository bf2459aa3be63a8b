// RankBitmap: a set of positions in [0, span) that counts the members below
// any position in O(log n).
//
// One bit per position, plus a Fenwick tree over the number of set bits in
// each 64-bit word, so the tree is 64x smaller than the span and stays
// cache-resident. LruStack marks the access stamps of its nodes with it and
// GhostLists the live positions of its rings; both turn "how many members
// lie between two positions" into an exact rank.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pamakv/util/fenwick.hpp"

namespace pamakv {

class RankBitmap {
 public:
  RankBitmap() = default;
  /// Room for `positions` positions, rounded up to whole words; all clear.
  explicit RankBitmap(std::size_t positions)
      : bits_((positions + 63) / 64, 0), word_counts_((positions + 63) / 64) {}

  [[nodiscard]] std::size_t span() const noexcept { return bits_.size() * 64; }
  [[nodiscard]] bool empty() const noexcept { return bits_.empty(); }

  [[nodiscard]] bool Test(std::size_t pos) const noexcept {
    return (bits_[pos / 64] >> (pos % 64) & 1) != 0;
  }
  /// Marks `pos`, which must be clear.
  void Set(std::size_t pos) noexcept {
    bits_[pos / 64] |= std::uint64_t{1} << (pos % 64);
    word_counts_.Add(pos / 64, +1);
  }
  /// Unmarks `pos`, which must be set.
  void Clear(std::size_t pos) noexcept {
    bits_[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
    word_counts_.Add(pos / 64, -1);
  }

  /// Members in [0, pos); `pos` may equal span().
  [[nodiscard]] std::size_t CountBelow(std::size_t pos) const noexcept {
    const auto whole = static_cast<std::size_t>(word_counts_.PrefixSum(pos / 64));
    if (pos % 64 == 0) return whole;
    const std::uint64_t below = (std::uint64_t{1} << (pos % 64)) - 1;
    return whole + static_cast<std::size_t>(std::popcount(bits_[pos / 64] & below));
  }
  /// Members in [lo, hi).
  [[nodiscard]] std::size_t Count(std::size_t lo, std::size_t hi) const noexcept {
    return CountBelow(hi) - CountBelow(lo);
  }
  [[nodiscard]] std::size_t Total() const noexcept {
    return static_cast<std::size_t>(word_counts_.Total());
  }

  /// Marks exactly positions [0, count).
  void Fill(std::size_t count) noexcept {
    const auto word_count = [count](std::size_t w) -> std::int64_t {
      return static_cast<std::int64_t>(std::min<std::size_t>(
          64, count > 64 * w ? count - 64 * w : 0));
    };
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      const auto n = static_cast<unsigned>(word_count(w));
      bits_[w] = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    }
    word_counts_.Assign(word_count);
  }

  /// Invariant check for tests: each word's count in the tree matches its
  /// bits. O(words log words).
  [[nodiscard]] bool CountsMatchBits() const noexcept {
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      if (word_counts_.RangeSum(w, w + 1) != std::popcount(bits_[w])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> bits_;
  FenwickTree word_counts_;
};

}  // namespace pamakv
