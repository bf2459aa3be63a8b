// Fenwick (binary indexed) tree over a fixed-size array of signed counts.
// RankBitmap keeps one over the set-bit count of each 64-bit word, which
// answers "how many members lie between two positions" in O(log n): exact
// ghost ranks over GhostLists' ring positions, and LruStack ranks over
// access stamps.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pamakv {

class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(std::size_t size) : tree_(size + 1, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return tree_.empty() ? 0 : tree_.size() - 1; }

  /// Adds delta at 0-based position i.
  void Add(std::size_t i, std::int64_t delta) {
    assert(i < size());
    for (std::size_t p = i + 1; p < tree_.size(); p += p & (~p + 1)) {
      tree_[p] += delta;
    }
  }

  /// Sum of positions [0, i) (0-based, exclusive upper bound).
  [[nodiscard]] std::int64_t PrefixSum(std::size_t i) const {
    assert(i <= size());
    std::int64_t sum = 0;
    for (std::size_t p = i; p > 0; p -= p & (~p + 1)) {
      sum += tree_[p];
    }
    return sum;
  }

  /// Sum of positions [lo, hi) (0-based, half-open).
  [[nodiscard]] std::int64_t RangeSum(std::size_t lo, std::size_t hi) const {
    assert(lo <= hi);
    return PrefixSum(hi) - PrefixSum(lo);
  }

  /// Total over the whole array.
  [[nodiscard]] std::int64_t Total() const { return PrefixSum(size()); }

  void Reset() { tree_.assign(tree_.size(), 0); }

  /// Replaces every position's value with value_at(i), in O(size) and
  /// without allocating.
  template <typename ValueAt>
  void Assign(ValueAt value_at) noexcept {
    for (std::size_t p = 1; p < tree_.size(); ++p) tree_[p] = value_at(p - 1);
    for (std::size_t p = 1; p < tree_.size(); ++p) {
      const std::size_t parent = p + (p & (~p + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[p];
    }
  }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace pamakv
