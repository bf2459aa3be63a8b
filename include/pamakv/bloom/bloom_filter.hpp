// Standard Bloom filter with double hashing (Kirsch & Mitzenmacher):
// h_i(x) = h1(x) + i * h2(x), which preserves the asymptotic false-positive
// rate while requiring only two 64-bit hashes per operation.
//
// PAMA uses one filter per reference segment plus a shared "removal filter"
// (paper Sec. III, third challenge) so that segment membership tests cost
// O(1) instead of scanning LRU-stack segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pamakv/util/types.hpp"

namespace pamakv {

class BloomFilter {
 public:
  /// Sizes the filter for the target capacity and false-positive rate.
  /// bits = -n ln(p) / (ln 2)^2 rounded up to a power of two (probes reduce
  /// with a mask, not a divide), k = (bits/n) ln 2, both clamped to sane
  /// minimums so tiny segments still get a working filter.
  BloomFilter(std::size_t expected_items, double false_positive_rate);

  void Add(KeyId key) noexcept;
  [[nodiscard]] bool MayContain(KeyId key) const noexcept;

  void Clear() noexcept;

  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hash_count_; }
  [[nodiscard]] std::size_t added_count() const noexcept { return added_; }

  /// Memory footprint of the bit array in bytes (space-overhead reporting).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

  /// Same geometry, same bits and same add count.
  bool operator==(const BloomFilter&) const = default;

 private:
  struct HashPair {
    std::uint64_t h1;
    std::uint64_t h2;
  };
  [[nodiscard]] static HashPair HashKey(KeyId key) noexcept;

  std::size_t bit_count_;
  std::uint64_t bit_mask_ = 0;
  std::size_t hash_count_;
  std::size_t added_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pamakv
