// Open-addressing hash index: KeyId -> ItemHandle.
//
// Linear probing with backward-shift deletion (no tombstones), power-of-two
// capacity, and splitmix finalizer hashing so that sequential synthetic key
// ids spread uniformly. This is the cache's single point of key lookup and
// sits on the hot path of every request, hence a purpose-built flat table
// rather than std::unordered_map.
#pragma once

#include <cstddef>
#include <vector>

#include "pamakv/util/rng.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class HashIndex {
 public:
  explicit HashIndex(std::size_t initial_capacity = 1024);

  /// Inserts or overwrites the mapping for `key`; returns the handle it
  /// replaced, or kInvalidHandle for an insert. Only an insert can grow the
  /// table: overwriting a key re-points its slot in place.
  ItemHandle Upsert(KeyId key, ItemHandle handle);

  /// Returns the handle for `key`, or kInvalidHandle.
  [[nodiscard]] ItemHandle Find(KeyId key) const noexcept;

  /// Removes the mapping; returns false if absent.
  bool Erase(KeyId key) noexcept;

  /// Grows the table (never shrinks) so `expected_keys` entries fit without
  /// triggering a load-factor rehash. The engine calls it once up front,
  /// sized from its slot budget, to avoid rehash storms during warmup, and
  /// with size() + 1 before an insert that must not fail halfway.
  void Reserve(std::size_t expected_keys);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    KeyId key = 0;
    ItemHandle handle = kInvalidHandle;  // kInvalidHandle marks "empty"
  };
  static constexpr std::size_t kSlotsPerCacheLine = 64 / sizeof(Slot);

  [[nodiscard]] std::size_t IdealSlot(KeyId key) const noexcept {
    return static_cast<std::size_t>(Mix64(key)) & mask_;
  }
  /// Software prefetch of the slot's cache line: the mixed hash makes every
  /// probe start a random access, so issuing the prefetch as soon as the
  /// position is known overlaps the memory latency with the remaining
  /// address arithmetic. Clusters are short (load < 0.7), so prefetching
  /// one line ahead of the probe covers almost every chain.
  void PrefetchSlot(std::size_t pos) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[pos], 0 /*read*/, 1 /*low temporal locality*/);
#else
    (void)pos;
#endif
  }
  [[nodiscard]] std::size_t ProbeDistance(std::size_t pos) const noexcept {
    return (pos - IdealSlot(slots_[pos].key)) & mask_;
  }
  void Grow();
  void Rehash(std::size_t new_capacity);
  static std::size_t RoundUpPow2(std::size_t n) noexcept;

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pamakv
