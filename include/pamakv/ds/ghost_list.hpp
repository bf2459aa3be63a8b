// GhostLists: the paper's "extended section" of each subclass LRU stack
// (Sec. III, second challenge). A ghost list remembers the keys and miss
// penalties — never the values — of the most recently evicted items of its
// subclass, ordered by eviction recency: rank 0 sits "right beneath the
// candidate slab", i.e. it is the first item a newly granted slab would
// re-cache (the receiving segment), rank spp..2*spp-1 is the next ghost
// segment, and so on.
//
// An engine keeps its lists, one per (class, band) subclass, in this one
// object: rings laid back to back in one array of 16-byte entries, each
// just a key and a penalty. A ghost is named by its position in the array.
// The ring a position lies in gives its list, and the ring's write cursor
// gives its eviction order, so an entry stores neither. One bit per
// position marks the live entries (a RankBitmap), and an entry's rank is
// the count of live positions its ring wrote after it, which skips the
// holes removals leave.
//
// The lists keep no key index. The engine's HashIndex maps an evicted key
// to its ghost's position (CacheEngine), so the caller drops a key's older
// ghost before pushing a new one, and Push names the key whose entry a
// wrapping ring overwrote so the caller can forget it. The array is
// allocated at construction but not written there: a page of it becomes
// resident only once a push writes a ghost into it, and nothing reads an
// entry whose live bit is clear.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "pamakv/ds/rank_bitmap.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class GhostLists {
 public:
  /// One ghost: the evicted key and the penalty it left with. Trivial, so
  /// the ring array is left unwritten until a push fills an entry.
  struct Evicted {
    KeyId key;
    MicroSecs penalty;
  };
  static_assert(sizeof(Evicted) == 16);
  static_assert(std::is_trivial_v<Evicted>);

  struct Hit {
    MicroSecs penalty;
    std::size_t rank;  ///< 0 == most recently evicted
  };

  /// Where a push wrote its ghost, and whose ghost it overwrote.
  struct Pushed {
    std::size_t pos;
    /// The key of the live entry a wrapping ring overwrote, if any.
    std::optional<KeyId> displaced;
  };

  /// One list per element of `capacities`; each must be > 0.
  explicit GhostLists(const std::vector<std::size_t>& capacities);

  /// Records an eviction into `list` at its ring's next position. Once the
  /// ring wraps, that position's oldest entry, if still live, is dropped,
  /// bounding the list at its capacity. The key must have no live ghost.
  Pushed Push(std::size_t list, KeyId key, MicroSecs penalty) noexcept;

  /// Drops the live ghost at `pos` (its key was cached or evicted again).
  void Remove(std::size_t pos) noexcept;

  /// The live ghost at `pos`.
  [[nodiscard]] const Evicted& At(std::size_t pos) const noexcept {
    return entries_[pos];
  }

  /// The live ghost at `pos`, which lies in `list`'s ring, with its rank
  /// there. O(log positions).
  [[nodiscard]] Hit Lookup(std::size_t list, std::size_t pos) const noexcept;

  /// Whether `pos` lies in `list`'s ring.
  [[nodiscard]] bool InList(std::size_t list, std::size_t pos) const noexcept {
    return pos - rings_[list].base < rings_[list].capacity;
  }

  /// The list whose ring holds `pos`. O(log lists).
  [[nodiscard]] std::size_t ListOf(std::size_t pos) const noexcept;

  /// Live entries of `list` ordered oldest eviction first — replaying them
  /// through Push() in this order reproduces every rank exactly. Snapshot
  /// capture only; O(capacity).
  [[nodiscard]] std::vector<Evicted> SnapshotOldestFirst(
      std::size_t list) const;

  /// Live entries of `list`. O(log positions).
  [[nodiscard]] std::size_t size(std::size_t list) const noexcept {
    const Ring& ring = rings_[list];
    return live_.Count(ring.base, ring.base + ring.capacity);
  }
  [[nodiscard]] std::size_t capacity(std::size_t list) const noexcept {
    return rings_[list].capacity;
  }
  /// Every position is below this.
  [[nodiscard]] std::size_t positions() const noexcept { return positions_; }

 private:
  struct Ring {
    std::size_t base = 0;  ///< first position in entries_
    std::size_t capacity = 0;
    std::size_t cursor = 0;  ///< next slot to write, in [0, capacity)
  };

  std::vector<Ring> rings_;
  std::size_t positions_ = 0;
  std::unique_ptr<Evicted[]> entries_;  ///< every ring, back to back
  RankBitmap live_;                     ///< one bit per position
};

}  // namespace pamakv
