// GhostLists: the paper's "extended section" of each subclass LRU stack
// (Sec. III, second challenge). A ghost list remembers the keys and miss
// penalties — never the values — of the most recently evicted items of its
// subclass, ordered by eviction recency: rank 0 sits "right beneath the
// candidate slab", i.e. it is the first item a newly granted slab would
// re-cache (the receiving segment), rank spp..2*spp-1 is the next ghost
// segment, and so on.
//
// An engine keeps its lists, one per (class, band) subclass, in this one
// object. Each is a ring buffer keyed by eviction sequence number; an
// entry's rank is the count of live entries evicted after it in its list,
// answered exactly by a Fenwick tree over the ring's slots, which also
// skips the holes removals leave. One HashIndex maps each key to its entry
// across every list: a key has at most one ghost per engine, and a miss
// can find it without knowing its subclass. Live entries are bounded by
// the total ring capacity, so the index is reserved once and Push never
// rehashes or allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "pamakv/cache/hash_index.hpp"
#include "pamakv/util/fenwick.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class GhostLists {
 public:
  struct Hit {
    MicroSecs penalty;
    std::size_t rank;  ///< 0 == most recently evicted
  };

  /// Where a key's ghost lives.
  struct Ghost {
    std::size_t list;
    MicroSecs penalty;
  };

  /// One live entry as captured for persistence.
  struct Evicted {
    KeyId key = 0;
    MicroSecs penalty = 0;
  };

  /// One list per element of `capacities`; each must be > 0.
  explicit GhostLists(const std::vector<std::size_t>& capacities);

  /// Records an eviction into `list`. The key's older ghost, in any list,
  /// is dropped first. The list's oldest entry is overwritten once its
  /// ring wraps, bounding memory at its capacity.
  void Push(std::size_t list, KeyId key, MicroSecs penalty);

  /// The key's ghost in `list`, with its rank there.
  [[nodiscard]] std::optional<Hit> Lookup(std::size_t list, KeyId key) const;

  /// The key's ghost, whichever list holds it.
  [[nodiscard]] std::optional<Ghost> Find(KeyId key) const;

  /// Removes the key's ghost (the item was re-inserted into the cache).
  /// Returns true if it had one.
  bool Remove(KeyId key);

  /// Live entries of `list` ordered oldest eviction first — replaying them
  /// through Push() in this order reproduces every rank exactly. Snapshot
  /// capture only; O(capacity).
  [[nodiscard]] std::vector<Evicted> SnapshotOldestFirst(
      std::size_t list) const;

  [[nodiscard]] bool Contains(std::size_t list, KeyId key) const noexcept {
    const ItemHandle pos = index_.Find(key);
    return pos != kInvalidHandle && entries_[pos].list == list;
  }
  [[nodiscard]] std::size_t size(std::size_t list) const noexcept {
    return rings_[list].size;
  }
  [[nodiscard]] std::size_t capacity(std::size_t list) const noexcept {
    return rings_[list].capacity;
  }

 private:
  struct Entry {
    KeyId key = 0;
    MicroSecs penalty = 0;
    std::uint64_t seq = 0;
    std::uint32_t list = 0;
    bool live = false;
  };

  struct Ring {
    std::size_t base = 0;  ///< first position in entries_
    std::size_t capacity = 0;
    std::size_t size = 0;  ///< live entries
    std::uint64_t next_seq = 0;
    FenwickTree live;  ///< 1 per live ring slot
  };

  /// Drops the live entry at ring slot `slot` of `ring`.
  void Kill(Ring& ring, std::size_t slot) noexcept;
  /// Count of live entries of `ring` with sequence numbers in
  /// (seq, next_seq).
  [[nodiscard]] std::size_t LiveNewerThan(const Ring& ring,
                                          std::uint64_t seq) const;

  std::vector<Entry> entries_;  ///< every ring, back to back
  std::vector<Ring> rings_;
  HashIndex index_;  ///< key -> position in entries_
};

}  // namespace pamakv
