#include "pamakv/ds/ghost_list.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pamakv {

GhostLists::GhostLists(const std::vector<std::size_t>& capacities) {
  rings_.reserve(capacities.size());
  for (const std::size_t capacity : capacities) {
    if (capacity == 0) {
      throw std::invalid_argument("GhostLists: capacity must be > 0");
    }
    rings_.push_back(Ring{positions_, capacity, 0});
    positions_ += capacity;
  }
  // Default-initialised: no entry is written until a push fills it.
  entries_ = std::make_unique_for_overwrite<Evicted[]>(positions_);
  live_ = RankBitmap(positions_);
}

GhostLists::Pushed GhostLists::Push(std::size_t list, KeyId key,
                                    MicroSecs penalty) noexcept {
  Ring& ring = rings_[list];
  const std::size_t pos = ring.base + ring.cursor;
  if (++ring.cursor == ring.capacity) ring.cursor = 0;
  Pushed out{pos, std::nullopt};
  if (live_.Test(pos)) {
    out.displaced = entries_[pos].key;  // the ring's oldest entry
  } else {
    live_.Set(pos);
  }
  entries_[pos] = Evicted{key, penalty};
  return out;
}

void GhostLists::Remove(std::size_t pos) noexcept {
  assert(live_.Test(pos));
  live_.Clear(pos);
}

GhostLists::Hit GhostLists::Lookup(std::size_t list,
                                   std::size_t pos) const noexcept {
  assert(InList(list, pos) && live_.Test(pos));
  const Ring& ring = rings_[list];
  // Live entries written after `pos`: the slots after it up to the newest
  // one, cyclically. At most `capacity` consecutive evictions are live, so
  // that range never laps the ring.
  const std::size_t slot = pos - ring.base;
  const std::size_t newest =
      (ring.cursor == 0 ? ring.capacity : ring.cursor) - 1;
  std::size_t rank = 0;
  if (slot < newest) {
    rank = live_.Count(pos + 1, ring.base + newest + 1);
  } else if (slot > newest) {
    rank = live_.Count(pos + 1, ring.base + ring.capacity) +
           live_.Count(ring.base, ring.base + newest + 1);
  }
  return Hit{entries_[pos].penalty, rank};
}

std::size_t GhostLists::ListOf(std::size_t pos) const noexcept {
  assert(pos < positions_);
  const auto after = std::upper_bound(
      rings_.begin(), rings_.end(), pos,
      [](std::size_t p, const Ring& ring) { return p < ring.base; });
  return static_cast<std::size_t>(after - rings_.begin()) - 1;
}

std::vector<GhostLists::Evicted> GhostLists::SnapshotOldestFirst(
    std::size_t list) const {
  // Slot order from the next write position is eviction order.
  const Ring& ring = rings_[list];
  std::vector<Evicted> out;
  out.reserve(size(list));
  for (std::size_t i = 0; i < ring.capacity; ++i) {
    const std::size_t pos = ring.base + (ring.cursor + i) % ring.capacity;
    if (live_.Test(pos)) out.push_back(entries_[pos]);
  }
  return out;
}

}  // namespace pamakv
