#include "pamakv/ds/ghost_list.hpp"

#include <cassert>
#include <stdexcept>

namespace pamakv {

GhostLists::GhostLists(const std::vector<std::size_t>& capacities) {
  std::size_t total = 0;
  rings_.reserve(capacities.size());
  for (const std::size_t capacity : capacities) {
    if (capacity == 0) {
      throw std::invalid_argument("GhostLists: capacity must be > 0");
    }
    rings_.push_back(Ring{total, capacity, 0, 0, FenwickTree(capacity)});
    total += capacity;
  }
  assert(total < kInvalidHandle);
  entries_.assign(total, Entry{});
  // At most `total` keys are ever live, so the index never grows again.
  index_.Reserve(total);
}

void GhostLists::Kill(Ring& ring, std::size_t slot) noexcept {
  Entry& e = entries_[ring.base + slot];
  e.live = false;
  ring.live.Add(slot, -1);
  --ring.size;
  index_.Erase(e.key);
}

void GhostLists::Push(std::size_t list, KeyId key, MicroSecs penalty) {
  // One ghost per key: ranks reflect the newest eviction only.
  Remove(key);
  Ring& ring = rings_[list];
  const std::uint64_t seq = ring.next_seq++;
  const std::size_t slot = static_cast<std::size_t>(seq % ring.capacity);
  if (entries_[ring.base + slot].live) Kill(ring, slot);
  entries_[ring.base + slot] =
      Entry{key, penalty, seq, static_cast<std::uint32_t>(list), true};
  ring.live.Add(slot, +1);
  ++ring.size;
  index_.Upsert(key, static_cast<ItemHandle>(ring.base + slot));
}

std::size_t GhostLists::LiveNewerThan(const Ring& ring,
                                      std::uint64_t seq) const {
  // Live entries with sequence in (seq, next_seq). Because at most
  // `capacity` consecutive sequences can be live, the slot range
  // [(seq+1) % C, (next_seq-1) % C] never self-overlaps.
  if (ring.next_seq == 0 || seq + 1 >= ring.next_seq) return 0;
  const std::size_t lo = static_cast<std::size_t>((seq + 1) % ring.capacity);
  const std::size_t hi =
      static_cast<std::size_t>((ring.next_seq - 1) % ring.capacity);
  std::int64_t count = 0;
  if (lo <= hi) {
    count = ring.live.RangeSum(lo, hi + 1);
  } else {
    count = ring.live.RangeSum(lo, ring.capacity) +
            ring.live.RangeSum(0, hi + 1);
  }
  assert(count >= 0);
  return static_cast<std::size_t>(count);
}

std::optional<GhostLists::Hit> GhostLists::Lookup(std::size_t list,
                                                  KeyId key) const {
  const ItemHandle pos = index_.Find(key);
  if (pos == kInvalidHandle || entries_[pos].list != list) return std::nullopt;
  const Entry& e = entries_[pos];
  assert(e.live && e.key == key);
  return Hit{e.penalty, LiveNewerThan(rings_[list], e.seq)};
}

std::optional<GhostLists::Ghost> GhostLists::Find(KeyId key) const {
  const ItemHandle pos = index_.Find(key);
  if (pos == kInvalidHandle) return std::nullopt;
  return Ghost{entries_[pos].list, entries_[pos].penalty};
}

std::vector<GhostLists::Evicted> GhostLists::SnapshotOldestFirst(
    std::size_t list) const {
  // Slot order from the next write position is eviction order.
  const Ring& ring = rings_[list];
  std::vector<Evicted> out;
  out.reserve(ring.size);
  for (std::size_t i = 0; i < ring.capacity; ++i) {
    const Entry& e =
        entries_[ring.base + (ring.next_seq + i) % ring.capacity];
    if (e.live) out.push_back(Evicted{e.key, e.penalty});
  }
  return out;
}

bool GhostLists::Remove(KeyId key) {
  const ItemHandle pos = index_.Find(key);
  if (pos == kInvalidHandle) return false;
  Ring& ring = rings_[entries_[pos].list];
  Kill(ring, pos - ring.base);
  return true;
}

}  // namespace pamakv
