#include "pamakv/cache/hash_index.hpp"

#include <cassert>

namespace pamakv {

std::size_t HashIndex::RoundUpPow2(std::size_t n) noexcept {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

HashIndex::HashIndex(std::size_t initial_capacity) {
  const std::size_t cap = RoundUpPow2(initial_capacity);
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
}

void HashIndex::Grow() { Rehash(slots_.size() * 2); }

void HashIndex::Rehash(std::size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  mask_ = slots_.size() - 1;
  size_ = 0;
  for (const Slot& s : old) {
    if (s.handle != kInvalidHandle) Upsert(s.key, s.handle);
  }
}

void HashIndex::Reserve(std::size_t expected_keys) {
  // Same threshold as the insert path: keep load at or below 0.7.
  if (expected_keys * 10 <= slots_.size() * 7) return;
  Rehash(RoundUpPow2(expected_keys * 10 / 7 + 1));
}

ItemHandle HashIndex::Upsert(KeyId key, ItemHandle handle) {
  assert(handle != kInvalidHandle);
  std::size_t pos = IdealSlot(key);
  for (;;) {
    Slot& s = slots_[pos];
    if (s.handle == kInvalidHandle) break;
    if (s.key == key) {
      const ItemHandle old = s.handle;
      s.handle = handle;
      return old;
    }
    pos = (pos + 1) & mask_;
  }
  if ((size_ + 1) * 10 > slots_.size() * 7) {
    Grow();
    pos = IdealSlot(key);
    while (slots_[pos].handle != kInvalidHandle) pos = (pos + 1) & mask_;
  }
  slots_[pos] = Slot{key, handle};
  ++size_;
  return kInvalidHandle;
}

ItemHandle HashIndex::Find(KeyId key) const noexcept {
  std::size_t pos = IdealSlot(key);
  PrefetchSlot(pos);
  // Speculatively pull the following line too: clusters longer than one
  // cache line are rare below the 0.7 load ceiling, so this hides the
  // second miss on the occasional long probe without polluting much.
  PrefetchSlot((pos + kSlotsPerCacheLine) & mask_);
  std::size_t distance = 0;
  for (;;) {
    const Slot& s = slots_[pos];
    if (s.handle == kInvalidHandle) return kInvalidHandle;
    if (s.key == key) return s.handle;
    // An occupant closer to its ideal slot than our probe distance proves
    // the key is absent (robin-hood style early exit for linear probing is
    // not sound in general, so we only stop at empty slots or full loop).
    pos = (pos + 1) & mask_;
    if (++distance > slots_.size()) return kInvalidHandle;  // defensive
  }
}

bool HashIndex::Erase(KeyId key) noexcept {
  std::size_t pos = IdealSlot(key);
  std::size_t distance = 0;
  while (slots_[pos].handle != kInvalidHandle && slots_[pos].key != key) {
    pos = (pos + 1) & mask_;
    if (++distance > slots_.size()) return false;
  }
  if (slots_[pos].handle == kInvalidHandle) return false;

  // Backward-shift deletion (classic linear-probing algorithm): walk the
  // cluster after the hole; any entry whose ideal slot does NOT lie in the
  // cyclic range (hole, entry] would become unreachable, so it fills the
  // hole, which then moves to the entry's old position. Entries that hash
  // between the hole and their position must stay put — simply stopping at
  // the first in-place entry would strand later displaced entries.
  slots_[pos] = Slot{};
  std::size_t hole = pos;
  std::size_t probe = pos;
  for (;;) {
    probe = (probe + 1) & mask_;
    if (slots_[probe].handle == kInvalidHandle) break;
    const std::size_t ideal = IdealSlot(slots_[probe].key);
    // Distance from ideal to current position vs from hole to position:
    // if the entry is displaced at least as far as the hole, relocate it.
    if (((probe - ideal) & mask_) >= ((probe - hole) & mask_)) {
      slots_[hole] = slots_[probe];
      slots_[probe] = Slot{};
      hole = probe;
    }
  }
  --size_;
  return true;
}

}  // namespace pamakv
