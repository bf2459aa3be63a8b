// ExpiryHeap: the item deadlines behind background TTL reaping.
//
// One heap per CacheService shard holds (deadline, item handle) entries
// for the items stored with a nonzero exptime, at most one per handle: an
// entry stands for whatever key its handle holds when it comes due. The
// service checks deadlines exactly on access (lazy expiry); the heap
// exists so the *background reaper* can find expired items without
// scanning the table: PopDue() takes the earliest deadline only once it
// has passed, one entry at a time, so a sweep does bounded work and never
// stalls the data path behind a full-table scan.
//
// Layout: an indexed binary min-heap. `slot_[h]` holds the position of
// handle h's entry, so filing a handle that already has one moves that
// entry, earlier or later, in place (O(log n)) instead of adding another.
// Entries are never removed on delete or overwrite; the reaper re-checks
// each popped entry against the key and deadline its handle holds now and
// drops it when they no longer match. The entry count is therefore
// bounded by the handles the engine has issued, whatever the traffic.
//
// Guarantees:
//  * PopDue never emits an entry early, nor late: an entry surfaces on the
//    first call whose now_ns has reached its deadline.
//  * After Reserve(n), the next Schedule of any handle below n cannot
//    allocate. Reserve grows capacity geometrically and writes nothing,
//    so memory follows the entries filed, not the handles issued.
#pragma once

#include <cstdint>
#include <vector>

#include "pamakv/util/types.hpp"

namespace pamakv {

class ExpiryHeap {
 public:
  struct Entry {
    std::int64_t deadline_ns = 0;
    ItemHandle handle = 0;
  };

  /// Room for one more entry and for the positions of every handle below
  /// `handles`, so the next Schedule of any of them cannot allocate. May
  /// throw bad_alloc, with nothing filed changed.
  void Reserve(std::size_t handles);

  /// Files `deadline_ns` for handle `h`: inserts its entry, or moves the
  /// one it has in place. A negative deadline is due at once. Allocates
  /// only when no Reserve made room for it.
  void Schedule(ItemHandle h, std::int64_t deadline_ns);

  /// Removes the earliest entry into `out` if its deadline is at or
  /// before `now_ns`; false (and nothing removed) otherwise.
  bool PopDue(std::int64_t now_ns, Entry& out) noexcept;

  /// Entries held, one at most per handle.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// Puts `e` at heap position `i` and records the position.
  void Put(std::size_t i, const Entry& e) noexcept;
  void SiftUp(std::size_t i) noexcept;
  void SiftDown(std::size_t i) noexcept;

  std::vector<Entry> heap_;
  /// slot_[h]: 1 + the position of h's entry in heap_; 0 = no entry.
  std::vector<std::uint32_t> slot_;
};

}  // namespace pamakv
