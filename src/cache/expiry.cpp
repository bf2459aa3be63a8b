#include "pamakv/cache/expiry.hpp"

#include <algorithm>

namespace pamakv {

namespace {

/// Capacity for at least n, doubling, so growing by one entry or handle
/// per store does not reallocate on each one.
template <typename T>
void GrowTo(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, 2 * v.capacity()));
}

}  // namespace

void ExpiryHeap::Reserve(std::size_t handles) {
  // Capacity alone: the heap grows with the entries filed, and a handle's
  // position is written only once it files a deadline, so a cache without
  // TTLs leaves these pages untouched.
  GrowTo(heap_, heap_.size() + 1);
  GrowTo(slot_, handles);
}

void ExpiryHeap::Schedule(ItemHandle h, std::int64_t deadline_ns) {
  if (h >= slot_.size()) slot_.resize(std::size_t{h} + 1);
  const std::uint32_t at = slot_[h];
  if (at == 0) {
    heap_.push_back({deadline_ns, h});
    SiftUp(heap_.size() - 1);
    return;
  }
  Entry& entry = heap_[at - 1];
  const bool earlier = deadline_ns < entry.deadline_ns;
  entry.deadline_ns = deadline_ns;
  if (earlier) {
    SiftUp(at - 1);
  } else {
    SiftDown(at - 1);
  }
}

bool ExpiryHeap::PopDue(std::int64_t now_ns, Entry& out) noexcept {
  if (heap_.empty() || heap_.front().deadline_ns > now_ns) return false;
  out = heap_.front();
  slot_[out.handle] = 0;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return true;
}

void ExpiryHeap::Put(std::size_t i, const Entry& e) noexcept {
  heap_[i] = e;
  slot_[e.handle] = static_cast<std::uint32_t>(i + 1);
}

void ExpiryHeap::SiftUp(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].deadline_ns <= e.deadline_ns) break;
    Put(i, heap_[parent]);
    i = parent;
  }
  Put(i, e);
}

void ExpiryHeap::SiftDown(std::size_t i) noexcept {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n &&
        heap_[child + 1].deadline_ns < heap_[child].deadline_ns) {
      ++child;
    }
    if (e.deadline_ns <= heap_[child].deadline_ns) break;
    Put(i, heap_[child]);
    i = child;
  }
  Put(i, e);
}

}  // namespace pamakv
