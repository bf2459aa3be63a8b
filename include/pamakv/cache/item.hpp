// Cached item metadata.
//
// The simulator caches metadata, not payload bytes: every policy in the
// paper decides on (key recurrence, size class, miss penalty) alone, and
// memory use is accounted at slab/slot granularity by SlabPool. `size` is
// the item's true byte size (used for class routing); `penalty` is the
// per-key miss penalty the trace attributes to it (GET-miss -> SET gap).
#pragma once

#include "pamakv/ds/lru_stack.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

struct Item {
  KeyId key = 0;
  Bytes size = 0;
  MicroSecs penalty = 0;
  ClassId cls = 0;
  SubclassId sub = 0;
  /// Position of this item in its subclass LRU stack.
  LruStack::Node* node = nullptr;
  /// Logical time (access count) of the last touch; used by the Facebook
  /// age-balancing policy and for LRU-age diagnostics.
  AccessClock last_access = 0;
  /// Whether the item was GET-hit since it was stored;
  /// distinguishes memcached's expired_unfetched from plain expired.
  bool fetched = false;
};

}  // namespace pamakv
