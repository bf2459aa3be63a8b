// ExpiryWheel: a hashed hierarchical timer wheel for item TTLs.
//
// One wheel per CacheService shard holds (key, deadline) nodes for the
// items stored with a nonzero exptime; the service files item handles as
// keys, so a node stands for whatever key its handle holds. The service
// checks deadlines exactly on access (lazy expiry); the wheel exists so
// the *background reaper* can find expired items without scanning the
// table: CollectDue() walks only the slots whose time has come, in
// batches, so a sweep never stalls the data path behind a full-table scan.
//
// Layout: kLevels levels of kSlotsPerLevel slots each, tick_ns per level-0
// slot (1s by default, matching memcached's clock granularity). A deadline
// d ticks ahead lives at level floor(log64 d); when the cursor crosses a
// level boundary the matching higher-level slot cascades down, so every
// node reaches level 0 before its tick is drained. Nodes are never removed
// on delete/overwrite — cancellation is lazy: the reaper re-verifies each
// harvested node against the cached item and drops stale ones. Slot
// vectors keep their capacity across drains, so a steady TTL workload
// reuses memory instead of allocating per store.
//
// Guarantees:
//  * CollectDue never emits a node early: a slot is drained only once
//    `now` has moved past the slot's entire tick range, so every emitted
//    node satisfies expire_at_ns <= now_ns. Reap latency is therefore at
//    most one tick past the deadline (access-path expiry stays exact).
//  * CollectDue is budget-bounded: at most max_nodes per call; a partially
//    drained tick resumes where it left off on the next call.
//  * An empty wheel fast-forwards its cursor instead of walking idle
//    slots, so a long FakeClock jump over a quiet cache costs O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "pamakv/util/types.hpp"

namespace pamakv {

class ExpiryWheel {
 public:
  struct Node {
    KeyId key = 0;
    std::int64_t expire_at_ns = 0;
  };

  /// `now_ns` anchors the cursor; deadlines at or before it are collected
  /// by the next sweep. tick_ns is the level-0 slot width.
  explicit ExpiryWheel(std::int64_t now_ns,
                       std::int64_t tick_ns = 1'000'000'000);

  /// Registers a deadline for `key`. Never deduplicates and never fails:
  /// a key re-stored with a new TTL simply leaves a stale node behind,
  /// which the harvester's re-verification drops.
  void Schedule(KeyId key, std::int64_t expire_at_ns);

  /// Appends up to `max_nodes` due nodes (expire_at_ns <= now_ns) to
  /// `out`, advancing the cursor no further than `now_ns` allows. Returns
  /// how many were emitted. Callers must re-verify each node against
  /// current item state — stale nodes from overwritten or deleted keys
  /// are indistinguishable here by design.
  std::size_t CollectDue(std::int64_t now_ns, std::size_t max_nodes,
                         std::vector<Node>& out);

  /// Nodes currently held (live + stale; decremented only by CollectDue).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::int64_t tick_ns() const noexcept { return tick_ns_; }

 private:
  static constexpr std::uint32_t kBits = 6;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kBits;  // 64
  static constexpr std::uint32_t kLevels = 4;
  static constexpr std::int64_t kMask = kSlotsPerLevel - 1;

  [[nodiscard]] std::int64_t TickOf(std::int64_t t_ns) const noexcept {
    // Negative deadlines (the "expired on arrival" sentinel) clamp to the
    // earliest tick.
    return t_ns <= 0 ? 0 : t_ns / tick_ns_;
  }
  /// Files a node into the slot its deadline maps to; already-due nodes
  /// go straight to the due buffer.
  void Place(const Node& node);
  /// Moves level `lv`'s slot at tick `t` down a level (or to the due
  /// buffer) — called when the cursor crosses that level's boundary.
  void Cascade(std::uint32_t lv, std::int64_t t);

  std::int64_t tick_ns_;
  /// Every tick <= cursor_ has been drained (its nodes are emitted or in
  /// due_).
  std::int64_t cursor_;
  std::size_t size_ = 0;
  std::vector<std::vector<Node>> slots_;  ///< kLevels * kSlotsPerLevel
  /// Due-but-unemitted nodes: budget leftovers and overdue schedules.
  std::vector<Node> due_;
  std::vector<Node> cascade_buf_;  ///< scratch for Cascade (capacity reused)
};

}  // namespace pamakv
