// CacheEngine: the Memcached-style slab cache the paper's schemes manage.
//
// The engine owns the mechanics — size classes, penalty-band subclasses,
// per-subclass LRU stacks and ghost lists, the item table, the hash index,
// and slab/slot accounting — and delegates every *allocation decision* to a
// pluggable AllocationPolicy. The division of labor mirrors the paper:
// Sec. II's schemes (original Memcached, PSA, Twemcache, Facebook
// age-balancing) and Sec. III's PAMA are all policies over the same
// substrate, differing only in when and where slabs move.
//
// Semantics:
//  * Get(key): hit promotes the item to the top of its subclass stack.
//    A miss returns the caller the responsibility to fetch + Set — the
//    simulator write-allocates, matching the paper's assumption that a GET
//    miss is immediately followed by a SET of the same key.
//  * Set(key, size, penalty): routes to class = size class of `size`,
//    subclass = penalty band of `penalty`. If the class has no free slot
//    the engine asks the free pool first and the policy second (MakeRoom).
//    Memcached-compatible: a SET whose space cannot be found fails.
//  * Del(key): removes the item (no ghost entry is recorded).
//
// Logical time is the count of requests processed ("accesses"), which is
// how the paper defines PAMA's windows.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "pamakv/cache/hash_index.hpp"
#include "pamakv/cache/item.hpp"
#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/cache/stats.hpp"
#include "pamakv/ds/ghost_list.hpp"
#include "pamakv/ds/lru_stack.hpp"
#include "pamakv/slab/slab_pool.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class AllocationPolicy;

struct EngineConfig {
  SizeClassConfig size_classes;
  /// Penalty-band bounds (µs). Empty => single subclass per class.
  std::vector<MicroSecs> penalty_band_bounds;
  Bytes capacity_bytes = 64ULL * 1024 * 1024;
  /// Service time charged to a hit (µs); the paper treats hits as free
  /// relative to multi-millisecond misses.
  MicroSecs hit_time_us = 0;
  /// Ghost list length per subclass, in units of that class's slots-per-
  /// slab. PAMA with m reference segments needs at least m + 1.
  std::uint32_t ghost_segments = 4;
  /// Unused: the engine has no randomized structure left (its LRU stacks
  /// are lists). Kept because existing callers still assign it.
  std::uint64_t seed = 42;
};

struct GetResult {
  bool hit = false;
  /// Service time charged for this request (hit cost or miss penalty), µs.
  MicroSecs service_time_us = 0;
};

struct SetResult {
  bool stored = false;
  bool updated = false;  ///< overwrote an existing entry for the key
  /// The stored item's handle, reused once the key leaves the cache.
  ItemHandle handle = kInvalidHandle;
};

class CacheEngine {
 public:
  CacheEngine(const EngineConfig& config, std::unique_ptr<AllocationPolicy> policy);
  ~CacheEngine();

  CacheEngine(const CacheEngine&) = delete;
  CacheEngine& operator=(const CacheEngine&) = delete;

  /// GET. On a miss, `miss_penalty` (from the trace / penalty model) is the
  /// service time the user experiences; it is charged to the stats. `size`
  /// is the size of the value being requested — the trace knows it, and the
  /// engine needs it to route the miss to the ghost list of the class/
  /// subclass the item would occupy.
  GetResult Get(KeyId key, Bytes size, MicroSecs miss_penalty);

  /// SET of an item with the given size and per-key miss penalty. The
  /// engine keeps no deadline: the service layer owns the clock and calls
  /// Expire() once an item's time has passed.
  SetResult Set(KeyId key, Bytes size, MicroSecs penalty);

  /// DELETE. Returns true if the key was cached.
  bool Del(KeyId key);

  /// Removes an item whose deadline has passed. Unlike Del, the key is
  /// pushed to its subclass ghost list — the demand stays visible to the
  /// allocation policy — and the removal counts as `expired`, never as an
  /// eviction. `background=true` marks a reaper sweep (counts toward
  /// `reclaimed`); false marks lazy expiry on access. Returns true if the
  /// key was cached.
  bool Expire(KeyId key, bool background);

  /// Promotes an item (memcached `touch`; the service layer keeps the
  /// deadline). Returns false if the key is not cached. Does not charge
  /// get/set stats; the service layer accounts touch hits/misses itself.
  bool Touch(KeyId key);

  /// Warm-restart insert: like Set's fresh path but without stats,
  /// ghost recording, or policy MakeRoom — only free slots and free
  /// slabs are used, so a pre-restored slab layout is never perturbed.
  /// Callers insert coldest-first; each call advances the access clock,
  /// reproducing the saved LRU order. Returns false (no state changed)
  /// when the key is already cached or no free slot exists; the caller
  /// falls back to a regular Set.
  bool RestoreItem(KeyId key, Bytes size, MicroSecs penalty);

  [[nodiscard]] bool Contains(KeyId key) const noexcept {
    return index_.Find(key) != kInvalidHandle;
  }

  /// The cached key's item handle, or kInvalidHandle.
  [[nodiscard]] ItemHandle HandleOf(KeyId key) const noexcept {
    return index_.Find(key);
  }

  /// Every handle issued so far is below this; the next Set or
  /// RestoreItem issues at most handle_limit().
  [[nodiscard]] std::size_t handle_limit() const noexcept {
    return items_.size();
  }

  /// Where an evicted key's ghost lives, and the penalty it left with.
  struct Ghost {
    ClassId cls = 0;
    SubclassId band = 0;
    MicroSecs penalty = 0;
  };
  [[nodiscard]] std::optional<Ghost> FindGhost(KeyId key) const;

  // ---- Introspection (stats, figures, tests) ----
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] AccessClock clock() const noexcept { return clock_; }
  [[nodiscard]] const SlabPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const SizeClassTable& classes() const noexcept { return classes_; }
  [[nodiscard]] const PenaltyBandTable& bands() const noexcept { return bands_; }
  [[nodiscard]] std::uint32_t num_subclasses() const noexcept { return bands_.num_bands(); }
  [[nodiscard]] std::size_t item_count() const noexcept { return index_.size(); }
  [[nodiscard]] MicroSecs hit_time_us() const noexcept { return hit_time_us_; }

  /// Items currently in subclass (c, s) — fig. 4's per-subclass share.
  [[nodiscard]] std::size_t SubclassItemCount(ClassId c, SubclassId s) const {
    return StackOf(c, s).size();
  }

  /// GET misses whose key was found in (c, s)'s ghost list — the
  /// per-subclass breakdown of stats().ghost_hits (the metrics layer
  /// exports these as pamakv_ghost_hits{class,band} counters).
  [[nodiscard]] std::uint64_t GhostHitCount(ClassId c, SubclassId s) const {
    return ghost_hits_by_stack_[SubclassIndex(c, s)];
  }

  // ---- Policy-facing mechanics ----
  // These are the primitive moves policies compose. They are public rather
  // than friend-scoped so user-defined policies (examples/custom_policy)
  // can build on them too.

  /// Position of subclass (c, s)'s stack, and of its list in ghosts().
  [[nodiscard]] std::size_t SubclassIndex(ClassId c, SubclassId s) const {
    return static_cast<std::size_t>(c) * bands_.num_bands() + s;
  }
  [[nodiscard]] LruStack& StackOf(ClassId c, SubclassId s) {
    return stacks_[SubclassIndex(c, s)];
  }
  [[nodiscard]] const LruStack& StackOf(ClassId c, SubclassId s) const {
    return stacks_[SubclassIndex(c, s)];
  }
  /// Every subclass's ghost list; list SubclassIndex(c, s) is (c, s)'s.
  [[nodiscard]] GhostLists& ghosts() noexcept { return ghosts_; }
  [[nodiscard]] const GhostLists& ghosts() const noexcept { return ghosts_; }
  [[nodiscard]] const Item& ItemAt(ItemHandle h) const { return items_[h]; }

  /// Calls fn(item) for every cached item, in handle order.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (const Item& item : items_) {
      if (item.node != nullptr) fn(item);
    }
  }

  /// Moves one free-pool slab to (c, s). Warm restart replays the saved
  /// per-(class, band) slab layout with this before re-inserting items.
  bool GrantSlab(ClassId c, SubclassId s) { return pool_.GrantFreeSlab(c, s); }

  /// Evicts the LRU item of subclass (c, s). The key goes to the subclass
  /// ghost list. Returns false if the stack is empty.
  bool EvictBottom(ClassId c, SubclassId s);

  /// Evicts the class-wide LRU item (oldest last_access across subclass
  /// bottoms). Returns false if the class holds no item.
  bool EvictClassLru(ClassId c);

  /// Evicts items from (from_c, from_s)'s bottom until that subclass can
  /// release a whole slab, then transfers the slab to (to_c, to_s).
  /// Returns false if the subclass cannot supply enough items.
  bool MigrateSlab(ClassId from_c, SubclassId from_s, ClassId to_c,
                   SubclassId to_s);

  /// Class-granular variant of MigrateSlab for single-stack policies:
  /// evicts class-wide LRU items from from_c until some subclass of it can
  /// release a slab, then transfers it to (to_c, to_s). Returns false if
  /// from_c cannot supply one. With one penalty band (how all non-PAMA
  /// policies run) this is exactly per-class migration.
  bool MigrateSlabClassLru(ClassId from_c, ClassId to_c, SubclassId to_s = 0);

  /// last_access of the class-wide LRU item; nullopt when the class is empty.
  [[nodiscard]] std::optional<AccessClock> OldestAccess(ClassId c) const;

  /// Number of items that must leave subclass (c, s) so class c can free a
  /// slab, or nullopt if (c, s) cannot supply them.
  [[nodiscard]] std::optional<std::size_t> EvictionsToFreeSlab(ClassId c,
                                                               SubclassId s) const;

  [[nodiscard]] AllocationPolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] const AllocationPolicy& policy() const noexcept { return *policy_; }

  /// Observer fired for every *capacity* eviction (EvictBottom /
  /// EvictClassLru — including those inside MigrateSlab/MakeRoom), with
  /// the victim's handle, while ItemAt(handle) is still intact, before it
  /// leaves index and stack. Del and Expire removals do not fire it. This
  /// is the flash tier's demotion hook. The listener runs mid-eviction and
  /// must not reenter the engine; queue and act after the call returns.
  using EvictionListener = std::function<void(ItemHandle)>;
  void SetEvictionListener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

 private:
  ItemHandle AllocateItem();
  void ReleaseItem(ItemHandle h) noexcept;
  /// Grows the item table so the next AllocateItem cannot throw. Called
  /// first thing in Set: any allocation failure (real or injected through
  /// the engine.item_alloc failpoint) surfaces before a single byte of
  /// engine state has changed.
  void ReserveItemCapacity();
  /// Removes an item from index/stack/slots. ghost=true records it in the
  /// subclass ghost list (evictions do; explicit DELs do not).
  void RemoveItem(ItemHandle h, bool to_ghost);
  /// Obtains a free slot in class c, invoking the policy when needed.
  [[nodiscard]] bool ObtainSlot(ClassId c, SubclassId s);

  SizeClassTable classes_;
  PenaltyBandTable bands_;
  SlabPool pool_;
  HashIndex index_;
  std::deque<Item> items_;
  std::vector<ItemHandle> free_items_;
  std::vector<LruStack> stacks_;
  GhostLists ghosts_;
  /// Ghost hits per (class, subclass), indexed like stacks_.
  std::vector<std::uint64_t> ghost_hits_by_stack_;
  std::unique_ptr<AllocationPolicy> policy_;
  EvictionListener eviction_listener_;
  CacheStats stats_;
  AccessClock clock_ = 0;
  MicroSecs hit_time_us_;
};

}  // namespace pamakv
