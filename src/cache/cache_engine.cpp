#include "pamakv/cache/cache_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "pamakv/policy/policy.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv {

namespace {

/// Ghost list capacities in SubclassIndex order.
std::vector<std::size_t> GhostCapacities(const SizeClassTable& classes,
                                         std::uint32_t bands,
                                         std::uint32_t ghost_segments) {
  std::vector<std::size_t> capacities;
  for (ClassId c = 0; c < classes.num_classes(); ++c) {
    capacities.insert(capacities.end(), bands,
                      static_cast<std::size_t>(ghost_segments) *
                          classes.SlotsPerSlab(c));
  }
  return capacities;
}

}  // namespace

CacheEngine::CacheEngine(const EngineConfig& config,
                         std::unique_ptr<AllocationPolicy> policy)
    : classes_(config.size_classes),
      bands_(config.penalty_band_bounds),
      pool_(config.capacity_bytes, classes_, bands_.num_bands()),
      stacks_(static_cast<std::size_t>(classes_.num_classes()) *
              bands_.num_bands()),
      ghosts_(GhostCapacities(classes_, bands_.num_bands(),
                              config.ghost_segments)),
      ghost_hits_by_stack_(stacks_.size(), 0),
      policy_(std::move(policy)),
      hit_time_us_(config.hit_time_us) {
  assert(policy_ != nullptr);
  // Every ghost position, tagged, stays below kInvalidHandle.
  assert(ghosts_.positions() < kGhostTag);
  // Pre-size the index for the slot budget the pool could actually serve
  // (slabs spread evenly across classes) so warmup doesn't rehash-storm.
  // Capped: a cache whose slabs all end up in the smallest class can still
  // trigger a handful of late rehashes, which is the right trade against
  // reserving the worst case up front.
  std::size_t slot_estimate = 0;
  if (classes_.num_classes() > 0) {
    const std::size_t slabs_per_class =
        std::max<std::size_t>(1, pool_.total_slabs() / classes_.num_classes());
    for (ClassId c = 0; c < classes_.num_classes(); ++c) {
      slot_estimate += slabs_per_class * classes_.SlotsPerSlab(c);
    }
  }
  index_.Reserve(std::min<std::size_t>(slot_estimate, 1u << 22));
  policy_->Attach(*this);
}

CacheEngine::~CacheEngine() = default;

ItemHandle CacheEngine::AllocateItem() {
  // ReserveItemCapacity ran at the top of Set, so the free list is never
  // empty here and this cannot throw mid-mutation.
  assert(!free_items_.empty());
  const ItemHandle h = free_items_.back();
  free_items_.pop_back();
  return h;
}

void CacheEngine::ReserveItemCapacity() {
  if (!free_items_.empty()) return;
  PAMAKV_FAILPOINT_OOM("engine.item_alloc");
  if (free_items_.capacity() < items_.size() + 1) {
    // The free list is empty here, so growing it is a copy-free realloc.
    // Keep its capacity >= the item count (geometrically) so ReleaseItem's
    // push_back — noexcept, called mid-eviction — can never reallocate.
    free_items_.reserve(std::max(items_.size() + 1,
                                 free_items_.capacity() * 2));
  }
  items_.emplace_back();
  assert(items_.size() - 1 < kGhostTag);
  free_items_.push_back(static_cast<ItemHandle>(items_.size() - 1));
}

void CacheEngine::ReleaseItem(ItemHandle h) noexcept { free_items_.push_back(h); }

GetResult CacheEngine::Get(KeyId key, Bytes size, MicroSecs miss_penalty,
                           bool by_ghost) {
  policy_->OnTick(clock_);
  clock_ += clock_step_;
  ++stats_.gets;

  const ItemHandle ref = index_.Find(key);
  if (IsItem(ref)) {
    Item& item = items_[ref];
    ++stats_.get_hits;
    // The hit avoided this item's recorded miss penalty — the live
    // numerator of the paper's service-time savings.
    stats_.hit_penalty_saved_us += static_cast<std::uint64_t>(item.penalty);
    // Policy sees the pre-promotion stack position (rank bookkeeping).
    policy_->OnHit(item);
    StackOf(item.cls, item.sub).MoveToTop(item.node);
    item.last_access = clock_;
    item.fetched = true;
    return GetResult{true, hit_time_us_};
  }

  ++stats_.get_misses;
  // Route the miss to the class/subclass the item would occupy so the
  // policy can consult the right ghost list.
  std::optional<ClassId> cls = classes_.ClassForSize(size);
  SubclassId sub = bands_.BandFor(miss_penalty);
  if (by_ghost && IsGhost(ref)) {
    const std::size_t list = ghosts_.ListOf(GhostPos(ref));
    cls = static_cast<ClassId>(list / bands_.num_bands());
    sub = static_cast<SubclassId>(list % bands_.num_bands());
    size = classes_.SlotBytes(*cls);
    miss_penalty = ghosts_.At(GhostPos(ref)).penalty;
  }
  stats_.miss_penalty_total_us += static_cast<std::uint64_t>(miss_penalty);
  if (cls) {
    const std::size_t list = SubclassIndex(*cls, sub);
    if (IsGhost(ref) && ghosts_.InList(list, GhostPos(ref))) {
      ++stats_.ghost_hits;
      ++ghost_hits_by_stack_[list];
    }
    policy_->OnMiss(key, size, miss_penalty, *cls, sub);
  }
  return GetResult{false, miss_penalty};
}

SetResult CacheEngine::Set(KeyId key, Bytes size, MicroSecs penalty) {
  // All item-table and index growth happens before any state mutates: a
  // bad_alloc from here (real heap exhaustion, or injected via
  // engine.item_alloc) leaves the engine bit-identical to before the call.
  // Only a key the index lacks can add a slot — as an item or, refused, as
  // a ghost; a key it holds re-points its own. The remaining allocation
  // seam deeper in the insert path (the LRU node pool) is guarded with an
  // explicit rollback below.
  ReserveItemCapacity();
  const auto cls_opt = classes_.ClassForSize(size);
  ItemHandle existing = index_.Find(key);
  if (existing == kInvalidHandle && cls_opt) {
    index_.Reserve(index_.size() + 1);
  }
  policy_->OnTick(clock_);
  clock_ += clock_step_;
  ++stats_.sets;

  if (!cls_opt) {
    ++stats_.set_failures;  // larger than the largest slot: refused
    return SetResult{};
  }
  const ClassId cls = *cls_opt;
  const SubclassId sub = bands_.BandFor(penalty);

  // A tick may evict (slab balancing), which re-points or drops a slot but
  // never adds one: only a key already in the index can have changed.
  if (existing != kInvalidHandle) existing = index_.Find(key);

  // Overwrite path.
  if (IsItem(existing)) {
    Item& item = items_[existing];
    if (item.cls == cls && item.sub == sub) {
      stats_.bytes_stored += size;
      stats_.bytes_stored -= item.size;
      item.size = size;
      item.penalty = penalty;
      item.last_access = clock_;
      item.fetched = false;  // the new value hasn't been read yet
      StackOf(cls, sub).MoveToTop(item.node);
      ++stats_.set_updates;
      return SetResult{true, true, existing};
    }
    // Class or subclass changed: drop the old copy, insert fresh below.
    RemoveItem(existing, /*to_ghost=*/false);
  }

  if (!ObtainSlot(cls, sub)) {
    ++stats_.set_failures;
    // Remember the refused key exactly like an eviction: a refused store is
    // an instant eviction. Re-misses then feed the subclass's incoming
    // value, letting value-gated policies (PAMA) grant it space once the
    // demand proves itself.
    PushGhost(cls, sub, key, penalty);
    return SetResult{};
  }
  return SetResult{true, IsItem(existing),
                   InsertItem(key, size, penalty, cls, sub)};
}

ItemHandle CacheEngine::InsertItem(KeyId key, Bytes size, MicroSecs penalty,
                                   ClassId cls, SubclassId sub) {
  const ItemHandle h = AllocateItem();
  Item& item = items_[h];
  item = Item{};
  item.key = key;
  item.size = size;
  item.penalty = penalty;
  item.cls = cls;
  item.sub = sub;
  item.last_access = clock_;
  try {
    item.node = StackOf(cls, sub).PushTop(h);
  } catch (...) {
    // LRU node-pool or rank-index growth failed (the stack is unchanged):
    // hand back the slot and the item so slab accounting stays exact, then
    // surface the failure.
    ReleaseItem(h);
    pool_.ReleaseSlot(cls, sub);
    throw;
  }
  // The caller reserved room, so this cannot grow the index. The key is
  // cached again: its ghost (if any) is obsolete.
  const ItemHandle was = index_.Upsert(key, h);
  if (IsGhost(was)) ghosts_.Remove(GhostPos(was));
  stats_.bytes_stored += size;
  policy_->OnInsert(item);
  return h;
}

std::optional<GhostLists::Hit> CacheEngine::LookupGhost(std::size_t list,
                                                        KeyId key) const {
  const ItemHandle ref = index_.Find(key);
  if (!IsGhost(ref) || !ghosts_.InList(list, GhostPos(ref))) {
    return std::nullopt;
  }
  return ghosts_.Lookup(list, GhostPos(ref));
}

bool CacheEngine::PushGhost(ClassId c, SubclassId s, KeyId key,
                            MicroSecs penalty) {
  const ItemHandle was = index_.Find(key);
  if (IsItem(was)) return false;
  if (was == kInvalidHandle) {
    index_.Reserve(index_.size() + 1);  // the only step that can throw
  } else {
    ghosts_.Remove(GhostPos(was));  // one ghost per key
  }
  // An insert, or a re-point of the key's slot: WriteGhost may have
  // erased another key, so the slot is found afresh.
  index_.Upsert(key, WriteGhost(SubclassIndex(c, s), key, penalty));
  return true;
}

ItemHandle CacheEngine::WriteGhost(std::size_t list, KeyId key,
                                   MicroSecs penalty) noexcept {
  const GhostLists::Pushed pushed = ghosts_.Push(list, key, penalty);
  // The wrapped ring overwrote that key's ghost: it leaves the engine.
  if (pushed.displaced) index_.Erase(*pushed.displaced);
  return kGhostTag | static_cast<ItemHandle>(pushed.pos);
}

bool CacheEngine::Del(KeyId key) {
  policy_->OnTick(clock_);
  clock_ += clock_step_;
  ++stats_.dels;
  const ItemHandle h = index_.Find(key);
  if (!IsItem(h)) return false;
  RemoveItem(h, /*to_ghost=*/false);
  return true;
}

bool CacheEngine::Expire(KeyId key, bool background) {
  const ItemHandle h = index_.Find(key);
  if (!IsItem(h)) return false;
  const Item& item = items_[h];
  ++stats_.expired;
  if (!item.fetched) ++stats_.expired_unfetched;
  if (background) ++stats_.reclaimed;
  // Ghost-listed like an eviction — the key's demand stays visible to the
  // policy even though the value aged out — but not *counted* as one:
  // expiry is the workload reclaiming space, not capacity pressure.
  RemoveItem(h, /*to_ghost=*/true);
  return true;
}

bool CacheEngine::Touch(KeyId key) {
  const ItemHandle h = index_.Find(key);
  if (!IsItem(h)) return false;
  Item& item = items_[h];
  StackOf(item.cls, item.sub).MoveToTop(item.node);
  item.last_access = clock_;
  return true;
}

bool CacheEngine::RestoreItem(KeyId key, Bytes size, MicroSecs penalty) {
  ReserveItemCapacity();
  const auto cls_opt = classes_.ClassForSize(size);
  if (!cls_opt) return false;
  const ClassId cls = *cls_opt;
  const SubclassId sub = bands_.BandFor(penalty);
  const ItemHandle existing = index_.Find(key);
  if (IsItem(existing)) return false;
  if (existing == kInvalidHandle) index_.Reserve(index_.size() + 1);
  // Free slots / free slabs only — never the policy's MakeRoom, which
  // could migrate slabs and scramble the layout being restored.
  if (!pool_.AcquireSlot(cls, sub)) {
    if (!pool_.GrantFreeSlab(cls, sub) || !pool_.AcquireSlot(cls, sub)) {
      return false;
    }
  }
  clock_ += clock_step_;
  InsertItem(key, size, penalty, cls, sub);
  return true;
}

bool CacheEngine::ObtainSlot(ClassId cls, SubclassId sub) {
  if (pool_.AcquireSlot(cls, sub)) return true;
  if (pool_.GrantFreeSlab(cls, sub)) {
    const bool ok = pool_.AcquireSlot(cls, sub);
    assert(ok);
    return ok;
  }
  // The policy must free a slot in (cls, sub) — possibly via slab
  // migration. A bounded number of retries guards against a policy that
  // frees space elsewhere: each MakeRoom call must make progress or give up.
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!policy_->MakeRoom(cls, sub)) return false;
    if (pool_.AcquireSlot(cls, sub)) return true;
    if (pool_.GrantFreeSlab(cls, sub) && pool_.AcquireSlot(cls, sub)) return true;
  }
  return false;
}

void CacheEngine::RemoveItem(ItemHandle h, bool to_ghost) {
  Item& item = items_[h];
  stats_.bytes_stored -= item.size;
  const ItemHandle ghost =
      to_ghost ? WriteGhost(SubclassIndex(item.cls, item.sub), item.key,
                            item.penalty)
               : kInvalidHandle;
  policy_->OnEvict(item);
  StackOf(item.cls, item.sub).Erase(item.node);
  item.node = nullptr;
  if (to_ghost) {
    // The key is in the index, so this re-points its slot in place.
    index_.Upsert(item.key, ghost);
  } else {
    index_.Erase(item.key);
  }
  pool_.ReleaseSlot(item.cls, item.sub);
  ReleaseItem(h);
}

bool CacheEngine::EvictBottom(ClassId c, SubclassId s) {
  LruStack& stack = StackOf(c, s);
  LruStack::Node* bottom = stack.Bottom();
  if (bottom == nullptr) return false;
  ++stats_.evictions;
  if (eviction_listener_) eviction_listener_(bottom->value);
  RemoveItem(bottom->value, /*to_ghost=*/true);
  return true;
}

bool CacheEngine::EvictClassLru(ClassId c) {
  // The class-wide LRU item is the oldest of the subclass bottoms.
  LruStack::Node* victim = nullptr;
  SubclassId victim_sub = 0;
  AccessClock oldest = std::numeric_limits<AccessClock>::max();
  for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
    LruStack::Node* bottom = StackOf(c, s).Bottom();
    if (bottom == nullptr) continue;
    const AccessClock age = items_[bottom->value].last_access;
    if (age < oldest) {
      oldest = age;
      victim = bottom;
      victim_sub = s;
    }
  }
  if (victim == nullptr) return false;
  (void)victim_sub;
  ++stats_.evictions;
  if (eviction_listener_) eviction_listener_(victim->value);
  RemoveItem(victim->value, /*to_ghost=*/true);
  return true;
}

std::optional<std::size_t> CacheEngine::EvictionsToFreeSlab(ClassId c,
                                                            SubclassId s) const {
  if (pool_.SlabCount(c, s) == 0) return std::nullopt;
  const std::size_t needed = pool_.EvictionsNeededToFreeSlab(c, s);
  if (StackOf(c, s).size() < needed) return std::nullopt;
  return needed;
}

bool CacheEngine::MigrateSlab(ClassId from_c, SubclassId from_s, ClassId to_c,
                              SubclassId to_s) {
  const auto needed = EvictionsToFreeSlab(from_c, from_s);
  if (!needed) return false;
  for (std::size_t i = 0; i < *needed; ++i) {
    const bool evicted = EvictBottom(from_c, from_s);
    assert(evicted);
    (void)evicted;
  }
  assert(pool_.CanReleaseSlab(from_c, from_s));
  pool_.TransferSlab(from_c, from_s, to_c, to_s);
  ++stats_.slab_migrations;
  return true;
}

bool CacheEngine::MigrateSlabClassLru(ClassId from_c, ClassId to_c,
                                      SubclassId to_s) {
  if (pool_.ClassSlabCount(from_c) == 0) return false;
  // Evict class-wide LRU items until some subclass of from_c can release a
  // whole slab. Bounded by the class's item population.
  std::size_t budget = pool_.ClassSlotsInUse(from_c);
  for (;;) {
    for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
      if (pool_.CanReleaseSlab(from_c, s)) {
        pool_.TransferSlab(from_c, s, to_c, to_s);
        ++stats_.slab_migrations;
        return true;
      }
    }
    if (budget == 0) return false;
    --budget;
    if (!EvictClassLru(from_c)) return false;
  }
}

std::optional<AccessClock> CacheEngine::OldestAccess(ClassId c) const {
  std::optional<AccessClock> oldest;
  for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
    const LruStack::Node* bottom = StackOf(c, s).Bottom();
    if (bottom == nullptr) continue;
    const AccessClock age = items_[bottom->value].last_access;
    if (!oldest || age < *oldest) oldest = age;
  }
  return oldest;
}

}  // namespace pamakv
