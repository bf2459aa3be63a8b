#include "pamakv/cache/cache_engine.hpp"

#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/util/failpoint.hpp"
#include "engine_snapshot.hpp"

namespace pamakv {
namespace {

// Tiny geometry: 1 KiB slabs, classes 64/128/256/512 B
// -> slots per slab 16/8/4/2.
EngineConfig TinyConfig(Bytes capacity = 4096, bool with_bands = false) {
  EngineConfig cfg;
  cfg.size_classes.slab_bytes = 1024;
  cfg.size_classes.min_slot_bytes = 64;
  cfg.size_classes.num_classes = 4;
  cfg.capacity_bytes = capacity;
  if (with_bands) {
    cfg.penalty_band_bounds = PenaltyBandTable::PaperDefault().bounds();
  }
  return cfg;
}

std::unique_ptr<CacheEngine> MakeTinyEngine(Bytes capacity = 4096,
                                            bool with_bands = false) {
  return std::make_unique<CacheEngine>(TinyConfig(capacity, with_bands),
                                       std::make_unique<NoReallocPolicy>());
}

TEST(CacheEngineTest, MissThenSetThenHit) {
  auto engine = MakeTinyEngine();
  const auto miss = engine->Get(1, 50, 1000);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.service_time_us, 1000);

  const auto set = engine->Set(1, 50, 1000);
  EXPECT_TRUE(set.stored);
  EXPECT_FALSE(set.updated);

  const auto hit = engine->Get(1, 50, 1000);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.service_time_us, 0);  // default hit cost
  EXPECT_EQ(engine->stats().gets, 2u);
  EXPECT_EQ(engine->stats().get_hits, 1u);
  EXPECT_EQ(engine->stats().get_misses, 1u);
  EXPECT_EQ(engine->stats().miss_penalty_total_us, 1000u);
}

TEST(CacheEngineTest, HitTimeChargedWhenConfigured) {
  auto cfg = TinyConfig();
  cfg.hit_time_us = 50;
  CacheEngine engine(cfg, std::make_unique<NoReallocPolicy>());
  engine.Set(1, 10, 100);
  const auto hit = engine.Get(1, 10, 100);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.service_time_us, 50);
}

TEST(CacheEngineTest, SizeRoutesToClass) {
  auto engine = MakeTinyEngine();
  engine->Set(1, 64, 100);    // class 0
  engine->Set(2, 65, 100);    // class 1
  engine->Set(3, 256, 100);   // class 2
  engine->Set(4, 257, 100);   // class 3
  EXPECT_EQ(engine->SubclassItemCount(0, 0), 1u);
  EXPECT_EQ(engine->SubclassItemCount(1, 0), 1u);
  EXPECT_EQ(engine->SubclassItemCount(2, 0), 1u);
  EXPECT_EQ(engine->SubclassItemCount(3, 0), 1u);
}

TEST(CacheEngineTest, PenaltyRoutesToSubclass) {
  auto engine = MakeTinyEngine(4096, /*with_bands=*/true);
  engine->Set(1, 10, 500);          // band 0: <= 1 ms
  engine->Set(2, 10, 50'000);       // band 2: (10, 100] ms
  engine->Set(3, 10, 3'000'000);    // band 4: (1, 5] s
  EXPECT_EQ(engine->SubclassItemCount(0, 0), 1u);
  EXPECT_EQ(engine->SubclassItemCount(0, 2), 1u);
  EXPECT_EQ(engine->SubclassItemCount(0, 4), 1u);
  EXPECT_EQ(engine->num_subclasses(), 5u);
}

TEST(CacheEngineTest, OversizedStoreFails) {
  auto engine = MakeTinyEngine();
  const auto result = engine->Set(1, 513, 100);  // > largest slot (512)
  EXPECT_FALSE(result.stored);
  EXPECT_EQ(engine->stats().set_failures, 1u);
  EXPECT_FALSE(engine->Contains(1));
}

TEST(CacheEngineTest, UpdateSameClassKeepsSingleCopy) {
  auto engine = MakeTinyEngine();
  engine->Set(1, 50, 100);
  const auto update = engine->Set(1, 60, 200);
  EXPECT_TRUE(update.stored);
  EXPECT_TRUE(update.updated);
  EXPECT_EQ(engine->item_count(), 1u);
  EXPECT_EQ(engine->stats().set_updates, 1u);
  EXPECT_EQ(engine->pool().ClassSlotsInUse(0), 1u);
}

TEST(CacheEngineTest, UpdateAcrossClassesMovesItem) {
  auto engine = MakeTinyEngine();
  engine->Set(1, 50, 100);   // class 0
  engine->Set(1, 200, 100);  // class 2 (129..256 B)
  EXPECT_EQ(engine->item_count(), 1u);
  EXPECT_EQ(engine->pool().ClassSlotsInUse(0), 0u);
  EXPECT_EQ(engine->pool().ClassSlotsInUse(2), 1u);
  EXPECT_EQ(engine->SubclassItemCount(0, 0), 0u);
  EXPECT_EQ(engine->SubclassItemCount(2, 0), 1u);
}

TEST(CacheEngineTest, DelRemovesWithoutGhost) {
  auto engine = MakeTinyEngine();
  engine->Set(1, 50, 100);
  EXPECT_TRUE(engine->Del(1));
  EXPECT_FALSE(engine->Contains(1));
  EXPECT_FALSE(engine->Del(1));
  EXPECT_EQ(engine->stats().dels, 2u);
  EXPECT_FALSE(engine->LookupGhost(engine->SubclassIndex(0, 0), 1).has_value());
  EXPECT_EQ(engine->pool().ClassSlotsInUse(0), 0u);
}

TEST(CacheEngineTest, LruEvictionOrderWithinClass) {
  // Capacity: exactly one slab; class 3 fits 2 items of 512 B.
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 100);
  engine->Set(2, 512, 100);
  engine->Get(1, 512, 100);  // 1 becomes MRU; LRU is 2
  engine->Set(3, 512, 100);  // evicts 2
  EXPECT_TRUE(engine->Contains(1));
  EXPECT_FALSE(engine->Contains(2));
  EXPECT_TRUE(engine->Contains(3));
  EXPECT_EQ(engine->stats().evictions, 1u);
}

TEST(CacheEngineTest, EvictionRecordsGhost) {
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 777);
  engine->Set(2, 512, 100);
  engine->Set(3, 512, 100);  // evicts key 1 (LRU)
  const auto ghost = engine->LookupGhost(engine->SubclassIndex(3, 0), 1);
  ASSERT_TRUE(ghost.has_value());
  EXPECT_EQ(ghost->penalty, 777);
  EXPECT_EQ(ghost->rank, 0u);
}

TEST(CacheEngineTest, ReinsertionClearsGhostEntry) {
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 100);
  engine->Set(2, 512, 100);
  engine->Set(3, 512, 100);  // evicts 1 -> ghost
  ASSERT_TRUE(engine->LookupGhost(engine->SubclassIndex(3, 0), 1).has_value());
  engine->Set(1, 512, 100);  // re-cached
  EXPECT_FALSE(engine->LookupGhost(engine->SubclassIndex(3, 0), 1).has_value());
}

TEST(CacheEngineTest, GhostHitCounted) {
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 100);
  engine->Set(2, 512, 100);
  engine->Set(3, 512, 100);  // evicts 1
  engine->Get(1, 512, 100);  // miss, but ghost remembers it
  EXPECT_EQ(engine->stats().ghost_hits, 1u);
}

TEST(CacheEngineTest, StarvedClassFailsUnderNoRealloc) {
  // One slab total; class 3 takes it; class 0 then cannot store.
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 100);
  const auto result = engine->Set(2, 50, 100);
  EXPECT_FALSE(result.stored);
  EXPECT_EQ(engine->stats().set_failures, 1u);
}

TEST(CacheEngineTest, ClockCountsEveryRequest) {
  auto engine = MakeTinyEngine();
  engine->Get(1, 10, 100);
  engine->Set(1, 10, 100);
  engine->Del(1);
  EXPECT_EQ(engine->clock(), 3u);
}

TEST(CacheEngineTest, OldestAccessTracksClassLru) {
  auto engine = MakeTinyEngine();
  EXPECT_EQ(engine->OldestAccess(0), std::nullopt);
  engine->Set(1, 50, 100);  // clock 1
  engine->Set(2, 50, 100);  // clock 2
  EXPECT_EQ(engine->OldestAccess(0), std::optional<AccessClock>(1));
  engine->Get(1, 50, 100);  // key 1 touched at clock 3
  EXPECT_EQ(engine->OldestAccess(0), std::optional<AccessClock>(2));
}

TEST(CacheEngineTest, MigrateSlabMovesCapacity) {
  auto engine = MakeTinyEngine(1024);
  engine->Set(1, 512, 100);
  engine->Set(2, 512, 100);
  ASSERT_EQ(engine->pool().SlabCount(3, 0), 1u);
  EXPECT_TRUE(engine->MigrateSlab(3, 0, 0, 0));
  EXPECT_EQ(engine->pool().SlabCount(3, 0), 0u);
  EXPECT_EQ(engine->pool().SlabCount(0, 0), 1u);
  EXPECT_EQ(engine->item_count(), 0u);  // both items evicted
  EXPECT_EQ(engine->stats().slab_migrations, 1u);
  // The evicted keys are remembered in class 3's ghost list.
  EXPECT_TRUE(engine->LookupGhost(engine->SubclassIndex(3, 0), 1).has_value());
  EXPECT_TRUE(engine->LookupGhost(engine->SubclassIndex(3, 0), 2).has_value());
}

TEST(CacheEngineTest, MigrateSlabFailsWithoutSupply) {
  auto engine = MakeTinyEngine(1024);
  EXPECT_FALSE(engine->MigrateSlab(3, 0, 0, 0));  // class 3 has no slab
}

TEST(CacheEngineTest, EvictClassLruPicksOldestAcrossSubclasses) {
  auto engine = MakeTinyEngine(4096, /*with_bands=*/true);
  engine->Set(1, 50, 500);       // band 0, clock 1
  engine->Set(2, 50, 50'000);    // band 2, clock 2
  engine->Get(1, 50, 500);       // key 1 now newer
  ASSERT_TRUE(engine->EvictClassLru(0));
  EXPECT_TRUE(engine->Contains(1));
  EXPECT_FALSE(engine->Contains(2));
}

#if PAMAKV_FAILPOINTS

TEST(CacheEngineTest, MidStoreOomLeavesEngineUntouched) {
  auto engine = MakeTinyEngine(4096, /*with_bands=*/true);
  for (KeyId k = 0; k < 8; ++k) {
    ASSERT_TRUE(engine->Set(k, 64, 100 + k * 1000).stored);
  }
  const auto before = EngineSnapshot::Of(*engine);

  // Every insert of a brand-new key allocates an item table entry (nothing
  // has been deleted, so the free list is empty) and therefore crosses the
  // engine.item_alloc seam.
  ASSERT_TRUE(util::FailPoints::Arm("engine.item_alloc", "oom@once"));
  EXPECT_THROW(engine->Set(99, 64, 100), std::bad_alloc);
  util::FailPoints::DisableAll();

  // The failed Set must be invisible: not even the request clock or the
  // sets counter moved, because the allocation seam sits before any state
  // change (allocate-then-commit).
  EngineSnapshot::Of(*engine).ExpectEq(before);
  EXPECT_FALSE(engine->Contains(99));

  // And the engine is not poisoned: the same Set succeeds afterwards.
  EXPECT_TRUE(engine->Set(99, 64, 100).stored);
  EXPECT_TRUE(engine->Contains(99));
}

TEST(CacheEngineTest, OomDuringOverwriteAlsoRollsBack) {
  auto engine = MakeTinyEngine();
  ASSERT_TRUE(engine->Set(1, 50, 100).stored);
  const auto before = EngineSnapshot::Of(*engine);

  // Overwriting key 1 in place reuses its item, but a cross-class
  // overwrite of a *new* key still needs a fresh item entry. Arm the seam
  // and try a new key: rollback must hold with items already resident.
  ASSERT_TRUE(util::FailPoints::Arm("engine.item_alloc", "oom@once"));
  EXPECT_THROW(engine->Set(2, 200, 100), std::bad_alloc);
  util::FailPoints::DisableAll();

  EngineSnapshot::Of(*engine).ExpectEq(before);
  EXPECT_TRUE(engine->Contains(1));
  EXPECT_FALSE(engine->Contains(2));
  EXPECT_TRUE(engine->Set(2, 200, 100).stored);
}

#endif  // PAMAKV_FAILPOINTS

TEST(CacheEngineTest, SlotsMatchItemCounts) {
  auto engine = MakeTinyEngine();
  for (KeyId k = 0; k < 20; ++k) engine->Set(k, 64, 100);
  std::size_t stack_total = 0;
  for (SubclassId s = 0; s < engine->num_subclasses(); ++s) {
    stack_total += engine->SubclassItemCount(0, s);
  }
  EXPECT_EQ(engine->pool().ClassSlotsInUse(0), stack_total);
  EXPECT_EQ(engine->item_count(), stack_total);
}

}  // namespace
}  // namespace pamakv
