// Scenario tests for PAMA's slab (re)allocation decisions (paper Sec. III):
// migration toward high incoming value, suppression when migration would
// not pay, self-eviction when the requester's own candidate slab is the
// cheapest, and forced migration for starved classes.
#include <gtest/gtest.h>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/policy/pama.hpp"

namespace pamakv {
namespace {

EngineConfig TinyConfig(Bytes capacity, std::uint32_t ghost_segments) {
  EngineConfig cfg;
  cfg.size_classes.slab_bytes = 1024;
  cfg.size_classes.min_slot_bytes = 64;
  cfg.size_classes.num_classes = 4;
  cfg.capacity_bytes = capacity;
  cfg.ghost_segments = ghost_segments;
  return cfg;
}

struct Harness {
  explicit Harness(Bytes capacity, PamaConfig pama_cfg = DefaultConfig()) {
    auto policy = std::make_unique<PamaPolicy>(pama_cfg);
    pama = policy.get();
    engine = std::make_unique<CacheEngine>(
        TinyConfig(capacity, static_cast<std::uint32_t>(
                                 pama_cfg.reference_segments + 1)),
        std::move(policy));
  }
  static PamaConfig DefaultConfig() {
    PamaConfig cfg;
    cfg.reference_segments = 2;
    cfg.window_accesses = 1'000'000;
    cfg.use_bloom = false;
    return cfg;
  }
  std::unique_ptr<CacheEngine> engine;
  PamaPolicy* pama = nullptr;
};

TEST(PamaPolicyTest, MigratesFromColdDonorToValuableRequester) {
  Harness h(2048);  // 2 slabs
  auto& e = *h.engine;
  // Class 3 hoards one slab with two never-again-touched items.
  e.Set(1, 512, 100);
  e.Set(2, 512, 100);
  // Class 0 fills its slab (16 slots) with hot items.
  for (KeyId k = 100; k < 116; ++k) e.Set(k, 64, 1000);
  ASSERT_EQ(e.pool().free_slabs(), 0u);
  // Touch class 0's items so its candidate slab is clearly valuable.
  for (KeyId k = 100; k < 116; ++k) e.Get(k, 64, 1000);

  // First overflow: incoming value is still 0, so migration is suppressed
  // and class 0 replaces within itself.
  e.Set(200, 64, 1000);
  EXPECT_EQ(h.pama->decisions().suppressed, 1u);
  EXPECT_EQ(e.pool().ClassSlabCount(0), 1u);

  // The evicted key misses (ghost hit -> incoming value) and is re-cached:
  // now class 3's worthless slab must be migrated to class 0.
  const KeyId evicted = 100;  // class 0's LRU at overflow time
  ASSERT_FALSE(e.Contains(evicted));
  e.Get(evicted, 64, 1000);
  e.Set(evicted, 64, 1000);
  EXPECT_EQ(h.pama->decisions().migrations, 1u);
  EXPECT_EQ(e.pool().ClassSlabCount(0), 2u);
  EXPECT_EQ(e.pool().ClassSlabCount(3), 0u);
  EXPECT_FALSE(e.Contains(1));
  EXPECT_FALSE(e.Contains(2));
  EXPECT_EQ(e.stats().slab_migrations, 1u);
}

TEST(PamaPolicyTest, SelfEvictionWhenOwnCandidateIsCheapest) {
  Harness h(2048);
  auto& e = *h.engine;
  // Class 0: hot slab. Class 3: cold slab, and the next store also
  // targets class 3 — its own candidate is the global minimum.
  for (KeyId k = 100; k < 116; ++k) e.Set(k, 64, 1000);
  e.Set(1, 512, 100);
  e.Set(2, 512, 100);
  for (KeyId k = 100; k < 116; ++k) e.Get(k, 64, 1000);
  ASSERT_EQ(e.pool().free_slabs(), 0u);

  e.Set(3, 512, 100);  // class 3 overflow
  EXPECT_EQ(h.pama->decisions().self_evictions, 1u);
  EXPECT_EQ(e.pool().ClassSlabCount(3), 1u);  // no slab moved
  EXPECT_FALSE(e.Contains(1));           // its own LRU was replaced
  EXPECT_TRUE(e.Contains(3));
}

TEST(PamaPolicyTest, StarvedSubclassBootstrapsViaGhost) {
  Harness h(1024);  // a single slab
  auto& e = *h.engine;
  for (KeyId k = 100; k < 116; ++k) e.Set(k, 64, 1000);  // class 0 owns it
  ASSERT_EQ(e.pool().free_slabs(), 0u);

  // Class 3 appears with zero slabs and zero proven value: the store is
  // refused (value-gated admission) and the key is remembered as a ghost.
  const auto refused = e.Set(1, 512, 100);
  EXPECT_FALSE(refused.stored);
  EXPECT_EQ(h.pama->decisions().refusals, 1u);
  EXPECT_TRUE(e.LookupGhost(e.SubclassIndex(3, 0), 1).has_value());

  // The key re-misses: the ghost hit builds class 3's incoming value above
  // the idle donor's zero outgoing value, so the retry is admitted via a
  // real migration.
  e.Get(1, 512, 100);
  const auto admitted = e.Set(1, 512, 100);
  EXPECT_TRUE(admitted.stored);
  EXPECT_EQ(e.pool().ClassSlabCount(3), 1u);
  EXPECT_EQ(e.pool().ClassSlabCount(0), 0u);
  EXPECT_GE(h.pama->decisions().migrations, 1u);
}

TEST(PamaPolicyTest, IntraClassReallocationAcrossBands) {
  PamaConfig cfg = Harness::DefaultConfig();
  // Build an engine with penalty bands directly (the Harness default has
  // a single band).
  EngineConfig ecfg = TinyConfig(1024, 3);
  ecfg.penalty_band_bounds = {1'000, 1'000'000};  // two bands
  auto policy = std::make_unique<PamaPolicy>(cfg);
  auto* pama = policy.get();
  CacheEngine engine(ecfg, std::move(policy));

  // The single slab goes to class 3 band 0; band 1 then demands space.
  // Subclasses own their slabs, so serving band 1 requires a real slab
  // transfer between bands of the same class — granted only once band 1's
  // ghost demand proves it out-values band 0's idle slab.
  engine.Set(1, 512, 500);  // band 0 takes the only slab
  ASSERT_EQ(engine.pool().SlabCount(3, 0), 1u);
  ASSERT_EQ(engine.pool().free_slabs(), 0u);

  EXPECT_FALSE(engine.Set(2, 512, 500'000).stored);  // refused, ghosted
  engine.Get(2, 512, 500'000);                       // ghost hit
  const auto result = engine.Set(2, 512, 500'000);   // band 1 admitted
  EXPECT_TRUE(result.stored);
  EXPECT_EQ(engine.pool().SlabCount(3, 1), 1u);
  EXPECT_EQ(engine.pool().SlabCount(3, 0), 0u);
  EXPECT_EQ(engine.pool().ClassSlabCount(3), 1u);
  EXPECT_GE(engine.stats().slab_migrations, 1u);
  EXPECT_GE(pama->decisions().intra_class + pama->decisions().refusals +
                pama->decisions().migrations,
            1u);
  EXPECT_FALSE(engine.Contains(1));  // band 0's item was displaced
  EXPECT_TRUE(engine.Contains(2));
}

TEST(PamaPolicyTest, DecisionCountersStartAtZero) {
  Harness h(1024);
  EXPECT_EQ(h.pama->decisions().migrations, 0u);
  EXPECT_EQ(h.pama->decisions().suppressed, 0u);
  EXPECT_EQ(h.pama->decisions().self_evictions, 0u);
  EXPECT_EQ(h.pama->decisions().refusals, 0u);
  EXPECT_EQ(h.pama->name(), "pama");
}

TEST(PamaPolicyTest, CountsOneRotationPerWindow) {
  PamaConfig cfg = Harness::DefaultConfig();
  cfg.window_accesses = 10;
  Harness h(1024, cfg);
  EXPECT_EQ(h.pama->rotations(), 0u);
  // Ticks 0..34: the windows close at 10, 20 and 30.
  for (int i = 0; i < 35; ++i) h.engine->Get(1, 64, 100);
  EXPECT_EQ(h.pama->rotations(), 3u);
}

TEST(PamaPolicyTest, GhostCapacityCoversTrackedSegments) {
  // The engine must size ghost lists to at least (m+1) segments so the
  // incoming-value estimate sees the whole receiving region.
  Harness h(4096);
  // m = 2 -> 3 segments x 2 slots = 6 entries minimum.
  const CacheEngine& e = *h.engine;
  EXPECT_GE(e.ghosts().capacity(e.SubclassIndex(3, 0)), 6u);
}

}  // namespace
}  // namespace pamakv
