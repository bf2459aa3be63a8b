// Edge cases of the engine's semantics that the core suites don't reach:
// penalty-band changes on update, ghost recording of refused stores,
// window metric arithmetic, and simulator composition with the injector
// and trace repetition.
#include <gtest/gtest.h>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/trace/generators.hpp"
#include "pamakv/trace/injector.hpp"

namespace pamakv {
namespace {

EngineConfig BandedConfig(Bytes capacity) {
  EngineConfig cfg;
  cfg.size_classes.slab_bytes = 1024;
  cfg.size_classes.min_slot_bytes = 64;
  cfg.size_classes.num_classes = 4;
  cfg.capacity_bytes = capacity;
  cfg.penalty_band_bounds = PenaltyBandTable::PaperDefault().bounds();
  return cfg;
}

TEST(EngineEdgeTest, UpdateAcrossPenaltyBandsMovesItem) {
  CacheEngine engine(BandedConfig(8192), std::make_unique<NoReallocPolicy>());
  engine.Set(1, 100, 500);       // band 0
  ASSERT_EQ(engine.SubclassItemCount(1, 0), 1u);
  engine.Set(1, 100, 2'000'000); // same class, band 4
  EXPECT_EQ(engine.item_count(), 1u);
  EXPECT_EQ(engine.SubclassItemCount(1, 0), 0u);
  EXPECT_EQ(engine.SubclassItemCount(1, 4), 1u);
  EXPECT_EQ(engine.pool().SlotsInUse(1, 0), 0u);
  EXPECT_EQ(engine.pool().SlotsInUse(1, 4), 1u);
  // The item answers GETs regardless of which band it lives in.
  EXPECT_TRUE(engine.Get(1, 100, 2'000'000).hit);
}

TEST(EngineEdgeTest, RefusedStoreIsGhosted) {
  // One slab; class 0 fills it; a PAMA store to empty class 3 is refused
  // and must land in class 3's ghost list.
  EngineConfig cfg;
  cfg.size_classes.slab_bytes = 1024;
  cfg.size_classes.min_slot_bytes = 64;
  cfg.size_classes.num_classes = 4;
  cfg.capacity_bytes = 1024;
  PamaConfig pama_cfg;
  pama_cfg.use_bloom = false;
  CacheEngine engine(cfg, std::make_unique<PamaPolicy>(pama_cfg));
  for (KeyId k = 0; k < 16; ++k) engine.Set(k, 64, 1000);
  const auto refused = engine.Set(999, 512, 100);
  EXPECT_FALSE(refused.stored);
  EXPECT_EQ(engine.stats().set_failures, 1u);
  EXPECT_TRUE(engine.LookupGhost(engine.SubclassIndex(3, 0), 999).has_value());
}

TEST(EngineEdgeTest, CacheStatsSinceSubtractsComponentwise) {
  CacheStats a;
  a.gets = 100;
  a.get_hits = 60;
  a.get_misses = 40;
  a.miss_penalty_total_us = 4000;
  a.evictions = 7;
  CacheStats b = a;
  b.gets = 150;
  b.get_hits = 100;
  b.get_misses = 50;
  b.miss_penalty_total_us = 5000;
  b.evictions = 9;
  const CacheStats d = b.Since(a);
  EXPECT_EQ(d.gets, 50u);
  EXPECT_EQ(d.get_hits, 40u);
  EXPECT_EQ(d.get_misses, 10u);
  EXPECT_EQ(d.miss_penalty_total_us, 1000u);
  EXPECT_EQ(d.evictions, 2u);
  EXPECT_DOUBLE_EQ(d.HitRatio(), 0.8);
  EXPECT_DOUBLE_EQ(d.AvgServiceTimeUs(0), 20.0);
  // Hit cost participates in the average.
  EXPECT_DOUBLE_EQ(d.AvgServiceTimeUs(10), 20.0 + 40.0 * 10.0 / 50.0);
}

TEST(EngineEdgeTest, SimulatorComposesInjectorAndRepeat) {
  // RepeatedTrace(ColdBurstInjector(SyntheticTrace)) must replay cleanly:
  // the burst fires once per pass and the request count doubles.
  auto cfg = SysWorkload(20'000);
  ColdBurstConfig burst;
  burst.after_gets = 5'000;
  burst.total_bytes = 256 * 1024;
  burst.impacted_classes = {1, 2};
  auto inner = std::make_unique<ColdBurstInjector>(
      std::make_unique<SyntheticTrace>(cfg), burst, cfg.geometry);
  auto* injector = inner.get();
  RepeatedTrace trace(std::move(inner), 2);

  auto engine = MakeEngine("pama", 16ULL * 1024 * 1024, SizeClassConfig{});
  Simulator sim;
  const auto result = sim.Run(*engine, trace);
  // 2 passes of 20k base requests + 2 bursts of GET+SET pairs.
  EXPECT_EQ(result.requests_replayed,
            2 * (20'000 + 2 * injector->injected_count()));
  EXPECT_GT(injector->injected_count(), 0u);
}

TEST(EngineEdgeTest, ZeroGetWorkloadProducesNoWindows) {
  auto cfg = SysWorkload(1'000);
  cfg.get_fraction = 0.0;
  cfg.set_fraction = 1.0;
  SyntheticTrace trace(cfg);
  auto engine = MakeEngine("memcached", 16ULL * 1024 * 1024, SizeClassConfig{});
  Simulator sim;
  const auto result = sim.Run(*engine, trace);
  EXPECT_EQ(result.final_stats.gets, 0u);
  EXPECT_EQ(result.overall_hit_ratio, 0.0);
  EXPECT_TRUE(result.windows.empty());
}

TEST(EngineEdgeTest, GetForOversizedItemStillChargesPenalty) {
  auto engine = MakeEngine("memcached", 16ULL * 1024 * 1024, SizeClassConfig{});
  const auto r = engine->Get(1, 10'000'000, 44'000);  // larger than any slot
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.service_time_us, 44'000);
  EXPECT_EQ(engine->stats().miss_penalty_total_us, 44'000u);
}

TEST(EngineEdgeTest, PamaSurvivesDelHeavyWorkload) {
  auto engine = MakeEngine("pama", 4ULL * 1024 * 1024, SizeClassConfig{});
  Rng rng(5);
  for (int i = 0; i < 20'000; ++i) {
    const KeyId key = rng.NextBounded(500);
    const std::uint64_t c = rng.NextBounded(3);
    if (c == 0) {
      engine->Set(key, 1 + rng.NextBounded(1000), 1000 + rng.NextBounded(100000));
    } else if (c == 1) {
      engine->Del(key);
    } else {
      engine->Get(key, 100, 1000);
    }
  }
  // Accounting stayed sound.
  std::size_t items = 0;
  for (ClassId c = 0; c < engine->classes().num_classes(); ++c) {
    items += engine->pool().ClassSlotsInUse(c);
  }
  EXPECT_EQ(items, engine->item_count());
}

}  // namespace
}  // namespace pamakv
