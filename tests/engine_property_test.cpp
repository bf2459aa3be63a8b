// Parameterized property suite: every allocation policy must preserve the
// engine's structural invariants under randomized GET/SET/DEL churn, and
// runs must be bit-deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <numeric>

#include "pamakv/util/rng.hpp"
#include "sim_decisions.hpp"

namespace pamakv {
namespace {

using test::FastOptions;
using test::SmallGeometry;

class PolicyPropertyTest : public ::testing::TestWithParam<std::string> {};

void CheckInvariants(const CacheEngine& engine) {
  const auto& pool = engine.pool();
  const auto& classes = engine.classes();
  // Slab conservation.
  std::size_t owned = 0;
  for (ClassId c = 0; c < classes.num_classes(); ++c) {
    owned += pool.ClassSlabCount(c);
  }
  ASSERT_EQ(owned + pool.free_slabs(), pool.total_slabs());

  // Slot accounting matches the stacks, and capacity is never exceeded.
  std::size_t items_total = 0;
  for (ClassId c = 0; c < classes.num_classes(); ++c) {
    std::size_t stack_items = 0;
    for (SubclassId s = 0; s < engine.num_subclasses(); ++s) {
      stack_items += engine.SubclassItemCount(c, s);
    }
    ASSERT_EQ(pool.ClassSlotsInUse(c), stack_items) << "class " << c;
    ASSERT_LE(stack_items, pool.ClassSlabCount(c) * classes.SlotsPerSlab(c))
        << "class " << c;
    items_total += stack_items;
  }
  ASSERT_EQ(engine.item_count(), items_total);

  // Stats sanity.
  const auto& st = engine.stats();
  ASSERT_EQ(st.gets, st.get_hits + st.get_misses);
}

TEST_P(PolicyPropertyTest, InvariantsHoldUnderRandomChurn) {
  auto engine = MakeEngine(GetParam(), 16 * SmallGeometry().slab_bytes,
                           SmallGeometry(), FastOptions());
  Rng rng(2024);
  for (int op = 0; op < 30000; ++op) {
    const KeyId key = rng.NextBounded(3000);
    const Bytes size = 1 + rng.NextBounded(1024);
    const auto penalty =
        static_cast<MicroSecs>(200 + rng.NextBounded(4'000'000));
    const std::uint64_t choice = rng.NextBounded(100);
    if (choice < 55) {
      const auto got = engine->Get(key, size, penalty);
      if (!got.hit) engine->Set(key, size, penalty);
    } else if (choice < 90) {
      engine->Set(key, size, penalty);
    } else {
      engine->Del(key);
    }
    if (op % 2500 == 0) CheckInvariants(*engine);
  }
  CheckInvariants(*engine);
  // The cache must actually be exercised, not starved into a corner.
  EXPECT_GT(engine->stats().get_hits, 0u);
  EXPECT_GT(engine->item_count(), 0u);
}

TEST_P(PolicyPropertyTest, SetThenImmediateGetHits) {
  auto engine = MakeEngine(GetParam(), 16 * SmallGeometry().slab_bytes,
                           SmallGeometry(), FastOptions());
  Rng rng(55);
  for (int i = 0; i < 2000; ++i) {
    const KeyId key = 1'000'000 + static_cast<KeyId>(i);
    const Bytes size = 1 + rng.NextBounded(1024);
    if (engine->Set(key, size, 1000).stored) {
      EXPECT_TRUE(engine->Get(key, size, 1000).hit) << "key " << key;
    }
  }
}

TEST_P(PolicyPropertyTest, DeterministicForFixedSeed) {
  auto run = [&] {
    auto engine = MakeEngine(GetParam(), 16 * SmallGeometry().slab_bytes,
                             SmallGeometry(), FastOptions());
    auto cfg = EtcWorkload(15000, /*seed=*/3);
    cfg.geometry = SmallGeometry();
    cfg.class_weights.resize(cfg.geometry.num_classes);  // match 6 classes
    SyntheticTrace trace(cfg);
    Simulator sim;
    return sim.Run(*engine, trace);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.final_stats.get_hits, b.final_stats.get_hits);
  EXPECT_EQ(a.final_stats.evictions, b.final_stats.evictions);
  EXPECT_EQ(a.final_stats.slab_migrations, b.final_stats.slab_migrations);
  EXPECT_EQ(a.final_stats.miss_penalty_total_us,
            b.final_stats.miss_penalty_total_us);
}

TEST_P(PolicyPropertyTest, SurvivesAdversarialSizeSweep) {
  // Cycle through every class in quick succession; allocation decisions
  // must never wedge the engine or violate accounting.
  auto engine = MakeEngine(GetParam(), 8 * SmallGeometry().slab_bytes,
                           SmallGeometry(), FastOptions());
  const SizeClassTable classes(SmallGeometry());
  for (int round = 0; round < 40; ++round) {
    for (ClassId c = 0; c < classes.num_classes(); ++c) {
      for (int i = 0; i < 8; ++i) {
        const KeyId key = static_cast<KeyId>(round * 1000 + c * 50 + i);
        engine->Set(key, classes.SlotBytes(c), 1000 * (c + 1));
      }
    }
  }
  CheckInvariants(*engine);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PolicyPropertyTest,
    ::testing::Values("memcached", "psa", "twemcache", "facebook-age",
                      "pre-pama", "pama", "pama-exact", "lama-hr", "lama-st"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pamakv
