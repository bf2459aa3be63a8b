// Unit tests for PAMA's segment-value bookkeeping (paper Sec. III, Eq. 1-2)
// in exact-rank mode, plus window rotation, the Bloom filter rebuild and
// the pre-PAMA ablation.
#include <gtest/gtest.h>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/util/rng.hpp"
#include "sim_decisions.hpp"

namespace pamakv {
namespace {

// 1 KiB slabs, classes 64/128/256/512 B -> class 3 has 2 slots per slab,
// which makes segment boundaries easy to reason about.
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
  explicit Harness(PamaConfig pama_cfg, Bytes capacity = 4096) {
    auto policy = std::make_unique<PamaPolicy>(pama_cfg);
    pama = policy.get();
    engine = std::make_unique<CacheEngine>(
        TinyConfig(capacity, static_cast<std::uint32_t>(
                                 pama_cfg.reference_segments + 1)),
        std::move(policy));
  }
  std::unique_ptr<CacheEngine> engine;
  PamaPolicy* pama = nullptr;
};

PamaConfig ExactConfig(std::size_t m = 1) {
  PamaConfig cfg;
  cfg.reference_segments = m;
  cfg.window_accesses = 1'000'000;  // effectively no rotation
  cfg.use_bloom = false;
  cfg.value_decay = 0.0;  // the paper's tumbling-window reset
  return cfg;
}

TEST(PamaTrackerTest, HitsAttributeToCorrectSegments) {
  Harness h(ExactConfig(/*m=*/1));
  auto& e = *h.engine;
  // Class 3 (512 B, 2 slots/slab): insert k1..k6; k1 is the LRU bottom.
  for (KeyId k = 1; k <= 6; ++k) e.Set(k, 512, 100 * static_cast<MicroSecs>(k));

  // Bottom-up order: k1 k2 | k3 k4 | k5 k6. Segment 0 = {k1,k2},
  // segment 1 = {k3,k4} (m = 1 -> two tracked segments).
  e.Get(1, 512, 100);  // rank 0 -> segment 0, value += penalty(k1) = 100
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 100.0);

  // k1 promoted; order now: k2 k3 | k4 k5 | k6 k1.
  e.Get(4, 512, 400);  // rank 2 -> segment 1, value += 400
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 1), 400.0);

  // k4 promoted; order: k2 k3 | k5 k6 | k1 k4. k4 at rank 5: untracked.
  e.Get(4, 512, 400);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 100.0);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 1), 400.0);
}

TEST(PamaTrackerTest, OutgoingValueUsesGeometricWeights) {
  Harness h(ExactConfig(/*m=*/1));
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 6; ++k) e.Set(k, 512, 1000);
  e.Get(1, 512, 1000);  // seg 0 += 1000; promotes k1
  e.Get(3, 512, 1000);  // k3 now at rank 1 -> seg 0 += 1000
  // Order after: k2 k4 | k5 k6 | k1 k3. Touch k5 (rank 2 -> seg 1).
  e.Get(5, 512, 1000);
  // Eq. 2: V = seg0/2 + seg1/4 = 2000/2 + 1000/4.
  EXPECT_DOUBLE_EQ(h.pama->tracker().OutgoingValue(3, 0), 1250.0);
}

TEST(PamaTrackerTest, GhostHitsBuildIncomingValue) {
  Harness h(ExactConfig(/*m=*/1));
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 6; ++k) e.Set(k, 512, 100 * static_cast<MicroSecs>(k));
  // Evict the three LRU items: k1, k2, k3 (ghost newest-first: k3,k2,k1).
  ASSERT_TRUE(e.EvictBottom(3, 0));
  ASSERT_TRUE(e.EvictBottom(3, 0));
  ASSERT_TRUE(e.EvictBottom(3, 0));
  // Ghost ranks: k3 -> 0, k2 -> 1 (ghost segment 0); k1 -> 2 (segment 1).
  e.Get(3, 512, 300);
  e.Get(2, 512, 200);
  e.Get(1, 512, 100);
  EXPECT_DOUBLE_EQ(h.pama->tracker().GhostSegmentValue(3, 0, 0), 500.0);
  EXPECT_DOUBLE_EQ(h.pama->tracker().GhostSegmentValue(3, 0, 1), 100.0);
  EXPECT_DOUBLE_EQ(h.pama->tracker().IncomingValue(3, 0), 500.0 / 2 + 100.0 / 4);
}

TEST(PamaTrackerTest, GhostEntryConsumedOnReinsertion) {
  Harness h(ExactConfig(/*m=*/1));
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 4; ++k) e.Set(k, 512, 100);
  ASSERT_TRUE(e.EvictBottom(3, 0));  // k1 to ghost
  e.Get(1, 512, 100);                // ghost hit
  e.Set(1, 512, 100);                // re-cached; ghost entry cleared
  e.Get(1, 512, 100);                // plain hit now
  EXPECT_DOUBLE_EQ(h.pama->tracker().GhostSegmentValue(3, 0, 0), 100.0);
}

TEST(PamaTrackerTest, PrePamaCountsRequestsNotPenalties) {
  PamaConfig cfg = ExactConfig(1);
  cfg.penalty_aware = false;
  Harness h(cfg);
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 4; ++k) e.Set(k, 512, 999'999);
  e.Get(1, 512, 999'999);  // seg 0 += 1 (not the penalty)
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 1.0);
  EXPECT_EQ(h.pama->name(), "pre-pama");
}

TEST(PamaTrackerTest, WindowRotationResetsValues) {
  PamaConfig cfg = ExactConfig(1);
  cfg.window_accesses = 10;
  Harness h(cfg);
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 4; ++k) e.Set(k, 512, 100);  // 4 accesses
  e.Get(1, 512, 100);                                 // 5th: seg0 = 100
  ASSERT_GT(h.pama->tracker().SegmentValue(3, 0, 0), 0.0);
  // Push past the window boundary with unrelated requests.
  for (int i = 0; i < 10; ++i) e.Get(1000, 64, 1);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 0.0);
}

TEST(PamaTrackerTest, ValueDecayCarriesFraction) {
  PamaConfig cfg = ExactConfig(1);
  cfg.window_accesses = 10;
  cfg.value_decay = 0.5;
  Harness h(cfg);
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 4; ++k) e.Set(k, 512, 100);
  e.Get(1, 512, 100);  // seg0 = 100
  for (int i = 0; i < 10; ++i) e.Get(1000, 64, 1);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 50.0);
}

TEST(PamaTrackerTest, ExactModeHasNoFilterFootprint) {
  Harness h(ExactConfig(1));
  EXPECT_EQ(h.pama->tracker().FilterFootprintBytes(), 0u);
}

TEST(PamaTrackerTest, BloomModeReportsFootprint) {
  PamaConfig cfg = ExactConfig(1);
  cfg.use_bloom = true;
  Harness h(cfg);
  EXPECT_GT(h.pama->tracker().FilterFootprintBytes(), 0u);
}

TEST(PamaTrackerTest, BloomModeAttributesAfterRebuild) {
  PamaConfig cfg;
  cfg.reference_segments = 1;
  cfg.window_accesses = 8;
  cfg.use_bloom = true;
  Harness h(cfg);
  auto& e = *h.engine;
  for (KeyId k = 1; k <= 6; ++k) e.Set(k, 512, 100);  // 6 accesses
  // Cross the boundary so the filters snapshot the current stack.
  e.Get(999, 64, 1);
  e.Get(999, 64, 1);
  e.Get(999, 64, 1);  // rotation happened at one of these ticks
  // Now k1 (stack bottom) is in segment 0's filter.
  e.Get(1, 512, 100);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 100.0);
  // A second access to the same key was promoted out of the region and
  // marked removed: it must not double-count.
  e.Get(1, 512, 100);
  EXPECT_DOUBLE_EQ(h.pama->tracker().SegmentValue(3, 0, 0), 100.0);
}

/// The serial rebuild: subclass (c, s)'s filters refilled from a fresh set,
/// one stack node at a time from the bottom, over the bottom m+1 slabs.
SegmentFilterSet SerialRebuild(const CacheEngine& e, const PamaConfig& cfg,
                               ClassId c, SubclassId s) {
  const std::size_t segments = cfg.reference_segments + 1;
  const std::size_t spp = e.classes().SlotsPerSlab(c);
  SegmentFilterSet want(segments, spp, cfg.bloom_fpr);
  LruStack::Node* node = e.StackOf(c, s).Bottom();
  for (std::size_t k = 0; k < segments * spp && node != nullptr; ++k) {
    want.AddToSegment(k / spp, e.ItemAt(node->value).key);
    node = LruStack::TowardTop(node);
  }
  return want;
}

TEST(PamaTrackerTest, LockstepRebuildMatchesSerialWalk) {
  // Seeded ETC traffic through a Bloom-mode engine with six classes and
  // the paper's five bands; at each checkpoint a forced rotation rebuilds
  // every subclass's filters, which must equal a serial walk's bit for
  // bit and answer every cached key and 100,000 absent keys alike.
  const SizeClassConfig geometry = test::SmallGeometry();
  const SchemeOptions options = test::FastOptions();
  auto engine =
      MakeEngine("pama", 128 * geometry.slab_bytes, geometry, options);
  ASSERT_EQ(engine->num_subclasses(), 5u);
  const auto& tracker =
      dynamic_cast<const PamaPolicy&>(engine->policy()).tracker();
  WorkloadConfig wc = EtcWorkload(60'000, /*seed=*/5);
  wc.geometry = geometry;
  wc.class_weights.resize(geometry.num_classes);
  SyntheticTrace trace(wc);

  std::vector<KeyId> absent;
  Rng rng(5);
  while (absent.size() < 100'000) {
    const KeyId key = rng.NextU64() | (KeyId{1} << 63);
    if (!engine->Contains(key)) absent.push_back(key);
  }

  std::uint64_t requests = 0;
  std::size_t checkpoints = 0;
  std::size_t full_regions = 0;  // stacks longer than the walked region
  std::uint64_t members = 0;     // cached keys some segment claims
  std::uint64_t false_positives = 0;
  Request r;
  while (trace.Next(r)) {
    if (r.op == Op::kDel) {
      engine->Del(r.key);
    } else if (r.op == Op::kSet ||
               !engine->Get(r.key, r.size, r.penalty_us).hit) {
      engine->Set(r.key, r.size, r.penalty_us);
    }
    if (++requests % 20'000 != 0) continue;
    ++checkpoints;
    engine->policy().OnTick(engine->clock() + options.pama.window_accesses);
    std::vector<KeyId> cached;
    engine->ForEachItem([&](const Item& item) { cached.push_back(item.key); });
    for (ClassId c = 0; c < geometry.num_classes; ++c) {
      for (SubclassId s = 0; s < engine->num_subclasses(); ++s) {
        SCOPED_TRACE("checkpoint " + std::to_string(checkpoints) + " class " +
                     std::to_string(c) + " band " + std::to_string(s));
        const SegmentFilterSet want = SerialRebuild(*engine, options.pama, c, s);
        const SegmentFilterSet* got = tracker.filters(c, s);
        ASSERT_NE(got, nullptr);
        EXPECT_TRUE(*got == want);
        full_regions += engine->SubclassItemCount(c, s) >
                        (options.pama.reference_segments + 1) *
                            engine->classes().SlotsPerSlab(c);
        std::size_t differ = 0;
        for (const KeyId key : cached) {
          differ += got->FindSegment(key) != want.FindSegment(key);
          members += want.FindSegment(key).has_value();
        }
        for (const KeyId key : absent) {
          differ += got->FindSegment(key) != want.FindSegment(key);
          false_positives += want.FindSegment(key).has_value();
        }
        EXPECT_EQ(differ, 0u);
      }
    }
  }
  EXPECT_EQ(checkpoints, 3u);
  // The walks covered whole stacks and stacks cut at their region, and
  // the absent keys include false positives to compare.
  EXPECT_GT(full_regions, 0u);
  EXPECT_GT(members, 0u);
  EXPECT_GT(false_positives, 0u);
}

}  // namespace
}  // namespace pamakv
