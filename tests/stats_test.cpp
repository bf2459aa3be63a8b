// CacheStats: memcached-named Snapshot(), additivity of operator+=, and
// the bytes_stored gauge the server's `stats` command reports as "bytes".

#include <gtest/gtest.h>

#include <cstdint>

#include "pamakv/cache/stats.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

CacheStats MakeStats(std::uint64_t seed) {
  Rng rng(seed);
  CacheStats s;
  s.gets = rng.NextBounded(1'000'000);
  s.get_hits = rng.NextBounded(1'000'000);
  s.get_misses = rng.NextBounded(1'000'000);
  s.sets = rng.NextBounded(1'000'000);
  s.set_updates = rng.NextBounded(1'000'000);
  s.set_failures = rng.NextBounded(1'000'000);
  s.dels = rng.NextBounded(1'000'000);
  s.evictions = rng.NextBounded(1'000'000);
  s.expired = rng.NextBounded(1'000'000);
  s.expired_unfetched = rng.NextBounded(1'000'000);
  s.reclaimed = rng.NextBounded(1'000'000);
  s.slab_migrations = rng.NextBounded(1'000'000);
  s.ghost_hits = rng.NextBounded(1'000'000);
  s.miss_penalty_total_us = rng.NextBounded(1'000'000);
  s.hit_penalty_saved_us = rng.NextBounded(1'000'000);
  s.bytes_stored = rng.NextBounded(1'000'000);
  return s;
}

TEST(StatsSnapshotTest, MemcachedNamesPresentOnceWithMatchingValues) {
  const CacheStats s = MakeStats(1);
  const StatsSnapshot snap = s.Snapshot();
  ASSERT_EQ(snap.size(), kStatsSnapshotEntries);

  const auto value_of = [&](const char* name) -> std::uint64_t {
    std::uint64_t value = 0;
    int found = 0;
    for (const auto& e : snap) {
      if (std::string_view(e.name) == name) {
        value = e.value;
        ++found;
      }
    }
    EXPECT_EQ(found, 1) << name;
    return value;
  };

  // The memcached-compatible subset, so standard tooling can scrape us.
  EXPECT_EQ(value_of("cmd_get"), s.gets);
  EXPECT_EQ(value_of("cmd_set"), s.sets);
  EXPECT_EQ(value_of("cmd_delete"), s.dels);
  EXPECT_EQ(value_of("get_hits"), s.get_hits);
  EXPECT_EQ(value_of("get_misses"), s.get_misses);
  EXPECT_EQ(value_of("evictions"), s.evictions);
  EXPECT_EQ(value_of("expired"), s.expired);
  EXPECT_EQ(value_of("expired_unfetched"), s.expired_unfetched);
  EXPECT_EQ(value_of("reclaimed"), s.reclaimed);
  EXPECT_EQ(value_of("bytes"), s.bytes_stored);
  // pamakv extensions.
  EXPECT_EQ(value_of("set_updates"), s.set_updates);
  EXPECT_EQ(value_of("set_failures"), s.set_failures);
  EXPECT_EQ(value_of("ghost_hits"), s.ghost_hits);
  EXPECT_EQ(value_of("slab_migrations"), s.slab_migrations);
  EXPECT_EQ(value_of("miss_penalty_total_us"), s.miss_penalty_total_us);
  EXPECT_EQ(value_of("hit_penalty_saved_us"), s.hit_penalty_saved_us);
}

TEST(StatsRatioTest, ZeroRequestWindowYieldsZeroNotNan) {
  // An empty window (idle server between two snapshots) must report 0.0
  // ratios, never a 0/0 NaN that poisons downstream averages.
  const CacheStats empty;
  EXPECT_EQ(empty.HitRatio(), 0.0);
  EXPECT_EQ(empty.AvgServiceTimeUs(50), 0.0);

  // Same via Since(): two identical snapshots diff to an all-zero window.
  const CacheStats s = MakeStats(7);
  const CacheStats window = s.Since(s);
  EXPECT_EQ(window.gets, 0u);
  EXPECT_EQ(window.HitRatio(), 0.0);
  EXPECT_EQ(window.AvgServiceTimeUs(50), 0.0);
}

TEST(StatsMergeTest, EmptyShardIsAdditiveIdentity) {
  // Merging an idle shard must not perturb any counter — in particular
  // bytes_stored, which is a gauge and the easiest field to accidentally
  // double-count or skip when shard merges are written by hand.
  const CacheStats s = MakeStats(8);
  CacheStats sum = s;
  sum += CacheStats{};
  const StatsSnapshot merged = sum.Snapshot();
  const StatsSnapshot original = s.Snapshot();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].value, original[i].value) << merged[i].name;
  }

  CacheStats other_way;
  other_way += s;
  const StatsSnapshot flipped = other_way.Snapshot();
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    EXPECT_EQ(flipped[i].value, original[i].value) << flipped[i].name;
  }
}

TEST(StatsSnapshotTest, PlusEqualsAndSnapshotAgree) {
  // Snapshot(a += b) must equal Snapshot(a) + Snapshot(b) entrywise —
  // i.e. no field is summed in one place and forgotten in the other. This
  // is what makes per-shard aggregation in CacheService::Totals()
  // consistent with what each shard would report alone.
  CacheStats a = MakeStats(2);
  const CacheStats b = MakeStats(3);
  const StatsSnapshot sa = a.Snapshot();
  const StatsSnapshot sb = b.Snapshot();
  a += b;
  const StatsSnapshot sum = a.Snapshot();
  for (std::size_t i = 0; i < sum.size(); ++i) {
    EXPECT_STREQ(sum[i].name, sa[i].name);
    EXPECT_EQ(sum[i].value, sa[i].value + sb[i].value) << sum[i].name;
  }
}

TEST(StatsSnapshotTest, SinceDiffsEveryField) {
  CacheStats later = MakeStats(4);
  const CacheStats earlier = MakeStats(5);
  CacheStats total = later;
  total += earlier;
  const StatsSnapshot diff = total.Since(later).Snapshot();
  const StatsSnapshot expect = earlier.Snapshot();
  for (std::size_t i = 0; i < diff.size(); ++i) {
    EXPECT_EQ(diff[i].value, expect[i].value) << diff[i].name;
  }
}

TEST(StatsBytesGaugeTest, TracksLiveBytesThroughSetAndDel) {
  auto engine = MakeEngine("memcached", 8ULL * 1024 * 1024, SizeClassConfig{});
  EXPECT_EQ(engine->stats().bytes_stored, 0u);

  ASSERT_TRUE(engine->Set(1, 100, 1'000).stored);
  ASSERT_TRUE(engine->Set(2, 200, 1'000).stored);
  EXPECT_EQ(engine->stats().bytes_stored, 300u);

  // Overwrite with a different size adjusts the gauge, not a second add.
  ASSERT_TRUE(engine->Set(1, 150, 1'000).stored);
  EXPECT_EQ(engine->stats().bytes_stored, 350u);

  engine->Del(1);
  EXPECT_EQ(engine->stats().bytes_stored, 200u);
  engine->Del(2);
  EXPECT_EQ(engine->stats().bytes_stored, 0u);
}

}  // namespace
}  // namespace pamakv
