// EngineSnapshot: byte-for-byte observable state of a CacheEngine.
//
// Every counter, gauge, per-(class, subclass) slab/slot tally, stack
// depth, and ghost size. Two uses across the suite:
//  * the failpoint OOM tests prove a mid-store std::bad_alloc rolls
//    everything back exactly (cache_engine_test.cpp);
//  * the shard-affinity equivalence tests prove the batched data path
//    leaves every shard engine in the same state as the serial per-op
//    path (net_affinity_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"

namespace pamakv {

struct EngineSnapshot {
  CacheStats stats;
  AccessClock clock;
  std::size_t item_count;
  std::vector<std::size_t> slab_counts;
  std::vector<std::size_t> slots_in_use;
  std::vector<std::size_t> stack_sizes;
  std::vector<std::size_t> ghost_sizes;
  std::vector<std::uint64_t> ghost_hit_counts;

  static EngineSnapshot Of(const CacheEngine& e) {
    EngineSnapshot s;
    s.stats = e.stats();
    s.clock = e.clock();
    s.item_count = e.item_count();
    const auto classes = e.classes().num_classes();
    for (ClassId c = 0; c < classes; ++c) {
      for (SubclassId sub = 0; sub < e.num_subclasses(); ++sub) {
        s.slab_counts.push_back(e.pool().SlabCount(c, sub));
        s.slots_in_use.push_back(e.pool().SlotsInUse(c, sub));
        s.stack_sizes.push_back(e.SubclassItemCount(c, sub));
        s.ghost_sizes.push_back(e.ghosts().size(e.SubclassIndex(c, sub)));
        s.ghost_hit_counts.push_back(e.GhostHitCount(c, sub));
      }
    }
    return s;
  }

  void ExpectEq(const EngineSnapshot& other) const {
    EXPECT_EQ(stats.sets, other.stats.sets);
    EXPECT_EQ(stats.set_updates, other.stats.set_updates);
    EXPECT_EQ(stats.set_failures, other.stats.set_failures);
    EXPECT_EQ(stats.evictions, other.stats.evictions);
    EXPECT_EQ(stats.ghost_hits, other.stats.ghost_hits);
    EXPECT_EQ(stats.hit_penalty_saved_us, other.stats.hit_penalty_saved_us);
    EXPECT_EQ(stats.bytes_stored, other.stats.bytes_stored);
    EXPECT_EQ(clock, other.clock);
    EXPECT_EQ(item_count, other.item_count);
    EXPECT_EQ(slab_counts, other.slab_counts);
    EXPECT_EQ(slots_in_use, other.slots_in_use);
    EXPECT_EQ(stack_sizes, other.stack_sizes);
    EXPECT_EQ(ghost_sizes, other.ghost_sizes);
    EXPECT_EQ(ghost_hit_counts, other.ghost_hit_counts);
  }
};

}  // namespace pamakv
