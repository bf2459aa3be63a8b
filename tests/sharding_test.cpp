// Sharding: the key-to-shard routing the server and the sharded simulator
// share, and the paper's per-server scheme surviving partitioning.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pamakv/cache/shard_routing.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/sim/parallel_simulator.hpp"
#include "pamakv/trace/generators.hpp"

namespace pamakv {
namespace {

TEST(ShardingTest, RoutingIsStableAndBalanced) {
  std::vector<int> counts(4, 0);
  for (KeyId k = 0; k < 40000; ++k) {
    const auto a = ShardIndexFor(k, 4);
    ASSERT_EQ(a, ShardIndexFor(k, 4));  // stable
    ++counts[a];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // roughly uniform
  }
}

TEST(ShardingTest, ShardedPamaStillBeatsShardedFrozenAllocation) {
  // The paper's per-server scheme survives partitioning: with the same
  // total memory, sharded PAMA keeps its service-time edge over sharded
  // no-reallocation Memcached.
  auto run = [](const std::string& scheme) {
    // Two 16 MiB shards: enough slabs per shard (256) for PAMA's 60
    // subclasses to be provisionable at slab granularity.
    ParallelSimConfig cfg;
    cfg.shards = 2;
    ParallelSimulator psim(cfg);
    SyntheticTrace trace(EtcWorkload(2'000'000));
    return psim
        .Run(
            [&](Bytes capacity) {
              return MakeEngine(scheme, capacity, SizeClassConfig{});
            },
            32ULL * 1024 * 1024, trace)
        .aggregate.final_stats;
  };
  const CacheStats pama = run("pama");
  const CacheStats memcached = run("memcached");
  EXPECT_LT(pama.AvgServiceTimeUs(0), memcached.AvgServiceTimeUs(0));
}

}  // namespace
}  // namespace pamakv
