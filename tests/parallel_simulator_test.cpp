#include "pamakv/sim/parallel_simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "pamakv/cache/shard_routing.hpp"
#include "pamakv/policy/policy.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/trace/generators.hpp"

namespace pamakv {
namespace {

constexpr Bytes kTotalCapacity = 32ULL * 1024 * 1024;

ParallelSimulator::EngineFactory PamaFactory() {
  return [](Bytes capacity) {
    return MakeEngine("pama", capacity, SizeClassConfig{});
  };
}

VectorTrace MakeEtcTrace(std::uint64_t requests) {
  auto cfg = EtcWorkload(requests);
  SyntheticTrace trace(cfg);
  return VectorTrace::Materialize(trace);
}

/// The serial reference: shard i's sub-trace replayed through the ordinary
/// Simulator on an engine built exactly like the parallel worker's, its
/// clock advancing `shards` per access.
SimResult SerialShardReplay(const VectorTrace& full, std::size_t shard,
                            std::size_t shards, const SimConfig& sim_config) {
  std::vector<Request> sub;
  for (const Request& r : full.requests()) {
    if (ShardIndexFor(r.key, shards) == shard) sub.push_back(r);
  }
  VectorTrace trace(std::move(sub));
  auto engine = PamaFactory()(kTotalCapacity / shards);
  engine->SetClockStep(shards);
  Simulator sim(sim_config);
  return sim.Run(*engine, trace);
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.requests_replayed, b.requests_replayed);
  EXPECT_EQ(a.final_stats.gets, b.final_stats.gets);
  EXPECT_EQ(a.final_stats.get_hits, b.final_stats.get_hits);
  EXPECT_EQ(a.final_stats.sets, b.final_stats.sets);
  EXPECT_EQ(a.final_stats.set_failures, b.final_stats.set_failures);
  EXPECT_EQ(a.final_stats.dels, b.final_stats.dels);
  EXPECT_EQ(a.final_stats.evictions, b.final_stats.evictions);
  EXPECT_EQ(a.final_stats.slab_migrations, b.final_stats.slab_migrations);
  EXPECT_EQ(a.final_stats.ghost_hits, b.final_stats.ghost_hits);
  EXPECT_EQ(a.final_stats.miss_penalty_total_us,
            b.final_stats.miss_penalty_total_us);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    const WindowSample& wa = a.windows[w];
    const WindowSample& wb = b.windows[w];
    EXPECT_EQ(wa.gets_total, wb.gets_total) << "window " << w;
    EXPECT_EQ(wa.hit_ratio, wb.hit_ratio) << "window " << w;
    EXPECT_EQ(wa.avg_service_time_us, wb.avg_service_time_us) << "window " << w;
    EXPECT_EQ(wa.evictions, wb.evictions) << "window " << w;
    EXPECT_EQ(wa.slab_migrations, wb.slab_migrations) << "window " << w;
    EXPECT_EQ(wa.class_slabs, wb.class_slabs) << "window " << w;
  }
}

TEST(ParallelSimulatorTest, MatchesSerialPerShardReplay) {
  // The core determinism guarantee: per-shard results of the parallel run
  // are byte-identical to serially replaying each shard's sub-trace,
  // regardless of thread interleaving. Exercised at 1, 2 and 8 shards.
  const VectorTrace full = MakeEtcTrace(200'000);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    ParallelSimConfig cfg;
    cfg.shards = shards;
    cfg.sim.window_gets = 5'000;
    ParallelSimulator psim(cfg);
    VectorTrace replay = full;  // fresh cursor
    replay.Reset();
    const ParallelSimResult result =
        psim.Run(PamaFactory(), kTotalCapacity, replay, "etc");

    ASSERT_EQ(result.per_shard.size(), shards);
    for (std::size_t s = 0; s < shards; ++s) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " shard=" +
                   std::to_string(s));
      const SimResult serial =
          SerialShardReplay(full, s, shards, cfg.sim);
      ExpectSameResult(result.per_shard[s], serial);
    }
  }
}

TEST(ParallelSimulatorTest, AggregateSumsShards) {
  const VectorTrace full = MakeEtcTrace(120'000);
  ParallelSimConfig cfg;
  cfg.shards = 4;
  cfg.sim.window_gets = 10'000;
  ParallelSimulator psim(cfg);
  VectorTrace replay = full;
  const ParallelSimResult result =
      psim.Run(PamaFactory(), kTotalCapacity, replay, "etc");

  CacheStats expected;
  std::uint64_t replayed = 0;
  Bytes cache_bytes = 0;
  for (const SimResult& s : result.per_shard) {
    expected += s.final_stats;
    replayed += s.requests_replayed;
    cache_bytes += s.cache_bytes;
  }
  EXPECT_EQ(result.aggregate.requests_replayed, replayed);
  EXPECT_EQ(result.aggregate.requests_replayed, full.TotalRequests());
  EXPECT_EQ(result.aggregate.cache_bytes, cache_bytes);
  EXPECT_EQ(result.aggregate.final_stats.gets, expected.gets);
  EXPECT_EQ(result.aggregate.final_stats.get_hits, expected.get_hits);
  EXPECT_EQ(result.aggregate.final_stats.evictions, expected.evictions);
  EXPECT_EQ(result.aggregate.final_stats.miss_penalty_total_us,
            expected.miss_penalty_total_us);
  EXPECT_DOUBLE_EQ(result.aggregate.overall_hit_ratio, expected.HitRatio());
  EXPECT_EQ(result.aggregate.workload, "etc");
  EXPECT_EQ(result.aggregate.scheme, result.per_shard.front().scheme);
}

TEST(ParallelSimulatorTest, EveryRequestLandsOnItsOwningShard) {
  // Routing must agree with ShardIndexFor: each worker only ever sees keys
  // that hash to it, so per-shard GET counts reconstruct the route table.
  const VectorTrace full = MakeEtcTrace(50'000);
  ParallelSimConfig cfg;
  cfg.shards = 8;
  ParallelSimulator psim(cfg);
  VectorTrace replay = full;
  const ParallelSimResult result =
      psim.Run(PamaFactory(), kTotalCapacity, replay, "etc");

  std::vector<std::uint64_t> expected_requests(cfg.shards, 0);
  for (const Request& r : full.requests()) {
    ++expected_requests[ShardIndexFor(r.key, cfg.shards)];
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    EXPECT_EQ(result.per_shard[s].requests_replayed, expected_requests[s])
        << "shard " << s;
  }
}

TEST(MergeWindowsTest, WeightsRatiosByWindowGets) {
  // Shard A: 100 GETs in window 0 at hit 0.5; shard B: 300 GETs at 0.9.
  SimResult a;
  a.windows.push_back(
      WindowSample{0, 100, 0.5, 2000.0, 7, 1, {1, 2}, {}, {}});
  SimResult b;
  b.windows.push_back(
      WindowSample{0, 300, 0.9, 1000.0, 3, 0, {4}, {}, {}});
  const auto merged = MergeWindows({a, b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].gets_total, 400u);
  EXPECT_DOUBLE_EQ(merged[0].hit_ratio, (0.5 * 100 + 0.9 * 300) / 400.0);
  EXPECT_DOUBLE_EQ(merged[0].avg_service_time_us,
                   (2000.0 * 100 + 1000.0 * 300) / 400.0);
  EXPECT_EQ(merged[0].evictions, 10u);
  EXPECT_EQ(merged[0].slab_migrations, 1u);
  EXPECT_EQ(merged[0].class_slabs, (std::vector<std::size_t>{5, 2}));
}

TEST(MergeWindowsTest, ShortShardContributesFinalTotalToLaterWindows) {
  SimResult a;  // two windows: 100 GETs each
  a.windows.push_back(WindowSample{0, 100, 0.5, 0.0, 0, 0, {}, {}, {}});
  a.windows.push_back(WindowSample{1, 200, 0.7, 0.0, 0, 0, {}, {}, {}});
  SimResult b;  // only one window
  b.windows.push_back(WindowSample{0, 50, 1.0, 0.0, 0, 0, {}, {}, {}});
  const auto merged = MergeWindows({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].gets_total, 150u);
  // Window 1: only shard A contributes GETs (100 of them at 0.7), but B's
  // cumulative total still counts.
  EXPECT_EQ(merged[1].gets_total, 250u);
  EXPECT_DOUBLE_EQ(merged[1].hit_ratio, 0.7);
}

TEST(MergeWindowsTest, EmptyInputsYieldEmptySeries) {
  EXPECT_TRUE(MergeWindows({}).empty());
  SimResult no_windows;
  EXPECT_TRUE(MergeWindows({no_windows}).empty());
}

// A policy that throws after a fixed number of requests, to prove worker
// exceptions surface at Run() instead of crashing a thread or deadlocking
// the producer against a full ring.
class ThrowingPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "throwing";
  }
  void OnTick(AccessClock /*now*/) override {
    if (++calls_ > 500) throw std::runtime_error("injected failure");
  }
  [[nodiscard]] bool MakeRoom(ClassId, SubclassId) override { return false; }

 private:
  std::uint64_t calls_ = 0;
};

TEST(ParallelSimulatorTest, WorkerExceptionPropagatesToCaller) {
  ParallelSimConfig cfg;
  cfg.shards = 2;
  cfg.ring_batches = 2;  // small ring: producer WILL fill it after the throw
  ParallelSimulator psim(cfg);
  VectorTrace trace = MakeEtcTrace(100'000);
  const auto factory = [](Bytes capacity) {
    EngineConfig config;
    config.capacity_bytes = capacity;
    return std::make_unique<CacheEngine>(config,
                                         std::make_unique<ThrowingPolicy>());
  };
  EXPECT_THROW(psim.Run(factory, kTotalCapacity, trace, "etc"),
               std::runtime_error);
}

TEST(ParallelSimulatorTest, InvalidConfigThrows) {
  ParallelSimConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(ParallelSimulator{zero_shards}, std::invalid_argument);

  ParallelSimConfig ok;
  ok.shards = 2;
  ParallelSimulator psim(ok);
  VectorTrace trace = MakeEtcTrace(1'000);
  EXPECT_THROW(psim.Run([](Bytes) { return std::unique_ptr<CacheEngine>(); },
                        kTotalCapacity, trace, "etc"),
               std::invalid_argument);
}

}  // namespace
}  // namespace pamakv
