#include "pamakv/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/sim/metrics.hpp"
#include "pamakv/trace/generators.hpp"

namespace pamakv {
namespace {

EngineConfig SmallConfig() {
  EngineConfig cfg;
  cfg.capacity_bytes = 16ULL * 1024 * 1024;  // 256 slabs of 64 KiB
  return cfg;
}

std::unique_ptr<CacheEngine> MakeSmallEngine() {
  return std::make_unique<CacheEngine>(SmallConfig(),
                                       std::make_unique<NoReallocPolicy>());
}

TEST(SimulatorTest, ReplaysEveryRequest) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(5000);
  SyntheticTrace trace(cfg);
  Simulator sim;
  const auto result = sim.Run(*engine, trace);
  EXPECT_EQ(result.requests_replayed, 5000u);
  EXPECT_GT(result.final_stats.gets, 0u);
}

TEST(SimulatorTest, WriteAllocateCachesMissedKeys) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(5000);
  SyntheticTrace trace(cfg);
  Simulator sim;
  const auto result = sim.Run(*engine, trace);
  // A tiny recurring key space in a roomy cache: the second access to any
  // key must hit, so hit ratio is far above zero.
  EXPECT_GT(result.overall_hit_ratio, 0.5);
}

TEST(SimulatorTest, WriteAllocateDisabledNeverInserts) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(2000);
  cfg.set_fraction = 0.0;
  cfg.get_fraction = 1.0;
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.write_allocate = false;
  Simulator sim(sim_cfg);
  const auto result = sim.Run(*engine, trace);
  EXPECT_EQ(result.overall_hit_ratio, 0.0);
  EXPECT_EQ(engine->item_count(), 0u);
}

TEST(SimulatorTest, WindowSamplesCoverRun) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(10000);
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  Simulator sim(sim_cfg);
  const auto result = sim.Run(*engine, trace);
  // ~97% of 10000 requests are GETs -> 9-10 windows incl. the partial tail.
  EXPECT_GE(result.windows.size(), 9u);
  EXPECT_LE(result.windows.size(), 11u);
  for (std::size_t i = 1; i < result.windows.size(); ++i) {
    EXPECT_GT(result.windows[i].gets_total,
              result.windows[i - 1].gets_total);
  }
}

TEST(SimulatorTest, WindowMetricsAreWindowLocal) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(10000);
  // Shrink the key space so the run moves past compulsory misses: the last
  // window must be dominated by re-accesses.
  cfg.key_space = 1500;
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  Simulator sim(sim_cfg);
  const auto result = sim.Run(*engine, trace);
  // The first window absorbs all cold misses; later windows must show a
  // strictly better hit ratio (tiny working set fits the cache).
  ASSERT_GE(result.windows.size(), 3u);
  EXPECT_LT(result.windows.front().hit_ratio,
            result.windows.back().hit_ratio);
  EXPECT_GT(result.windows.back().hit_ratio, 0.9);
}

TEST(SimulatorTest, ClassSlabSeriesCaptured) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(5000);
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  sim_cfg.capture_class_slabs = true;
  Simulator sim(sim_cfg);
  const auto result = sim.Run(*engine, trace);
  ASSERT_FALSE(result.windows.empty());
  for (const auto& w : result.windows) {
    ASSERT_EQ(w.class_slabs.size(), engine->classes().num_classes());
  }
  // Some class must own slabs by the end.
  std::size_t total = 0;
  for (const auto s : result.windows.back().class_slabs) total += s;
  EXPECT_GT(total, 0u);
}

TEST(SimulatorTest, SubclassSeriesOptIn) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(3000);
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  sim_cfg.capture_subclass_items = true;
  Simulator sim(sim_cfg);
  const auto result = sim.Run(*engine, trace);
  for (const auto& w : result.windows) {
    ASSERT_EQ(w.subclass_items.size(),
              static_cast<std::size_t>(engine->classes().num_classes()) *
                  engine->num_subclasses());
  }
}

TEST(SimulatorTest, ServiceTimeMatchesStatsFormula) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(4000);
  SyntheticTrace trace(cfg);
  Simulator sim;
  const auto result = sim.Run(*engine, trace);
  const auto& st = result.final_stats;
  const double expect =
      static_cast<double>(st.miss_penalty_total_us) / static_cast<double>(st.gets);
  EXPECT_DOUBLE_EQ(result.overall_avg_service_time_us, expect);
}

TEST(SimulatorTest, CsvWritersProduceRows) {
  auto engine = MakeSmallEngine();
  auto cfg = SysWorkload(3000);
  SyntheticTrace trace(cfg);
  SimConfig sim_cfg;
  sim_cfg.window_gets = 500;
  sim_cfg.capture_subclass_items = true;
  Simulator sim(sim_cfg);
  auto result = sim.Run(*engine, trace);
  result.workload = "sys";

  std::ostringstream windows_csv;
  WriteWindowCsv(windows_csv, result, /*include_header=*/true);
  EXPECT_NE(windows_csv.str().find("scheme,workload"), std::string::npos);
  EXPECT_NE(windows_csv.str().find("memcached,sys"), std::string::npos);

  std::ostringstream slabs_csv;
  WriteClassSlabCsv(slabs_csv, result, true);
  EXPECT_NE(slabs_csv.str().find("class"), std::string::npos);
}

}  // namespace
}  // namespace pamakv
