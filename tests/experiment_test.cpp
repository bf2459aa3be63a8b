#include "pamakv/sim/experiment.hpp"

#include <gtest/gtest.h>

#include "pamakv/trace/generators.hpp"

namespace pamakv {
namespace {

TEST(ExperimentTest, KnowsAllPaperSchemes) {
  for (const auto& name :
       {"memcached", "psa", "twemcache", "facebook-age", "pre-pama", "pama",
        "pama-exact", "lama-hr", "lama-st"}) {
    EXPECT_TRUE(IsKnownScheme(name)) << name;
  }
  EXPECT_FALSE(IsKnownScheme("nonsense"));
  EXPECT_EQ(AllSchemeNames().size(), 9u);
}

TEST(ExperimentTest, MakeEngineConfiguresBandsPerScheme) {
  const SizeClassConfig geometry;
  const Bytes capacity = 4 * 1024 * 1024;
  // Full PAMA: five penalty bands.
  const auto pama = MakeEngine("pama", capacity, geometry);
  EXPECT_EQ(pama->num_subclasses(), 5u);
  EXPECT_EQ(pama->policy().name(), "pama");
  // pre-PAMA: penalty-blind, single band.
  const auto pre = MakeEngine("pre-pama", capacity, geometry);
  EXPECT_EQ(pre->num_subclasses(), 1u);
  EXPECT_EQ(pre->policy().name(), "pre-pama");
  // Baselines: single band.
  for (const auto& name : {"memcached", "psa", "twemcache", "facebook-age"}) {
    const auto engine = MakeEngine(name, capacity, geometry);
    EXPECT_EQ(engine->num_subclasses(), 1u) << name;
    EXPECT_EQ(engine->policy().name(), name);
  }
}

TEST(ExperimentTest, MakeEngineRejectsUnknownScheme) {
  EXPECT_THROW(MakeEngine("bogus", 4 * 1024 * 1024, SizeClassConfig{}),
               std::invalid_argument);
}

TEST(ExperimentTest, CustomBandsAndGhostSegmentsHonored) {
  SchemeOptions options;
  options.pama.reference_segments = 4;
  options.pama_bands = {1'000, 1'000'000};
  const auto engine =
      MakeEngine("pama", 4 * 1024 * 1024, SizeClassConfig{}, options);
  EXPECT_EQ(engine->num_subclasses(), 2u);
  // Ghost capacity >= (m+1) segments of the class's slots-per-slab.
  const std::size_t spp = engine->classes().SlotsPerSlab(0);
  EXPECT_GE(engine->ghosts().capacity(engine->SubclassIndex(0, 0)), 5 * spp);
}

TEST(ExperimentTest, RunOneProducesLabeledResult) {
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  ExperimentRunner runner(SizeClassConfig{}, SchemeOptions{}, sim_cfg);
  auto cfg = SysWorkload(4000);
  SyntheticTrace trace(cfg);
  const auto result =
      runner.RunOne("psa", 4 * 1024 * 1024, trace, "sys");
  EXPECT_EQ(result.scheme, "psa");
  EXPECT_EQ(result.workload, "sys");
  EXPECT_EQ(result.requests_replayed, 4000u);
  EXPECT_FALSE(result.windows.empty());
}

TEST(ExperimentTest, GridMatchesSerialRuns) {
  SimConfig sim_cfg;
  sim_cfg.window_gets = 1000;
  ExperimentRunner runner(SizeClassConfig{}, SchemeOptions{}, sim_cfg);
  const auto make_trace = [] {
    return std::make_unique<SyntheticTrace>(SysWorkload(4000));
  };
  const std::vector<ExperimentCell> cells = {
      {"memcached", 4 * 1024 * 1024},
      {"pama", 4 * 1024 * 1024},
      {"memcached", 8 * 1024 * 1024},
  };
  const auto parallel = runner.RunGrid(cells, make_trace, "sys", 2);
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto trace = make_trace();
    const auto serial =
        runner.RunOne(cells[i].scheme, cells[i].cache_bytes, *trace, "sys");
    EXPECT_EQ(parallel[i].scheme, serial.scheme);
    EXPECT_DOUBLE_EQ(parallel[i].overall_hit_ratio, serial.overall_hit_ratio);
    EXPECT_EQ(parallel[i].final_stats.get_hits, serial.final_stats.get_hits);
  }
}

}  // namespace
}  // namespace pamakv
