#include "pamakv/util/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace pamakv {
namespace {

TEST(ZipfTest, SamplesStayInRange) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.2);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ZipfTest, RankZeroIsMostPopular) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(3);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[100]);
}

TEST(ZipfTest, FrequencyFollowsPowerLaw) {
  // For alpha = 1, P(rank r) ~ 1/(r+1): count ratio between rank 0 and
  // rank 9 should be about 10x.
  ZipfSampler zipf(100000, 1.0);
  Rng rng(4);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 1000000; ++i) {
    const auto r = zipf.Sample(rng);
    if (r < 100) ++counts[r];
  }
  const double ratio = static_cast<double>(counts[0]) / counts[9];
  EXPECT_NEAR(ratio, 10.0, 2.0);
}

TEST(ZipfTest, HigherAlphaConcentratesMass) {
  Rng rng(5);
  auto top10_share = [&rng](double alpha) {
    ZipfSampler zipf(10000, alpha);
    int top = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      if (zipf.Sample(rng) < 10) ++top;
    }
    return static_cast<double>(top) / n;
  };
  EXPECT_LT(top10_share(0.6), top10_share(1.4));
}

TEST(ZipfTest, AlphaNearOneHandled) {
  // The generalized harmonic integral degenerates at alpha == 1; the
  // sampler must not hang or leave range there.
  ZipfSampler zipf(1000, 1.0 + 1e-13);
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 1000u);
}

TEST(ZipfTest, InvalidParamsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  DiscreteSampler s({1.0, 3.0, 0.0, 6.0});
  Rng rng(9);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[s.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(DiscreteSamplerTest, SingleBucket) {
  DiscreteSampler s({42.0});
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.Sample(rng), 0u);
}

TEST(DiscreteSamplerTest, InvalidWeightsThrow) {
  EXPECT_THROW(DiscreteSampler({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({1.0, -0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace pamakv
