#include "pamakv/trace/penalty_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>


namespace pamakv {
namespace {

TEST(PenaltyModelTest, DeterministicPerKey) {
  const PenaltyModel model;
  for (KeyId k = 0; k < 100; ++k) {
    EXPECT_EQ(model.PenaltyFor(k, 0), model.PenaltyFor(k, 0));
  }
}

TEST(PenaltyModelTest, RespectsClipBounds) {
  PenaltyModelConfig cfg;
  cfg.sigma_log = 4.0;  // extreme spread to stress the clip
  const PenaltyModel model(cfg);
  for (KeyId k = 0; k < 20000; ++k) {
    const MicroSecs p = model.PenaltyFor(k, 0);
    EXPECT_GE(p, cfg.min_us);
    EXPECT_LE(p, cfg.max_us);
  }
}

TEST(PenaltyModelTest, DefaultFractionGetsDefaultPenalty) {
  PenaltyModelConfig cfg;
  cfg.default_fraction = 0.3;
  const PenaltyModel model(cfg);
  int defaults = 0;
  const int n = 50000;
  for (KeyId k = 0; k < n; ++k) {
    if (model.PenaltyFor(k, 0) == cfg.default_us) ++defaults;
  }
  // A few lognormal draws can land exactly on 100ms, but the mass must be
  // dominated by the default fraction.
  EXPECT_NEAR(defaults / static_cast<double>(n), 0.3, 0.02);
}

TEST(PenaltyModelTest, ZeroDefaultFractionDisablesDefaults) {
  PenaltyModelConfig cfg;
  cfg.default_fraction = 0.0;
  const PenaltyModel model(cfg);
  // Exact 100000 draws are measure-zero for the lognormal; allow a couple.
  int defaults = 0;
  for (KeyId k = 0; k < 20000; ++k) {
    if (model.PenaltyFor(k, 0) == cfg.default_us) ++defaults;
  }
  EXPECT_LE(defaults, 2);
}

TEST(PenaltyModelTest, PenaltiesSpreadAcrossDecades) {
  // Fig. 1's essential property: penalties span milliseconds to seconds.
  const PenaltyModel model;
  std::uint64_t below_10ms = 0;
  std::uint64_t above_1s = 0;
  const int n = 100000;
  for (KeyId k = 0; k < n; ++k) {
    const auto p = static_cast<double>(model.PenaltyFor(k, 0));
    if (p < 10'000) ++below_10ms;
    if (p > 1'000'000) ++above_1s;
  }
  EXPECT_GT(below_10ms, n / 50);  // real mass at the cheap end
  EXPECT_GT(above_1s, n / 200);   // and a heavy expensive tail
}

TEST(PenaltyModelTest, MildSizeCorrelation) {
  PenaltyModelConfig cfg;
  cfg.default_fraction = 0.0;
  const PenaltyModel model(cfg);
  constexpr int kKeys = 50000;
  double small_sum = 0.0;
  double large_sum = 0.0;
  for (KeyId k = 0; k < kKeys; ++k) {
    small_sum += std::log(static_cast<double>(model.PenaltyFor(k, 0)));
    large_sum += std::log(static_cast<double>(model.PenaltyFor(k, 11)));
  }
  const double small_mean = small_sum / kKeys;
  const double large_mean = large_sum / kKeys;
  // Larger classes shift the log-mean up, but only mildly (< 1 decade).
  EXPECT_GT(large_mean, small_mean);
  EXPECT_LT(large_mean - small_mean, 2.3);
}

TEST(PenaltyModelTest, DifferentSeedsDecorrelate) {
  PenaltyModelConfig a;
  a.seed = 1;
  PenaltyModelConfig b;
  b.seed = 2;
  const PenaltyModel ma(a);
  const PenaltyModel mb(b);
  int same = 0;
  for (KeyId k = 0; k < 1000; ++k) {
    if (ma.PenaltyFor(k, 0) == mb.PenaltyFor(k, 0)) ++same;
  }
  // Only the occasional shared default (both 100ms) should collide.
  EXPECT_LT(same, 100);
}

}  // namespace
}  // namespace pamakv
