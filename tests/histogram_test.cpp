#include "pamakv/util/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "pamakv/util/metrics.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

// util::Histogram is the library's log-bucketed histogram: these pin its
// bucket, quantile and merge conventions.

double Quantile(const util::Histogram& h, double q) {
  return h.Snapshot().Quantile(q);
}

TEST(LogHistogramTest, BucketsCoverRange) {
  util::Histogram h(1.0, 1000.0, 3);  // decades
  h.Observe(2.0);
  h.Observe(20.0);
  h.Observe(200.0);
  const util::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.total, 3u);
}

TEST(LogHistogramTest, OutOfRangeClamped) {
  util::Histogram h(1.0, 100.0, 2);
  h.Observe(0.001);
  h.Observe(1e9);
  h.Observe(-5.0);
  const util::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
}

TEST(LogHistogramTest, WeightsAccumulate) {
  util::Histogram h(1.0, 100.0, 2);
  for (int i = 0; i < 10; ++i) h.Observe(2.0);
  const util::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.counts[0], 10u);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(LogHistogramTest, BucketBoundsAreGeometric) {
  util::Histogram h(1.0, 1000.0, 3);
  EXPECT_NEAR(h.BucketHigh(0), 10.0, 1e-9);
  EXPECT_NEAR(h.BucketHigh(1), 100.0, 1e-9);
  EXPECT_NEAR(h.BucketHigh(2), 1000.0, 1e-6);
  EXPECT_EQ(h.Snapshot().bounds[1], h.BucketHigh(1));
  // A quantile answers with its bucket's geometric midpoint.
  h.Observe(50.0);
  EXPECT_NEAR(Quantile(h, 0.5), std::sqrt(10.0 * 100.0), 1e-9);
}

TEST(LogHistogramTest, QuantileInterpolatesBuckets) {
  util::Histogram h(1.0, 10000.0, 4);
  for (int i = 0; i < 90; ++i) h.Observe(5.0);    // bucket 0
  for (int i = 0; i < 10; ++i) h.Observe(5000.0); // bucket 3
  EXPECT_LT(Quantile(h, 0.5), 10.0);
  EXPECT_GT(Quantile(h, 0.99), 1000.0);
}

TEST(LogHistogramTest, EmptyQuantileIsZero) {
  const util::Histogram h(1.0, 1000.0, 8);
  EXPECT_EQ(Quantile(h, 0.0), 0.0);
  EXPECT_EQ(Quantile(h, 0.5), 0.0);
  EXPECT_EQ(Quantile(h, 1.0), 0.0);
}

TEST(LogHistogramTest, LowQuantileNeverAnswersFromEmptyLeadingBuckets) {
  // Regression: a target rank of floor(q * total) could be 0, which an
  // empty bucket 0 "satisfies" — so p1 of an all-high distribution came
  // back from the bottom of the range. The rank is max(1, ceil(...)).
  util::Histogram h(1.0, 10000.0, 8);
  for (int i = 0; i < 100; ++i) h.Observe(5000.0);
  EXPECT_GT(Quantile(h, 0.001), 1000.0);
  EXPECT_GT(Quantile(h, 0.01), 1000.0);
}

TEST(LogHistogramTest, MaxBucketSaturationStillReportsTail) {
  // Values beyond max clamp into the last bucket; quantiles must keep
  // answering from it instead of walking off the end.
  util::Histogram h(1.0, 100.0, 4);
  for (int i = 0; i < 10; ++i) h.Observe(1e9);
  EXPECT_EQ(h.total(), 10u);
  const double p999 = Quantile(h, 0.999);
  EXPECT_GE(p999, h.BucketHigh(2));
  EXPECT_LE(p999, h.BucketHigh(3) * (1.0 + 1e-9));
}

TEST(LogHistogramTest, QuantileMatchesSortedVectorOracle) {
  // Property: against the exact sorted-vector quantile, the bucketed
  // answer may be off by at most one bucket width in log space.
  Rng rng(42);
  util::Histogram h(1.0, 1e6, 48);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform across the whole range, plus a heavy cluster near 100.
    const double v = i % 3 == 0
                         ? std::exp(rng.NextDouble() * std::log(1e6))
                         : 80.0 + 40.0 * rng.NextDouble();
    values.push_back(v);
    h.Observe(v);
  }
  // Tolerance: half a bucket each for value-vs-midpoint on both sides,
  // plus one bucket for the rank conventions differing by one sample.
  const double log_bucket_width = std::log(1e6) / 48.0;
  const util::HistogramSnapshot snap = h.Snapshot();
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double approx = snap.Quantile(q);
    EXPECT_NEAR(std::log(approx), std::log(exact),
                2.0 * log_bucket_width + 1e-9)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LogHistogramTest, MergeIdenticalLayoutsAddsBucketwise) {
  util::Histogram a(1.0, 1000.0, 6);
  util::Histogram b(1.0, 1000.0, 6);
  util::Histogram both(1.0, 1000.0, 6);
  for (int i = 0; i < 3; ++i) a.Observe(2.0);
  a.Observe(500.0);
  for (int i = 0; i < 2; ++i) b.Observe(2.0);
  for (int i = 0; i < 4; ++i) b.Observe(50.0);
  for (int i = 0; i < 5; ++i) both.Observe(2.0);
  both.Observe(500.0);
  for (int i = 0; i < 4; ++i) both.Observe(50.0);
  util::HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.total, 10u);
  EXPECT_EQ(merged.counts, both.Snapshot().counts);
}

TEST(LogHistogramTest, MergeMismatchedLayoutsDoesNotMisreportTail) {
  // Regression target: merging a fine-grained shard histogram into a
  // coarse aggregate by bucket *position* would drop the tail mass into
  // low buckets and destroy p999. Re-binning by midpoint keeps the tail
  // within one coarse bucket of the truth.
  util::HistogramSnapshot coarse = util::Histogram(1.0, 1e6, 12).Snapshot();
  util::Histogram fine(1.0, 1e6, 96);
  for (int i = 0; i < 999; ++i) fine.Observe(10.0);
  fine.Observe(2e5);  // the single p999 outlier
  coarse.Merge(fine.Snapshot());
  EXPECT_EQ(coarse.total, 1000u);
  const double log_bucket_width = std::log(1e6) / 12.0;
  EXPECT_NEAR(std::log(coarse.Quantile(0.9995)), std::log(2e5),
              log_bucket_width + 1e-9);
  EXPECT_NEAR(std::log(coarse.Quantile(0.5)), std::log(10.0),
              log_bucket_width + 1e-9);

  // And the other direction: coarse into fine.
  util::HistogramSnapshot fine2 = util::Histogram(1.0, 1e6, 96).Snapshot();
  fine2.Merge(coarse);
  EXPECT_EQ(fine2.total, 1000u);
  EXPECT_NEAR(std::log(fine2.Quantile(0.9995)), std::log(2e5),
              2.0 * log_bucket_width + 1e-9);
}

TEST(LogHistogramTest, MergeEmptyIsIdentity) {
  util::Histogram a(1.0, 100.0, 4);
  for (int i = 0; i < 7; ++i) a.Observe(5.0);
  util::HistogramSnapshot merged = a.Snapshot();
  merged.Merge(util::Histogram(1.0, 1000.0, 9).Snapshot());
  EXPECT_EQ(merged.total, 7u);
  EXPECT_EQ(merged.counts, a.Snapshot().counts);
  EXPECT_EQ(merged.Quantile(0.5), Quantile(a, 0.5));
}

TEST(LogHistogramTest, InvalidArgsThrow) {
  EXPECT_THROW(util::Histogram(0.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(10.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(ExactQuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(ExactQuantile(v, 0.5), 3.0);
  EXPECT_EQ(ExactQuantile(v, 0.0), 1.0);
  EXPECT_EQ(ExactQuantile(v, 1.0), 5.0);
  EXPECT_EQ(ExactQuantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace pamakv
