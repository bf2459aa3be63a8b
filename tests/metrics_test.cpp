// util/metrics: histograms, collectors, snapshot/render surfaces, and the
// concurrent write paths (this file is dual-compiled into the tsan binary —
// see tests/CMakeLists.txt — so every racy claim here runs under
// ThreadSanitizer in the tsan preset).

#include "pamakv/util/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pamakv/util/rng.hpp"

namespace pamakv::util {
namespace {

TEST(MetricsHistogramTest, SnapshotCountEqualsBucketSum) {
  Histogram h(1.0, 1e6, 32);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    h.Observe(std::exp(rng.NextDouble() * std::log(1e6)));
  }
  const HistogramSnapshot snap = h.Snapshot();
  std::uint64_t sum = 0;
  for (const auto c : snap.counts) sum += c;
  EXPECT_EQ(snap.total, sum);
  EXPECT_EQ(snap.total, 1000u);
  EXPECT_GT(snap.sum, 0.0);
}

TEST(MetricsHistogramTest, QuantileAgreesWithLogHistogram) {
  // A log histogram by its definition, kept beside the atomic one: of n
  // buckets over [min, max], v lands in floor(n * (log v - log min) /
  // (log max - log min)), clamped to the edge buckets, and a quantile is
  // the geometric midpoint of the bucket holding rank max(1, ceil(q *
  // total)). A given stream answers the same from both.
  constexpr double kMin = 1.0;
  constexpr double kMax = 1e4;
  constexpr std::int64_t kBuckets = 16;
  constexpr int kValues = 500;
  Histogram h(kMin, kMax, kBuckets);
  const double step = (std::log(kMax) - std::log(kMin)) / kBuckets;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  Rng rng(2);
  for (int i = 0; i < kValues; ++i) {
    const double v = std::exp(rng.NextDouble() * std::log(1e4));
    h.Observe(v);
    const auto b = static_cast<std::int64_t>(
        (std::log(v) - std::log(kMin)) / (std::log(kMax) - std::log(kMin)) *
        kBuckets);
    ++counts[static_cast<std::size_t>(std::clamp<std::int64_t>(b, 0, kBuckets - 1))];
  }
  const HistogramSnapshot snap = h.Snapshot();
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * kValues)));
    std::size_t b = 0;
    for (std::uint64_t cum = counts[0]; cum < rank;) cum += counts[++b];
    const double mid =
        std::exp(std::log(kMin) + step * (static_cast<double>(b) + 0.5));
    EXPECT_NEAR(snap.Quantile(q), mid, 1e-9 * mid) << "q=" << q;
  }
}

TEST(MetricsHistogramTest, EmptySnapshotQuantileIsZero) {
  Histogram h(1.0, 100.0, 8);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(0.999), 0.0);
}

TEST(MetricsHistogramTest, SaturatedMaxBucketKeepsAnswering) {
  Histogram h(1.0, 100.0, 4);
  for (int i = 0; i < 10; ++i) h.Observe(1e9);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 10u);
  const double p999 = snap.Quantile(0.999);
  EXPECT_GT(p999, snap.bounds[2]);
  EXPECT_LE(p999, snap.bounds[3] * (1.0 + 1e-9));
}

TEST(MetricsHistogramTest, ConcurrentObserversLoseNothing) {
  Histogram h(1.0, 1e6, 32);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  // Snapshot while writers run: internally consistent (count == Σ buckets
  // is asserted inside Snapshot's contract) and monotone.
  std::uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    std::uint64_t sum = 0;
    for (const auto c : snap.counts) sum += c;
    EXPECT_EQ(snap.total, sum);
    EXPECT_GE(snap.total, last_total);
    last_total = snap.total;
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Snapshot().total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsSnapshotMergeTest, MismatchedLayoutsRebinByMidpoint) {
  Histogram fine(1.0, 1e6, 96);
  Histogram coarse(1.0, 1e6, 12);
  for (int i = 0; i < 999; ++i) fine.Observe(10.0);
  fine.Observe(2e5);
  HistogramSnapshot merged = coarse.Snapshot();
  merged.Merge(fine.Snapshot());
  EXPECT_EQ(merged.total, 1000u);
  const double log_bucket_width = std::log(1e6) / 12.0;
  EXPECT_NEAR(std::log(merged.Quantile(0.9995)), std::log(2e5),
              log_bucket_width + 1e-9);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("pamakv_lat_us", 1.0, 10.0, 4,
                                       "{verb=\"get\"}");
  Histogram& b = registry.GetHistogram("pamakv_lat_us", 1.0, 10.0, 4,
                                       "{verb=\"get\"}");
  Histogram& other = registry.GetHistogram("pamakv_lat_us", 1.0, 10.0, 4,
                                           "{verb=\"set\"}");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  // Histograms and collectors share one namespace: a name registered as
  // one kind cannot come back as the other.
  MetricsRegistry registry;
  registry.SetCollector("pamakv_thing", [](MetricsSnapshot&) {});
  EXPECT_THROW(registry.GetHistogram("pamakv_thing", 1.0, 10.0, 4),
               std::logic_error);
  registry.GetHistogram("pamakv_lat_us", 1.0, 10.0, 4);
  EXPECT_THROW(registry.SetCollector("pamakv_lat_us", [](MetricsSnapshot&) {}),
               std::logic_error);
}

TEST(MetricsRegistryTest, CallbackGaugeEvaluatedAtSnapshot) {
  MetricsRegistry registry;
  double level = 1.0;
  registry.SetCollector("levels", [&level](MetricsSnapshot& snap) {
    snap.AddGauge("pamakv_level", "", level);
  });
  EXPECT_EQ(registry.Snapshot().samples[0].value, 1.0);
  level = 5.0;
  EXPECT_EQ(registry.Snapshot().samples[0].value, 5.0);
}

TEST(MetricsRegistryTest, CollectorsRunInRegistrationOrderAndReplaceInPlace) {
  MetricsRegistry registry;
  int runs = 0;
  registry.SetCollector("first", [&runs](MetricsSnapshot& snap) {
    ++runs;
    snap.AddGauge("pamakv_a", "", 1);
  });
  registry.GetHistogram("pamakv_lat_us", 1.0, 10.0, 4);
  registry.SetCollector("second", [](MetricsSnapshot& snap) {
    snap.AddGauge("pamakv_b", "{i=\"0\"}", 2);
    snap.AddGauge("pamakv_b", "{i=\"1\"}", 3);
  });
  // Wiring a source again replaces its collector, keeping its position:
  // one set of series, not two.
  registry.SetCollector("first", [&runs](MetricsSnapshot& snap) {
    ++runs;
    snap.AddGauge("pamakv_a", "", 4);
  });
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(runs, 1);
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "pamakv_a");
  EXPECT_EQ(snap.samples[0].value, 4.0);
  EXPECT_EQ(snap.samples[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap.samples[2].labels, "{i=\"0\"}");
  EXPECT_EQ(snap.samples[3].value, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentWritersAndSnapshotters) {
  // The tsan-build version of this test is the race check the metrics
  // hot path is held to: histograms written from many threads while
  // another thread snapshots and renders, with a collector reading an
  // atomic the writers bump.
  MetricsRegistry registry;
  std::atomic<std::uint64_t> ops{0};
  registry.SetCollector("ops", [&ops](MetricsSnapshot& snap) {
    snap.AddGauge("pamakv_ops", "",
                  static_cast<double>(ops.load(std::memory_order_relaxed)));
  });
  Histogram& lat = registry.GetHistogram("pamakv_lat_us", 0.1, 1e6, 32);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ops.fetch_add(1, std::memory_order_relaxed);
        lat.Observe(1.0 + i % 100);
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = registry.Snapshot();
      ASSERT_EQ(snap.samples.size(), 2u);
      const std::string text = snap.RenderPrometheus();
      EXPECT_NE(text.find("# TYPE pamakv_ops gauge"), std::string::npos);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(registry.Snapshot().samples[0].value,
            static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(lat.Snapshot().total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- Render surfaces ----

using GaugeList = std::vector<std::tuple<std::string, std::string, double>>;

/// A registry whose collector reports fixed gauges.
void AddGauges(MetricsRegistry& registry, GaugeList gauges) {
  registry.SetCollector("fixed", [gauges](MetricsSnapshot& snap) {
    for (const auto& [name, labels, value] : gauges) {
      snap.AddGauge(name, labels, value);
    }
  });
}

TEST(MetricsRenderTest, PrometheusExpositionShape) {
  MetricsRegistry registry;
  AddGauges(registry, {{"pamakv_ops_total", "{verb=\"get\"}", 7},
                       {"pamakv_items", "", 3}});
  Histogram& h = registry.GetHistogram("pamakv_lat_us", 1.0, 1000.0, 3);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(1e9);  // clamps into the last bucket

  const std::string text = registry.Snapshot().RenderPrometheus();
  EXPECT_NE(text.find("# TYPE pamakv_ops_total gauge"), std::string::npos);
  EXPECT_NE(text.find("pamakv_ops_total{verb=\"get\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pamakv_items gauge"), std::string::npos);
  EXPECT_NE(text.find("pamakv_items 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pamakv_lat_us histogram"), std::string::npos);
  // Cumulative buckets end with the +Inf catch-all == _count.
  EXPECT_NE(text.find("pamakv_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("pamakv_lat_us_count 3\n"), std::string::npos);

  // Exposition lint (what CI enforces against the live endpoint): every
  // non-comment line is `name[{labels}] value` with a parseable value.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string value = line.substr(sp + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    const std::string series = line.substr(0, sp);
    const auto brace = series.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
}

TEST(MetricsRenderTest, InterleavedFamiliesGroupUnderOneTypeLine) {
  // Regression: registration order interleaves families (per-(class,band)
  // gauges cycle a/b/a/b...). The renderer must still emit exactly one
  // # TYPE line per family with all its series grouped beneath it —
  // duplicate # TYPE lines are a spec violation Prometheus rejects.
  MetricsRegistry registry;
  GaugeList gauges;
  for (int i = 0; i < 3; ++i) {
    const std::string labels = "{i=\"" + std::to_string(i) + "\"}";
    gauges.emplace_back("pamakv_alpha", labels, i);
    gauges.emplace_back("pamakv_beta", labels, i);
  }
  AddGauges(registry, gauges);
  const std::string text = registry.Snapshot().RenderPrometheus();
  std::size_t alpha_types = 0;
  std::size_t beta_types = 0;
  std::size_t pos = 0;
  while ((pos = text.find("# TYPE pamakv_alpha ", pos)) != std::string::npos) {
    ++alpha_types;
    ++pos;
  }
  pos = 0;
  while ((pos = text.find("# TYPE pamakv_beta ", pos)) != std::string::npos) {
    ++beta_types;
    ++pos;
  }
  EXPECT_EQ(alpha_types, 1u);
  EXPECT_EQ(beta_types, 1u);
  // All alpha series precede the beta family header.
  EXPECT_LT(text.rfind("pamakv_alpha{"), text.find("# TYPE pamakv_beta"));
}

TEST(MetricsRenderTest, HistogramBucketsCarryOuterLabels) {
  MetricsRegistry registry;
  registry.GetHistogram("pamakv_lat_us", 1.0, 100.0, 2, "{verb=\"set\"}")
      .Observe(5.0);
  const std::string text = registry.Snapshot().RenderPrometheus();
  EXPECT_NE(text.find("pamakv_lat_us_bucket{verb=\"set\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("pamakv_lat_us_count{verb=\"set\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRenderTest, CsvAndStatLinesAgreeWithPrometheus) {
  MetricsRegistry registry;
  AddGauges(registry,
            {{"pamakv_ops_total", "", 1234}, {"pamakv_items", "", 42}});
  const MetricsSnapshot snap = registry.Snapshot();

  std::string csv;
  snap.AppendCsv(csv, 750);
  EXPECT_NE(csv.find("750,pamakv_ops_total,1234\n"), std::string::npos);
  EXPECT_NE(csv.find("750,pamakv_items,42\n"), std::string::npos);

  std::vector<char> ascii;
  snap.AppendStatLines(ascii);
  const std::string stat(ascii.begin(), ascii.end());
  EXPECT_NE(stat.find("STAT pamakv_ops_total 1234\r\n"), std::string::npos);
  EXPECT_NE(stat.find("STAT pamakv_items 42\r\n"), std::string::npos);

  const std::string prom = snap.RenderPrometheus();
  EXPECT_NE(prom.find("pamakv_ops_total 1234\n"), std::string::npos);
}

}  // namespace
}  // namespace pamakv::util
