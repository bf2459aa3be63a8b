// util/metrics: the metrics registry behind `stats detail`, the
// Prometheus endpoint and the CSV dump.
//
// It holds two things, in registration order:
//
//  * Histograms — log-spaced buckets over [min, max] with one relaxed
//    atomic per bucket plus count/sum, built for latency recording:
//    Observe() is three relaxed fetch_adds and never allocates, which
//    keeps the zero-steady-state-alloc harness green.
//  * Collectors — a callback that appends gauge samples to a snapshot.
//    Values derived from state behind existing locks (per-shard engine
//    and flash introspection, connection counts) come from one collector
//    per source, which reads all of its state in one pass: CacheService's
//    collector locks each shard once per snapshot. The hot path never
//    touches them.
//
// Registration takes the registry mutex and may allocate — do it at
// startup and keep the returned histogram reference; the hot path never
// looks an instrument up by name. Snapshot() merges every histogram and
// runs every collector once, in registration order; the renderers produce
// Prometheus text exposition (RenderPrometheus), `stats detail` lines
// (AppendStatLines) and CSV rows (AppendCsv) from the same snapshot, so
// every export surface reports identical values by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pamakv::util {

/// Plain-struct view of one histogram, merged across writers. Buckets are
/// non-cumulative counts; `bounds[i]` is bucket i's inclusive upper edge.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;  ///< sum of observed values

  /// The geometric midpoint of the bucket that holds the target rank
  /// max(1, ceil(q * total)), 1-based like an index into the sorted
  /// samples, so leading empty buckets never answer for a nonzero
  /// population and q = 1 lands in the last occupied bucket. q clamps to
  /// [0, 1]; an empty snapshot answers 0.
  [[nodiscard]] double Quantile(double q) const;

  /// Accumulates `other` into this snapshot. Identical bucket layouts add
  /// bucket-wise; a mismatched layout re-bins each foreign bucket at its
  /// midpoint into these buckets (clamped into the last), off by at most
  /// one bucket width where a positional copy would shift every count to
  /// the wrong value range and misreport the tail.
  void Merge(const HistogramSnapshot& other);
};

/// Log-bucketed histogram with atomic buckets: bucket i of n holds the
/// values whose log lies in the i-th of n equal steps from log(min) to
/// log(max), and values outside [min, max] (zero and negatives included)
/// clamp into the edge buckets. Counts and sum are relaxed atomics so
/// Observe() is safe from any thread and allocation-free.
class Histogram {
 public:
  Histogram(double min_value, double max_value, std::size_t buckets);

  void Observe(double value) noexcept {
    counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    // Fixed-point micro-units: atomic<double> fetch_add is not lock-free
    // everywhere, and latencies are microseconds-scale doubles — 1e-6
    // resolution loses nothing we report.
    sum_fp_.fetch_add(static_cast<std::uint64_t>(value * 1e6),
                      std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] double BucketHigh(std::size_t i) const;

  [[nodiscard]] HistogramSnapshot Snapshot() const;

 private:
  [[nodiscard]] std::size_t BucketIndex(double value) const noexcept;

  double log_min_;
  double log_max_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_storage_;
  // span view over counts_storage_ (atomics are not movable/copyable, so
  // a vector cannot hold them directly).
  struct {
    std::atomic<std::uint64_t>* data_;
    std::size_t size_;
    std::atomic<std::uint64_t>& operator[](std::size_t i) const {
      return data_[i];
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
  } counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_fp_{0};
};

enum class MetricKind : std::uint8_t { kGauge, kHistogram };

/// One series' value at snapshot time.
struct MetricSample {
  std::string name;    ///< family name, e.g. "pamakv_slabs"
  std::string labels;  ///< preformatted label set, e.g. {verb="get"} ("" = none)
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;            ///< gauge value
  HistogramSnapshot histogram;   ///< kind == kHistogram only
};

/// Full registry snapshot; what every renderer consumes.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Appends one gauge sample; what collectors call.
  void AddGauge(std::string name, std::string labels, double value);

  /// Prometheus text exposition format 0.0.4: one # TYPE line per family,
  /// then its series.
  [[nodiscard]] std::string RenderPrometheus() const;
  /// One CSV row per series: <elapsed_ms>,<name><labels>,<value>.
  /// Histograms emit _count, _sum and per-quantile rows.
  void AppendCsv(std::string& out, std::int64_t elapsed_ms) const;
  /// One "STAT <name><labels> <value>\r\n" line per series (the `stats
  /// detail` spelling); histograms emit the same _count/_sum/quantile
  /// rows as AppendCsv. Values go through the same formatter as
  /// RenderPrometheus, so the ASCII and HTTP surfaces agree byte-for-byte
  /// on every number.
  void AppendStatLines(std::vector<char>& out) const;
};

/// Appends one source's samples to a snapshot; runs inside Snapshot(),
/// taking whatever locks it needs.
using MetricsCollector = std::function<void(MetricsSnapshot&)>;

class MetricsRegistry {
 public:
  /// Registers (or fetches, when the same name+labels was registered
  /// before) a histogram. The reference stays valid for the registry's
  /// lifetime (instruments are never removed).
  Histogram& GetHistogram(const std::string& name, double min_value,
                          double max_value, std::size_t buckets,
                          const std::string& labels = "");

  /// Registers `collect` under `key`. Registering the same key again
  /// replaces the collector in place — a source wired again (a server
  /// restarted on the same registry) keeps one set of series, in its
  /// original snapshot position.
  void SetCollector(const std::string& key, MetricsCollector collect);

  /// Merges every histogram and runs every collector, in registration
  /// order. Thread-safe.
  [[nodiscard]] MetricsSnapshot Snapshot() const;

 private:
  /// A histogram (name + labels) or a collector (its key in `name`).
  struct Entry {
    std::string name;
    std::string labels;
    std::unique_ptr<Histogram> histogram;  ///< null for a collector
    MetricsCollector collect;
  };

  /// The entry registered as `name` + `labels`, or nullptr. Throws when
  /// it was registered as the other kind.
  Entry* Find(const std::string& name, const std::string& labels,
              bool histogram);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  /// Samples in the last snapshot: the next one reserves that many.
  mutable std::size_t last_sample_count_ = 0;
};

}  // namespace pamakv::util
