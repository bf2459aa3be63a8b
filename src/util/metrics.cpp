#include "pamakv/util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace pamakv::util {

namespace {

/// Formats a double the way Prometheus expects: plain decimal, enough
/// precision to round-trip counters exactly (they are integral doubles),
/// no trailing-zero noise for latencies.
void AppendNumber(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

Histogram::Histogram(double min_value, double max_value, std::size_t buckets) {
  if (min_value <= 0.0 || max_value <= min_value || buckets == 0) {
    throw std::invalid_argument(
        "metrics::Histogram: need 0 < min < max, buckets > 0");
  }
  log_min_ = std::log(min_value);
  log_max_ = std::log(max_value);
  counts_storage_ = std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
  counts_.data_ = counts_storage_.get();
  counts_.size_ = buckets;
  for (std::size_t i = 0; i < buckets; ++i) counts_[i].store(0);
}

std::size_t Histogram::BucketIndex(double value) const noexcept {
  // Out-of-range values (non-positive ones too) clamp into the edge
  // buckets.
  if (value <= 0.0) return 0;
  const double frac = (std::log(value) - log_min_) / (log_max_ - log_min_);
  const auto idx =
      static_cast<std::int64_t>(frac * static_cast<double>(counts_.size()));
  return static_cast<std::size_t>(std::clamp<std::int64_t>(
      idx, 0, static_cast<std::int64_t>(counts_.size()) - 1));
}

double Histogram::BucketHigh(std::size_t i) const {
  const double step = (log_max_ - log_min_) / static_cast<double>(counts_.size());
  return std::exp(log_min_ + step * static_cast<double>(i + 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds.reserve(counts_.size());
  snap.counts.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    snap.bounds.push_back(BucketHigh(i));
    snap.counts.push_back(counts_[i].load(std::memory_order_relaxed));
  }
  // Count/sum race benignly against concurrent Observe()s; recompute the
  // total from the bucket loads so count == Σ buckets always holds inside
  // one snapshot (exposition consumers check exactly that).
  snap.total = 0;
  for (const auto c : snap.counts) snap.total += c;
  snap.sum = static_cast<double>(sum_fp_.load(std::memory_order_relaxed)) / 1e6;
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= target) {
      // Geometric midpoint of bucket i (bounds[i-1], bounds[i]].
      const double low = i == 0 ? bounds[0] / (bounds.size() > 1
                                                   ? bounds[1] / bounds[0]
                                                   : 2.0)
                                : bounds[i - 1];
      return std::sqrt(low * bounds[i]);
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.total == 0 && other.sum == 0.0) return;
  if (bounds.empty()) {
    *this = other;
    return;
  }
  if (bounds == other.bounds) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  } else {
    // Mismatched layouts: re-bin each foreign bucket at its midpoint.
    for (std::size_t i = 0; i < other.counts.size(); ++i) {
      if (other.counts[i] == 0) continue;
      const double low = i == 0 ? other.bounds[0] / 2.0 : other.bounds[i - 1];
      const double mid = std::sqrt(low * other.bounds[i]);
      const auto it = std::lower_bound(bounds.begin(), bounds.end(), mid);
      const std::size_t idx =
          it == bounds.end() ? bounds.size() - 1
                             : static_cast<std::size_t>(it - bounds.begin());
      counts[idx] += other.counts[i];
    }
  }
  total += other.total;
  sum += other.sum;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                              const std::string& labels,
                                              bool histogram) {
  for (Entry& e : entries_) {
    if (e.name == name && e.labels == labels) {
      if ((e.histogram != nullptr) != histogram) {
        throw std::logic_error("metric '" + name +
                               "' re-registered with a different kind");
      }
      return &e;
    }
  }
  return nullptr;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         double min_value, double max_value,
                                         std::size_t buckets,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels, /*histogram=*/true)) return *e->histogram;
  Entry& e = entries_.emplace_back();
  e.name = name;
  e.labels = labels;
  e.histogram = std::make_unique<Histogram>(min_value, max_value, buckets);
  return *e.histogram;
}

void MetricsRegistry::SetCollector(const std::string& key,
                                   MetricsCollector collect) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(key, "", /*histogram=*/false);
  if (e == nullptr) {
    e = &entries_.emplace_back();
    e->name = key;
  }
  e->collect = std::move(collect);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.samples.reserve(last_sample_count_);
  for (const Entry& e : entries_) {
    if (e.histogram == nullptr) {
      e.collect(snap);
      continue;
    }
    MetricSample& s = snap.samples.emplace_back();
    s.name = e.name;
    s.labels = e.labels;
    s.kind = MetricKind::kHistogram;
    s.histogram = e.histogram->Snapshot();
  }
  last_sample_count_ = snap.samples.size();
  return snap;
}

void MetricsSnapshot::AddGauge(std::string name, std::string labels,
                               double value) {
  MetricSample& s = samples.emplace_back();
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.value = value;
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  out.reserve(4096);
  // The exposition format allows one # TYPE line per family, with all of
  // the family's series grouped under it — but registration order
  // interleaves families (e.g. the three per-(class, band) gauges cycle).
  // Render family-by-family in first-appearance order, series within a
  // family in registration order. Families number in the dozens, so the
  // linear name scan is cheaper than sorting the sample list.
  std::vector<std::pair<std::string_view, std::vector<std::size_t>>> families;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string& name = samples[i].name;
    auto it = std::find_if(
        families.begin(), families.end(),
        [&name](const auto& f) { return f.first == name; });
    if (it == families.end()) {
      families.emplace_back(name, std::vector<std::size_t>{});
      it = std::prev(families.end());
    }
    it->second.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(samples.size());
  for (const auto& fam : families) {
    order.insert(order.end(), fam.second.begin(), fam.second.end());
  }
  std::string last_family;
  for (const std::size_t idx : order) {
    const MetricSample& s = samples[idx];
    if (s.name != last_family) {
      out += "# TYPE ";
      out += s.name;
      out += s.kind == MetricKind::kHistogram ? " histogram\n" : " gauge\n";
      last_family = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      // Classic Prometheus histogram: cumulative buckets + the +Inf
      // catch-all, then _sum and _count.
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < s.histogram.counts.size(); ++i) {
        cum += s.histogram.counts[i];
        out += s.name;
        out += "_bucket{";
        if (!s.labels.empty()) {
          // s.labels is "{a=\"b\"}"; splice its interior before le=.
          out.append(s.labels, 1, s.labels.size() - 2);
          out += ',';
        }
        out += "le=\"";
        AppendNumber(out, s.histogram.bounds[i]);
        out += "\"} ";
        AppendU64(out, cum);
        out += '\n';
      }
      out += s.name;
      out += "_bucket{";
      if (!s.labels.empty()) {
        out.append(s.labels, 1, s.labels.size() - 2);
        out += ',';
      }
      out += "le=\"+Inf\"} ";
      AppendU64(out, s.histogram.total);
      out += '\n';
      out += s.name;
      out += "_sum";
      out += s.labels;
      out += ' ';
      AppendNumber(out, s.histogram.sum);
      out += '\n';
      out += s.name;
      out += "_count";
      out += s.labels;
      out += ' ';
      AppendU64(out, s.histogram.total);
      out += '\n';
    } else {
      out += s.name;
      out += s.labels;
      out += ' ';
      AppendNumber(out, s.value);
      out += '\n';
    }
  }
  return out;
}

void MetricsSnapshot::AppendCsv(std::string& out, std::int64_t elapsed_ms) const {
  const auto row = [&](const std::string& name, const std::string& labels,
                       double v) {
    char head[32];
    std::snprintf(head, sizeof head, "%lld,",
                  static_cast<long long>(elapsed_ms));
    out += head;
    out += name;
    out += labels;
    out += ',';
    AppendNumber(out, v);
    out += '\n';
  };
  for (const MetricSample& s : samples) {
    if (s.kind == MetricKind::kHistogram) {
      row(s.name + "_count", s.labels, static_cast<double>(s.histogram.total));
      row(s.name + "_sum", s.labels, s.histogram.sum);
      row(s.name + "_p50", s.labels, s.histogram.Quantile(0.50));
      row(s.name + "_p99", s.labels, s.histogram.Quantile(0.99));
      row(s.name + "_p999", s.labels, s.histogram.Quantile(0.999));
    } else {
      row(s.name, s.labels, s.value);
    }
  }
}

void MetricsSnapshot::AppendStatLines(std::vector<char>& out) const {
  std::string line;
  const auto row = [&](const std::string& name, const std::string& labels,
                       double v) {
    line.assign("STAT ");
    line += name;
    line += labels;
    line += ' ';
    AppendNumber(line, v);
    line += "\r\n";
    out.insert(out.end(), line.begin(), line.end());
  };
  for (const MetricSample& s : samples) {
    if (s.kind == MetricKind::kHistogram) {
      row(s.name + "_count", s.labels, static_cast<double>(s.histogram.total));
      row(s.name + "_sum", s.labels, s.histogram.sum);
      row(s.name + "_p50", s.labels, s.histogram.Quantile(0.50));
      row(s.name + "_p99", s.labels, s.histogram.Quantile(0.99));
      row(s.name + "_p999", s.labels, s.histogram.Quantile(0.999));
    } else {
      row(s.name, s.labels, s.value);
    }
  }
}

}  // namespace pamakv::util
