#include "pamakv/sim/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "pamakv/util/csv.hpp"

namespace pamakv {

namespace {

/// Element-wise v[i] += add[i], growing v as needed.
void AccumulateSeries(std::vector<std::size_t>& v,
                      const std::vector<std::size_t>& add) {
  if (v.size() < add.size()) v.resize(add.size(), 0);
  for (std::size_t i = 0; i < add.size(); ++i) v[i] += add[i];
}

}  // namespace

std::vector<WindowSample> MergeWindows(const std::vector<SimResult>& shards) {
  std::size_t num_windows = 0;
  for (const auto& s : shards) {
    num_windows = std::max(num_windows, s.windows.size());
  }

  std::vector<WindowSample> merged(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    WindowSample& out = merged[w];
    out.window_index = w;
    std::uint64_t gets_in_window = 0;
    double hits = 0.0;
    double service_total_us = 0.0;
    for (const auto& s : shards) {
      if (s.windows.empty()) continue;
      if (w >= s.windows.size()) {
        // This shard ran out of GETs before window w; its cumulative total
        // still counts toward the aggregate's gets_total.
        out.gets_total += s.windows.back().gets_total;
        continue;
      }
      const WindowSample& in = s.windows[w];
      out.gets_total += in.gets_total;
      const std::uint64_t gets =
          w == 0 ? in.gets_total : in.gets_total - s.windows[w - 1].gets_total;
      gets_in_window += gets;
      hits += in.hit_ratio * static_cast<double>(gets);
      service_total_us += in.avg_service_time_us * static_cast<double>(gets);
      out.evictions += in.evictions;
      out.slab_migrations += in.slab_migrations;
      AccumulateSeries(out.class_slabs, in.class_slabs);
      AccumulateSeries(out.subclass_items, in.subclass_items);
      AccumulateSeries(out.subclass_slabs, in.subclass_slabs);
    }
    if (gets_in_window > 0) {
      out.hit_ratio = hits / static_cast<double>(gets_in_window);
      out.avg_service_time_us =
          service_total_us / static_cast<double>(gets_in_window);
    }
  }
  return merged;
}

void WriteWindowCsv(std::ostream& out, const SimResult& result,
                    bool include_header) {
  CsvWriter csv(out);
  if (include_header) {
    csv.WriteHeader({"scheme", "workload", "cache_mb", "window", "gets_total",
                     "hit_ratio", "avg_service_us", "evictions",
                     "slab_migrations"});
  }
  const double cache_mb =
      static_cast<double>(result.cache_bytes) / (1024.0 * 1024.0);
  for (const auto& w : result.windows) {
    csv.WriteRow(result.scheme, result.workload, cache_mb, w.window_index,
                 w.gets_total, w.hit_ratio, w.avg_service_time_us, w.evictions,
                 w.slab_migrations);
  }
}

void WriteClassSlabCsv(std::ostream& out, const SimResult& result,
                       bool include_header) {
  CsvWriter csv(out);
  if (include_header) {
    csv.WriteHeader({"scheme", "workload", "window", "class", "slabs"});
  }
  for (const auto& w : result.windows) {
    for (std::size_t c = 0; c < w.class_slabs.size(); ++c) {
      csv.WriteRow(result.scheme, result.workload, w.window_index, c,
                   w.class_slabs[c]);
    }
  }
}

}  // namespace pamakv
