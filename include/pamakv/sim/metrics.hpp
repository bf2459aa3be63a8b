// Windowed simulation metrics.
//
// The paper reports hit ratio and average GET service time per window of
// 10^6 GETs, plus per-class slab allocations (Fig. 3) and per-subclass
// shares (Fig. 4) over time. WindowSample captures all of that at each
// window boundary; SimResult aggregates the run.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pamakv/cache/stats.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

struct WindowSample {
  std::uint64_t window_index = 0;
  /// GETs served since run start at the window's end.
  std::uint64_t gets_total = 0;
  double hit_ratio = 0.0;          ///< within this window
  double avg_service_time_us = 0.0;///< within this window
  std::uint64_t evictions = 0;     ///< within this window
  std::uint64_t slab_migrations = 0;
  /// Slabs per class at the window boundary (Fig. 3 series).
  std::vector<std::size_t> class_slabs;
  /// Items per (class, subclass), row-major by class (Fig. 4 series).
  std::vector<std::size_t> subclass_items;
  /// Slabs owned per (class, subclass), row-major by class (Fig. 4).
  std::vector<std::size_t> subclass_slabs;
};

struct SimResult {
  std::string scheme;
  std::string workload;
  Bytes cache_bytes = 0;
  CacheStats final_stats;
  double overall_hit_ratio = 0.0;
  double overall_avg_service_time_us = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t requests_replayed = 0;
  std::vector<WindowSample> windows;
};

/// Reduces per-shard window series into one aggregate series. Window w of
/// the result combines window w of every shard that reached it: counters
/// (evictions, migrations, class_slabs, ...) are summed, ratio metrics
/// (hit_ratio, avg_service_time_us) are weighted by each shard's GETs in
/// that window, and gets_total sums every shard's cumulative GETs (shards
/// that finished earlier contribute their final total). The result is as
/// long as the longest shard series.
[[nodiscard]] std::vector<WindowSample> MergeWindows(
    const std::vector<SimResult>& shards);

/// Writes a SimResult's window series as CSV:
/// scheme,workload,cache_mb,window,gets,hit_ratio,avg_service_us,...
void WriteWindowCsv(std::ostream& out, const SimResult& result,
                    bool include_header);

/// Writes per-class slab series: scheme,window,class,slabs.
void WriteClassSlabCsv(std::ostream& out, const SimResult& result,
                       bool include_header);

}  // namespace pamakv
