// PamaValueTracker: per-subclass segment-value bookkeeping for PAMA.
//
// For each (class, subclass) it maintains m+1 in-cache segment values (the
// candidate slab's segment plus the m reference segments above it) and m+1
// ghost segment values (the receiving segment plus m beneath). A request's
// contribution is its miss penalty (PAMA) or 1 (pre-PAMA). Values live in
// tumbling windows of `window_accesses` accesses; an optional exponential
// carry-over (`value_decay`) smooths window edges — 0 reproduces the paper.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "pamakv/bloom/segment_filters.hpp"
#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

struct PamaConfig {
  /// m — reference segments beyond the candidate/receiving segment.
  std::size_t reference_segments = 2;
  /// Window length in accesses (the paper's logical time).
  AccessClock window_accesses = 100'000;
  /// false => pre-PAMA (value = request count, penalty ignored).
  bool penalty_aware = true;
  /// true => the paper's Bloom-filter attribution; false => exact ranks.
  bool use_bloom = true;
  double bloom_fpr = 0.01;
  /// Fraction of each value carried into the next window (0 = paper).
  /// Nonzero decay densifies the value signal at scaled-down slab sizes;
  /// see DESIGN.md resolution 4 and bench/ablation_window.
  double value_decay = 0.9;
  /// A subclass that received a slab within this many accesses cannot
  /// donate: its new slab has had no time to accumulate segment value, so
  /// without a grace period it is always the global minimum and bounces
  /// straight back out (slab thrashing, Sec. III). 0 disables.
  AccessClock donor_grace_accesses = 100'000;
};

class PamaValueTracker {
 public:
  PamaValueTracker(const PamaConfig& config, const CacheEngine& engine);

  /// Attribution of a hit to the bottom segments (called pre-promotion).
  void OnHit(const CacheEngine& engine, const Item& item);

  /// Eviction notification: in Bloom mode the key leaves the snapshot region.
  void OnEvict(const Item& item);

  /// A miss found its key in subclass (c,s)'s ghost list, inside ghost
  /// segment `ghost_segment` (0 == the receiving segment). Segments beyond
  /// the tracked range are ignored.
  void OnGhostHit(ClassId c, SubclassId s, std::size_t ghost_segment,
                  MicroSecs penalty);

  /// Window rotation: decays values and (in Bloom mode) rebuilds the
  /// segment filters from the current stack bottoms, walking up to eight
  /// stacks in lockstep; every filter ends bit for bit as a serial walk
  /// of each stack would leave it.
  void RotateWindow(CacheEngine& engine);

  /// Weighted outgoing value of the candidate slab (Eq. 2).
  [[nodiscard]] double OutgoingValue(ClassId c, SubclassId s) const;
  /// Weighted incoming value of a prospective new slab.
  [[nodiscard]] double IncomingValue(ClassId c, SubclassId s) const;

  // Raw per-segment sums, for tests and the fig. 4 diagnostics.
  [[nodiscard]] double SegmentValue(ClassId c, SubclassId s, std::size_t i) const;
  [[nodiscard]] double GhostSegmentValue(ClassId c, SubclassId s,
                                         std::size_t i) const;

  [[nodiscard]] std::size_t segments() const noexcept { return segments_; }

  /// Total Bloom-filter memory (space-overhead reporting); 0 in exact mode.
  [[nodiscard]] std::size_t FilterFootprintBytes() const noexcept;

  /// Subclass (c, s)'s segment filters; nullptr in exact mode.
  [[nodiscard]] const SegmentFilterSet* filters(ClassId c,
                                                SubclassId s) const noexcept {
    return state_[Index(c, s)].filters.get();
  }

 private:
  struct SubclassState {
    std::vector<double> seg_values;
    std::vector<double> ghost_values;
    std::unique_ptr<SegmentFilterSet> filters;  // bloom mode only
  };

  [[nodiscard]] std::size_t Index(ClassId c, SubclassId s) const noexcept {
    return static_cast<std::size_t>(c) * num_subclasses_ + s;
  }
  [[nodiscard]] double ValueOf(MicroSecs penalty) const noexcept {
    return config_.penalty_aware ? static_cast<double>(penalty) : 1.0;
  }
  [[nodiscard]] double Weighted(const std::vector<double>& values) const noexcept;
  /// Refills every subclass's filters from the bottom m+1 slabs of its
  /// stack.
  void RebuildFilters(const CacheEngine& engine);

  PamaConfig config_;
  std::size_t segments_;  // m + 1
  std::uint32_t num_subclasses_;
  std::vector<SubclassState> state_;
};

}  // namespace pamakv
