// SegmentFilterSet: the paper's per-reference-segment Bloom filters plus the
// shared removal filter (Sec. III, third challenge).
//
// Lifecycle: at each time-window boundary the PAMA value tracker rebuilds
// the set from a scan of the bottom (m+1) stack segments; between rebuilds
// the stack keeps shifting, so the filters are a deliberately stale snapshot.
// Items that leave the snapshot region mid-window (promoted on access, or
// evicted) are recorded in the removal filter; a membership answer is
// "in segment i" only if segment i's filter says yes AND the removal filter
// says no. This mirrors the paper's rule that the removal filter tracks
// "items that have been recently removed out of the segments".
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "pamakv/bloom/bloom_filter.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class SegmentFilterSet {
 public:
  /// segments: number of reference segments tracked (m + 1 in the paper);
  /// items_per_segment: slots per slab of the owning class;
  /// fpr: per-filter false positive rate target.
  SegmentFilterSet(std::size_t segments, std::size_t items_per_segment,
                   double fpr = 0.01);

  /// Begins a rebuild: clears every segment filter and the removal filter.
  void BeginRebuild() noexcept;

  /// Registers `key` as a member of segment `seg` during a rebuild scan.
  void AddToSegment(std::size_t seg, KeyId key) noexcept;

  /// Marks a key as having left the snapshot region (accessed/evicted).
  void MarkRemoved(KeyId key) noexcept;

  /// Returns the segment index the key (approximately) belongs to, or
  /// nullopt if it is in no tracked segment / was removed since the last
  /// rebuild. Segments are probed bottom-up, so a (rare) double false
  /// positive resolves to the lower segment, which only overweights the
  /// candidate slab slightly.
  [[nodiscard]] std::optional<std::size_t> FindSegment(KeyId key) const noexcept;

  [[nodiscard]] std::size_t segment_count() const noexcept { return filters_.size(); }
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

  /// Every segment filter and the removal filter equal, bit for bit.
  bool operator==(const SegmentFilterSet&) const = default;

 private:
  std::vector<BloomFilter> filters_;
  BloomFilter removal_filter_;
};

}  // namespace pamakv
