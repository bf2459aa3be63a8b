// LAMA-style allocator (Hu et al., USENIX ATC'15 — the paper's related work
// [9]), provided as an extension comparator. It builds per-class miss-ratio
// curves from exact LRU stack depths (each hit's rank comes from the rank
// index its stack builds on the first query, so the Mattson histogram costs
// O(log n) per hit) and periodically solves for the slab partition
// that maximizes either total hits (LAMA-HR) or total avoided miss penalty
// approximated with per-depth penalty mass (LAMA-ST) via dynamic
// programming at a configurable slab granularity. Slabs then drift toward
// the target: each MakeRoom pulls one slab from the most over-allocated
// donor when the requester is under target.
//
// Contrast with PAMA (Sec. II discussion): LAMA optimizes from whole-curve
// averages of the previous window, while PAMA prices individual slabs with
// their actual constituent penalties.
#pragma once

#include <cstdint>
#include <vector>

#include "pamakv/policy/policy.hpp"

namespace pamakv {

struct LamaConfig {
  AccessClock window_accesses = 200'000;
  /// DP granularity in slabs (LAMA's repartitioning unit).
  std::size_t granularity_slabs = 8;
  /// true: maximize penalty mass caught (LAMA-ST); false: maximize hits.
  bool penalty_weighted = true;
  /// Blend factor for histories across windows (1 = only last window).
  double history_alpha = 0.7;
};

class LamaPolicy final : public AllocationPolicy {
 public:
  explicit LamaPolicy(const LamaConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return config_.penalty_weighted ? "lama-st" : "lama-hr";
  }

  void Attach(CacheEngine& engine) override;
  void OnTick(AccessClock now) override;
  void OnHit(const Item& item) override;
  [[nodiscard]] bool MakeRoom(ClassId cls, SubclassId sub) override;

  /// Current DP target allocation (slabs per class); for tests/diagnostics.
  [[nodiscard]] const std::vector<std::size_t>& target() const noexcept {
    return target_;
  }

 private:
  void Repartition();

  LamaConfig config_;
  /// hist_[c][d]: value mass of hits at stack depth d slabs in class c.
  std::vector<std::vector<double>> hist_;
  std::vector<std::size_t> target_;
  AccessClock window_start_ = 0;
};

}  // namespace pamakv
