// PAMA — Penalty Aware Memory Allocation (paper Sec. III).
//
// Every subclass's candidate (bottom) slab gets an *outgoing value*: the
// weighted miss penalty that would have materialized in the current access
// window had its near-bottom items not been cached (Eq. 1-2, weights
// 1/2^(i+1) over the candidate segment and m reference segments above it).
// Symmetrically, each subclass's ghost region yields an *incoming value*:
// the penalty a newly granted slab would have saved. On a miss that needs
// space, the globally cheapest candidate donates a slab to the requester —
// unless the requester's incoming value does not beat it (no migration;
// replace within) or the winner is the requester itself (evict one item).
//
// Two segment-attribution modes are provided:
//  * exact  — exact stack ranks, O(log n) per hit from the rank index an
//             LRU stack builds on its first rank query (ground truth;
//             also what the tests verify against),
//  * bloom  — the paper's O(1) mechanism: per-segment Bloom filters plus a
//             removal filter, rebuilt at window boundaries.
//
// pre-PAMA (the paper's penalty-blind ablation) is this policy with
// penalty_aware = false (segment value = request count) and is normally run
// with a single penalty band.
#pragma once

#include <cstdint>
#include <memory>

#include "pamakv/policy/pama_value_tracker.hpp"
#include "pamakv/policy/policy.hpp"

namespace pamakv {

class PamaPolicy final : public AllocationPolicy {
 public:
  explicit PamaPolicy(const PamaConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return config_.penalty_aware ? "pama" : "pre-pama";
  }

  void Attach(CacheEngine& engine) override;
  void OnTick(AccessClock now) override;
  void OnHit(const Item& item) override;
  void OnMiss(KeyId key, Bytes size, MicroSecs penalty, ClassId cls,
              SubclassId sub) override;
  void OnEvict(const Item& item) override;
  [[nodiscard]] bool MakeRoom(ClassId cls, SubclassId sub) override;

  [[nodiscard]] double IncomingSlabValue(ClassId cls,
                                         SubclassId sub) const override {
    return tracker_ != nullptr ? tracker_->IncomingValue(cls, sub) : 0.0;
  }

  [[nodiscard]] const PamaConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PamaValueTracker& tracker() const noexcept {
    return *tracker_;
  }

  /// Decision counters (tests + EXPERIMENTS diagnostics).
  struct Decisions {
    std::uint64_t migrations = 0;       ///< cross-class slab transfers
    std::uint64_t intra_class = 0;      ///< winner in same class, other subclass
    std::uint64_t self_evictions = 0;   ///< winner was the requester
    std::uint64_t suppressed = 0;       ///< incoming value too small
    std::uint64_t refusals = 0;         ///< empty low-value subclass; store refused
  };
  [[nodiscard]] const Decisions& decisions() const noexcept { return decisions_; }
  /// Window rotations so far.
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }

  /// Running view of the value comparison at each MakeRoom decision —
  /// what the candidate donor's outgoing value was, what the requester's
  /// incoming value was, and (summed over *executed* migrations) the
  /// estimated penalty mass saved relative to not moving the slab. This
  /// is the live counterpart of the paper's penalty-saved argument; the
  /// metrics layer exports the sums and the last comparison as gauges.
  struct ValueFlow {
    std::uint64_t decisions = 0;         ///< MakeRoom calls with a donor
    double outgoing_sum = 0.0;           ///< Σ donor outgoing value
    double incoming_sum = 0.0;           ///< Σ requester incoming value
    /// Σ (incoming - outgoing) over migrations actually performed: the
    /// penalty-saved-vs-staying-put estimate, in weighted penalty µs.
    double migration_benefit_sum = 0.0;
    double last_outgoing = 0.0;
    double last_incoming = 0.0;
  };
  [[nodiscard]] const ValueFlow& value_flow() const noexcept {
    return value_flow_;
  }

  /// Slabs migrated from a donor in penalty band `from` to a requester in
  /// band `to` (bands collapse classes: the paper's Fig. 3/4 story is
  /// about penalty bands gaining space from low-penalty bands).
  [[nodiscard]] std::uint64_t MigrationFlow(SubclassId from,
                                            SubclassId to) const {
    return migration_flow_[static_cast<std::size_t>(from) * num_bands_ + to];
  }

 private:
  struct Candidate {
    ClassId cls = 0;
    SubclassId sub = 0;
    double value = 0.0;
  };
  [[nodiscard]] std::optional<Candidate> CheapestDonor() const;

  PamaConfig config_;
  std::unique_ptr<PamaValueTracker> tracker_;
  Decisions decisions_;
  std::uint64_t rotations_ = 0;
  ValueFlow value_flow_;
  /// band × band migration counts, row-major by source band.
  std::vector<std::uint64_t> migration_flow_;
  std::uint32_t num_bands_ = 0;
  AccessClock window_start_ = 0;
  AccessClock now_ = 0;
  /// Access clock of each subclass's most recent slab grant (grace period).
  std::vector<AccessClock> last_granted_;
};

}  // namespace pamakv
