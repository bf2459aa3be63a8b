#include "pamakv/policy/pama_value_tracker.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace pamakv {

namespace {

/// Stacks a Bloom filter rebuild walks at once.
constexpr std::size_t kRebuildLanes = 8;

}  // namespace

PamaValueTracker::PamaValueTracker(const PamaConfig& config,
                                   const CacheEngine& engine)
    : config_(config),
      segments_(config.reference_segments + 1),
      num_subclasses_(engine.num_subclasses()) {
  const std::uint32_t num_classes = engine.classes().num_classes();
  state_.resize(static_cast<std::size_t>(num_classes) * num_subclasses_);
  for (ClassId c = 0; c < num_classes; ++c) {
    const std::size_t spp = engine.classes().SlotsPerSlab(c);
    for (SubclassId s = 0; s < num_subclasses_; ++s) {
      SubclassState& st = state_[Index(c, s)];
      st.seg_values.assign(segments_, 0.0);
      st.ghost_values.assign(segments_, 0.0);
      if (config_.use_bloom) {
        st.filters = std::make_unique<SegmentFilterSet>(segments_, spp,
                                                        config_.bloom_fpr);
      }
    }
  }
}

void PamaValueTracker::OnHit(const CacheEngine& engine, const Item& item) {
  SubclassState& st = state_[Index(item.cls, item.sub)];
  if (config_.use_bloom) {
    const auto seg = st.filters->FindSegment(item.key);
    if (seg) {
      st.seg_values[*seg] += ValueOf(item.penalty);
      // The hit promotes the item out of the snapshot region.
      st.filters->MarkRemoved(item.key);
    }
    return;
  }
  const std::size_t spp = engine.classes().SlotsPerSlab(item.cls);
  const std::size_t rank =
      engine.StackOf(item.cls, item.sub).RankFromBottom(item.node);
  if (rank < segments_ * spp) {
    st.seg_values[rank / spp] += ValueOf(item.penalty);
  }
}

void PamaValueTracker::OnEvict(const Item& item) {
  if (!config_.use_bloom) return;
  // The key sinks out of the cache; it must stop answering as a segment
  // member (it may reappear via the ghost path instead).
  state_[Index(item.cls, item.sub)].filters->MarkRemoved(item.key);
}

void PamaValueTracker::OnGhostHit(ClassId c, SubclassId s,
                                  std::size_t ghost_segment,
                                  MicroSecs penalty) {
  if (ghost_segment >= segments_) return;  // beyond the tracked range
  state_[Index(c, s)].ghost_values[ghost_segment] += ValueOf(penalty);
}

void PamaValueTracker::RotateWindow(CacheEngine& engine) {
  const double decay = std::clamp(config_.value_decay, 0.0, 1.0);
  for (SubclassState& st : state_) {
    for (auto& v : st.seg_values) v *= decay;
    for (auto& v : st.ghost_values) v *= decay;
  }
  if (config_.use_bloom) RebuildFilters(engine);
}

void PamaValueTracker::RebuildFilters(const CacheEngine& engine) {
  // A serial walk misses the cache twice per item, once for the stack node
  // and once for the item it names, and each miss waits for the last. So
  // up to kRebuildLanes stacks are walked in lockstep: every step of a
  // lane adds the item it prefetched a step earlier, reads the node it
  // prefetched a step earlier, and prefetches that node's item and the
  // next node. Each lane adds its stack's keys bottom-up to its own
  // subclass's filters, exactly the adds of a serial walk.
  struct Lane {
    SegmentFilterSet* filters = nullptr;
    std::size_t spp = 0;
    std::size_t left = 0;   ///< nodes the walk may still read
    std::size_t added = 0;  ///< keys added so far: the next key's rank
    LruStack::Node* next = nullptr;  ///< prefetched; the next node to read
    const Item* item = nullptr;      ///< prefetched; the next item to add
  };
  std::array<Lane, kRebuildLanes> lanes;
  std::size_t queued = 0;  // the next subclass (state_ index) to start
  // Clears the next subclass's filters and, unless its stack is empty,
  // starts `lane` at its bottom. False once every subclass has started.
  const auto start = [&](Lane& lane) {
    while (queued < state_.size()) {
      const std::size_t i = queued++;
      SubclassState& st = state_[i];
      st.filters->BeginRebuild();
      const auto c = static_cast<ClassId>(i / num_subclasses_);
      LruStack::Node* bottom =
          engine.StackOf(c, static_cast<SubclassId>(i % num_subclasses_))
              .Bottom();
      if (bottom == nullptr) continue;
      const std::size_t spp = engine.classes().SlotsPerSlab(c);
      lane = Lane{st.filters.get(), spp, segments_ * spp, 0, bottom, nullptr};
      __builtin_prefetch(bottom);
      return true;
    }
    return false;
  };
  std::size_t active = 0;
  while (active < lanes.size() && start(lanes[active])) ++active;
  while (active > 0) {
    for (std::size_t l = 0; l < active;) {
      Lane& lane = lanes[l];
      if (lane.item != nullptr) {
        lane.filters->AddToSegment(lane.added++ / lane.spp, lane.item->key);
      }
      if (lane.next != nullptr && lane.left > 0) {
        --lane.left;
        lane.item = &engine.ItemAt(lane.next->value);
        __builtin_prefetch(lane.item);
        lane.next = LruStack::TowardTop(lane.next);
        __builtin_prefetch(lane.next);
      } else if (!start(lane)) {
        // Nothing left to start: the last active lane takes this slot.
        lane = lanes[--active];
        continue;
      }
      ++l;
    }
  }
}

double PamaValueTracker::Weighted(const std::vector<double>& values) const noexcept {
  // Eq. 2: V = sum_i values[i] / 2^(i+1); segment 0 (candidate/receiving)
  // carries the highest weight.
  double v = 0.0;
  double weight = 0.5;
  for (const double x : values) {
    v += x * weight;
    weight *= 0.5;
  }
  return v;
}

double PamaValueTracker::OutgoingValue(ClassId c, SubclassId s) const {
  return Weighted(state_[Index(c, s)].seg_values);
}

double PamaValueTracker::IncomingValue(ClassId c, SubclassId s) const {
  return Weighted(state_[Index(c, s)].ghost_values);
}

double PamaValueTracker::SegmentValue(ClassId c, SubclassId s,
                                      std::size_t i) const {
  return state_[Index(c, s)].seg_values.at(i);
}

double PamaValueTracker::GhostSegmentValue(ClassId c, SubclassId s,
                                           std::size_t i) const {
  return state_[Index(c, s)].ghost_values.at(i);
}

std::size_t PamaValueTracker::FilterFootprintBytes() const noexcept {
  std::size_t total = 0;
  for (const auto& st : state_) {
    if (st.filters) total += st.filters->footprint_bytes();
  }
  return total;
}

}  // namespace pamakv
