#include "pamakv/policy/pama.hpp"

#include <cassert>
#include <limits>

namespace pamakv {

void PamaPolicy::Attach(CacheEngine& engine) {
  AllocationPolicy::Attach(engine);
  tracker_ = std::make_unique<PamaValueTracker>(config_, engine);
  last_granted_.assign(static_cast<std::size_t>(engine.classes().num_classes()) *
                           engine.num_subclasses(),
                       0);
  num_bands_ = engine.num_subclasses();
  migration_flow_.assign(static_cast<std::size_t>(num_bands_) * num_bands_, 0);
}

void PamaPolicy::OnTick(AccessClock now) {
  now_ = now;
  if (now - window_start_ < config_.window_accesses) return;
  window_start_ = now;
  ++rotations_;
  tracker_->RotateWindow(engine());
}

void PamaPolicy::OnHit(const Item& item) { tracker_->OnHit(engine(), item); }

void PamaPolicy::OnMiss(KeyId key, Bytes /*size*/, MicroSecs penalty,
                        ClassId cls, SubclassId sub) {
  // A would-have-been hit: if the key lives in the subclass's ghost region,
  // credit the ghost segment it occupies with the avoided penalty.
  const auto hit = engine().LookupGhost(engine().SubclassIndex(cls, sub), key);
  if (!hit) return;
  const std::size_t spp = engine().classes().SlotsPerSlab(cls);
  // The ghost's recorded penalty may differ slightly from the trace's
  // current estimate; the recorded one is what this eviction cost us.
  tracker_->OnGhostHit(cls, sub, hit->rank / spp, hit->penalty);
  (void)penalty;
}

void PamaPolicy::OnEvict(const Item& item) { tracker_->OnEvict(item); }

std::optional<PamaPolicy::Candidate> PamaPolicy::CheapestDonor() const {
  std::optional<Candidate> best;
  const auto& eng = engine();
  for (ClassId c = 0; c < eng.classes().num_classes(); ++c) {
    for (SubclassId s = 0; s < eng.num_subclasses(); ++s) {
      // Grace period: a recent grantee's slab has not had a window to
      // accumulate value; exempt it from donation so it cannot ping-pong.
      const std::size_t idx =
          static_cast<std::size_t>(c) * eng.num_subclasses() + s;
      const AccessClock granted = last_granted_[idx];
      if (config_.donor_grace_accesses > 0 && granted > 0 &&
          now_ - granted < config_.donor_grace_accesses) {
        continue;
      }
      const auto needed = eng.EvictionsToFreeSlab(c, s);
      if (!needed) continue;  // (c,s) cannot supply a slab
      // A donor is always priced at its candidate slab's outgoing value —
      // even when free slots would let it release a slab without evicting.
      // Discounting such donors to zero makes every freshly granted slab
      // the global minimum and it ping-pongs away before it can fill
      // (the slab thrashing Sec. III warns about).
      const double value = tracker_->OutgoingValue(c, s);
      if (!best || value < best->value) {
        best = Candidate{c, s, value};
      }
    }
  }
  return best;
}

bool PamaPolicy::MakeRoom(ClassId cls, SubclassId sub) {
  const auto donor = CheapestDonor();

  if (donor && donor->cls == cls && donor->sub == sub) {
    // Scenario 2 (Sec. III): the cheapest candidate slab belongs to the
    // requester itself — no migration, replace a single item in place.
    ++decisions_.self_evictions;
    return engine().EvictBottom(cls, sub);
  }

  const double incoming = tracker_->IncomingValue(cls, sub);
  if (donor) {
    ++value_flow_.decisions;
    value_flow_.outgoing_sum += donor->value;
    value_flow_.incoming_sum += incoming;
    value_flow_.last_outgoing = donor->value;
    value_flow_.last_incoming = incoming;
  }

  if (donor && donor->value < incoming) {
    if (donor->cls == cls) ++decisions_.intra_class;
    else ++decisions_.migrations;
    if (engine().MigrateSlab(donor->cls, donor->sub, cls, sub)) {
      last_granted_[static_cast<std::size_t>(cls) * engine().num_subclasses() +
                    sub] = now_;
      value_flow_.migration_benefit_sum += incoming - donor->value;
      ++migration_flow_[static_cast<std::size_t>(donor->sub) * num_bands_ +
                        sub];
      return true;
    }
    return false;
  }

  // Scenario 1 (Sec. III): migration would not improve utilization.
  // Replace within the requester. Evicting from sibling subclasses would
  // be pointless — their slots belong to their slabs, not the requester's.
  if (engine().EvictBottom(cls, sub)) {
    ++decisions_.suppressed;
    return true;
  }
  // The requesting subclass holds nothing and, per the value comparison,
  // does not deserve a slab right now: refuse the store. The engine
  // records the refused key in the subclass's ghost list, so re-misses
  // accumulate incoming value and the subclass is granted a slab the
  // moment its penalty mass genuinely exceeds the cheapest candidate —
  // admission is value-gated instead of migrating on every mandatory
  // insert (which turns low-value subclasses into permanent slab churn).
  ++decisions_.refusals;
  return false;
}

}  // namespace pamakv
