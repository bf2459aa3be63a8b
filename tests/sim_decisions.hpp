// Paper-fidelity pin: every scheme's allocation decisions on one seeded ETC
// and one seeded APP trace, replayed write-allocate through a small engine,
// rendered as text and checked in as tests/golden/sim_decisions.golden.
// Any change to LRU order, eviction choice, PAMA's valuation or slab
// accounting moves some line of it.
//
// Each part is one (workload, scheme) run:
//   w<i> hits=<n> misses=<n> penalty_us=<n> evictions=<n> migrations=<n>
// per window of kWindowGets GETs (the trailing partial window included),
// then the final layout, one line per (class, band):
//   c<c> b<s> slabs=<n> items=<n>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pamakv/sim/experiment.hpp"
#include "pamakv/trace/generators.hpp"

namespace pamakv::test {

/// The property suite's geometry: 4 KiB slabs, six classes of 32..1024 B.
inline SizeClassConfig SmallGeometry() {
  SizeClassConfig g;
  g.slab_bytes = 4096;
  g.min_slot_bytes = 32;
  g.num_classes = 6;  // 32..1024 B
  return g;
}

/// Short windows so every scheme reallocates within a few thousand requests.
inline SchemeOptions FastOptions() {
  SchemeOptions o;
  o.pama.window_accesses = 2000;
  o.psa.window_accesses = 2000;
  o.psa.misses_per_relocation = 200;
  o.facebook.check_interval = 500;
  o.lama.window_accesses = 2000;
  o.lama.granularity_slabs = 2;
  return o;
}

inline constexpr std::uint64_t kSimDecisionRequests = 100'000;
inline constexpr std::uint64_t kWindowGets = 10'000;

/// Golden part names, "<workload>/<scheme>", for both workloads.
inline std::vector<std::string> SimDecisionParts() {
  std::vector<std::string> parts;
  for (const char* workload : {"etc", "app"}) {
    for (const std::string& scheme : AllSchemeNames()) {
      parts.push_back(std::string(workload) + "/" + scheme);
    }
  }
  return parts;
}

/// Replays the run named by `part` and renders its decisions.
inline std::string RecordSimDecisions(const std::string& part) {
  const std::size_t slash = part.find('/');
  const std::string workload = part.substr(0, slash);
  const std::string scheme = part.substr(slash + 1);

  const SizeClassConfig geometry = SmallGeometry();
  auto engine = MakeEngine(scheme, 16 * geometry.slab_bytes, geometry,
                           FastOptions());
  WorkloadConfig cfg = workload == "etc"
                           ? EtcWorkload(kSimDecisionRequests, /*seed=*/5)
                           : AppWorkload(kSimDecisionRequests, /*seed=*/6);
  cfg.geometry = geometry;
  cfg.class_weights.resize(geometry.num_classes);
  SyntheticTrace trace(cfg);

  std::string out;
  CacheStats base = engine->stats();
  std::uint64_t gets = 0;
  std::uint64_t window = 0;
  const auto sample = [&] {
    const CacheStats now = engine->stats();
    const CacheStats d = now.Since(base);
    out += "w" + std::to_string(window++) +
           " hits=" + std::to_string(d.get_hits) +
           " misses=" + std::to_string(d.get_misses) +
           " penalty_us=" + std::to_string(d.miss_penalty_total_us) +
           " evictions=" + std::to_string(d.evictions) +
           " migrations=" + std::to_string(d.slab_migrations) + "\n";
    base = now;
    gets = 0;
  };
  Request r;
  while (trace.Next(r)) {
    switch (r.op) {
      case Op::kGet:
        if (!engine->Get(r.key, r.size, r.penalty_us).hit) {
          engine->Set(r.key, r.size, r.penalty_us);
        }
        if (++gets == kWindowGets) sample();
        break;
      case Op::kSet:
        engine->Set(r.key, r.size, r.penalty_us);
        break;
      case Op::kDel:
        engine->Del(r.key);
        break;
    }
  }
  if (gets > 0) sample();
  for (ClassId c = 0; c < engine->classes().num_classes(); ++c) {
    for (SubclassId s = 0; s < engine->num_subclasses(); ++s) {
      out += "c" + std::to_string(c) + " b" + std::to_string(s) +
             " slabs=" + std::to_string(engine->pool().SlabCount(c, s)) +
             " items=" + std::to_string(engine->SubclassItemCount(c, s)) +
             "\n";
    }
  }
  return out;
}

}  // namespace pamakv::test
