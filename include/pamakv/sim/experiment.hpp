// Experiment harness: builds named scheme configurations and runs
// scheme x cache-size grids in parallel. Every bench binary (one per paper
// figure) is a thin wrapper over this.
//
// Recognized scheme names:
//  * "memcached"    — original Memcached, no slab reallocation (Sec. II)
//  * "psa"          — periodic slab allocation [Carra & Michiardi]
//  * "twemcache"    — Twitter's random slab reassignment
//  * "facebook-age" — Facebook's LRU-age balancer [Nishtala et al.]
//  * "pre-pama"     — PAMA without penalties (value = request count)
//  * "pama"         — full PAMA (Bloom-filter attribution, paper default)
//  * "pama-exact"   — PAMA with exact-rank attribution (ablation)
//  * "lama-hr"/"lama-st" — MRC+DP allocator from related work [9]
//
// Non-penalty-aware schemes run with a single penalty band (one LRU per
// class, as in their original systems); the PAMA family gets the paper's
// five bands unless overridden.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/policy/facebook_age.hpp"
#include "pamakv/policy/lama.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/policy/psa.hpp"
#include "pamakv/sim/simulator.hpp"
#include "pamakv/trace/request.hpp"

namespace pamakv {

struct SchemeOptions {
  PamaConfig pama;
  PsaConfig psa;
  FacebookAgeConfig facebook;
  LamaConfig lama;
  /// Penalty-band bounds for the PAMA family; empty selects the paper's
  /// five bands.
  std::vector<MicroSecs> pama_bands;
  MicroSecs hit_time_us = 0;
  /// Seeds Twemcache's random slab reassignment.
  std::uint64_t engine_seed = 42;
};

/// True if `scheme` is a recognized name.
[[nodiscard]] bool IsKnownScheme(std::string_view scheme);

/// All scheme names, in the order the paper's figures present them.
[[nodiscard]] std::vector<std::string> AllSchemeNames();

/// Builds a ready-to-run engine for the named scheme.
[[nodiscard]] std::unique_ptr<CacheEngine> MakeEngine(
    std::string_view scheme, Bytes capacity_bytes,
    const SizeClassConfig& geometry, const SchemeOptions& options = {});

struct ExperimentCell {
  std::string scheme;
  Bytes cache_bytes = 0;
};

class ExperimentRunner {
 public:
  using TraceFactory = std::function<std::unique_ptr<TraceSource>()>;

  ExperimentRunner(SizeClassConfig geometry, SchemeOptions options,
                   SimConfig sim_config)
      : geometry_(geometry), options_(options), sim_config_(sim_config) {}

  /// Runs every cell (its own engine + its own trace instance) using up to
  /// `threads` workers; results are returned in cell order. `workload`
  /// labels the SimResults.
  [[nodiscard]] std::vector<SimResult> RunGrid(
      const std::vector<ExperimentCell>& cells, const TraceFactory& make_trace,
      const std::string& workload, std::size_t threads = 0) const;

  /// Convenience: one scheme, one cache size.
  [[nodiscard]] SimResult RunOne(const std::string& scheme, Bytes cache_bytes,
                                 TraceSource& trace,
                                 const std::string& workload) const;

 private:
  SizeClassConfig geometry_;
  SchemeOptions options_;
  SimConfig sim_config_;
};

}  // namespace pamakv
