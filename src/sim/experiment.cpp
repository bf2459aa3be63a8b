#include "pamakv/sim/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/policy/twemcache.hpp"
#include "pamakv/util/thread_pool.hpp"

namespace pamakv {

namespace {

const char* const kSchemes[] = {"memcached", "psa",       "twemcache",
                                "facebook-age", "pre-pama", "pama",
                                "pama-exact",   "lama-hr",  "lama-st"};

[[nodiscard]] bool IsPamaFamily(std::string_view scheme) {
  return scheme == "pama" || scheme == "pama-exact" || scheme == "pre-pama";
}

}  // namespace

bool IsKnownScheme(std::string_view scheme) {
  return std::find(std::begin(kSchemes), std::end(kSchemes), scheme) !=
         std::end(kSchemes);
}

std::vector<std::string> AllSchemeNames() {
  return {std::begin(kSchemes), std::end(kSchemes)};
}

std::unique_ptr<CacheEngine> MakeEngine(std::string_view scheme,
                                        Bytes capacity_bytes,
                                        const SizeClassConfig& geometry,
                                        const SchemeOptions& options) {
  EngineConfig engine_cfg;
  engine_cfg.size_classes = geometry;
  engine_cfg.capacity_bytes = capacity_bytes;
  engine_cfg.hit_time_us = options.hit_time_us;

  std::unique_ptr<AllocationPolicy> policy;
  if (scheme == "memcached") {
    policy = std::make_unique<NoReallocPolicy>();
  } else if (scheme == "psa") {
    policy = std::make_unique<PsaPolicy>(options.psa);
  } else if (scheme == "twemcache") {
    policy = std::make_unique<TwemcachePolicy>(options.engine_seed);
  } else if (scheme == "facebook-age") {
    policy = std::make_unique<FacebookAgePolicy>(options.facebook);
  } else if (scheme == "lama-hr" || scheme == "lama-st") {
    LamaConfig cfg = options.lama;
    cfg.penalty_weighted = scheme == "lama-st";
    policy = std::make_unique<LamaPolicy>(cfg);
  } else if (IsPamaFamily(scheme)) {
    PamaConfig cfg = options.pama;
    cfg.penalty_aware = scheme != "pre-pama";
    cfg.use_bloom = scheme != "pama-exact";
    policy = std::make_unique<PamaPolicy>(cfg);
    // Full PAMA divides classes into penalty-band subclasses; pre-PAMA is
    // the paper's penalty-blind ablation and uses one band.
    if (scheme != "pre-pama") {
      engine_cfg.penalty_band_bounds =
          options.pama_bands.empty() ? PenaltyBandTable::PaperDefault().bounds()
                                     : options.pama_bands;
    }
    // Ghost region must cover the receiving segment + m references.
    engine_cfg.ghost_segments = static_cast<std::uint32_t>(
        std::max<std::size_t>(cfg.reference_segments + 1, 2));
  } else {
    throw std::invalid_argument("MakeEngine: unknown scheme '" +
                                std::string(scheme) + "'");
  }
  return std::make_unique<CacheEngine>(engine_cfg, std::move(policy));
}

SimResult ExperimentRunner::RunOne(const std::string& scheme,
                                   Bytes cache_bytes, TraceSource& trace,
                                   const std::string& workload) const {
  auto engine = MakeEngine(scheme, cache_bytes, geometry_, options_);
  Simulator sim(sim_config_);
  SimResult result = sim.Run(*engine, trace);
  result.scheme = scheme;
  result.workload = workload;
  return result;
}

std::vector<SimResult> ExperimentRunner::RunGrid(
    const std::vector<ExperimentCell>& cells, const TraceFactory& make_trace,
    const std::string& workload, std::size_t threads) const {
  std::vector<SimResult> results(cells.size());
  ThreadPool pool(threads);
  ParallelFor(pool, cells.size(), [&](std::size_t i) {
    const auto& cell = cells[i];
    auto trace = make_trace();
    results[i] = RunOne(cell.scheme, cell.cache_bytes, *trace, workload);
  });
  return results;
}

}  // namespace pamakv
