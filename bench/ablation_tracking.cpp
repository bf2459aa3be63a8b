// Ablation — exact-rank vs Bloom-filter segment attribution.
//
// The paper's third design challenge is making segment-membership tests
// O(1); its answer is per-segment Bloom filters plus a removal filter.
// This ablation quantifies what the approximation costs: end metrics of
// "pama" (Bloom) vs "pama-exact" (exact stack ranks) across Bloom
// false-positive-rate targets, plus the filters' memory footprint.
#include "bench_common.hpp"

#include "pamakv/util/csv.hpp"

#include "pamakv/policy/pama.hpp"

using namespace pamakv;
using namespace pamakv::bench;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = args.GetDouble("scale", BenchScaleFromEnv());
  const Bytes cache = kEtcCaches[1];

  CsvWriter csv(std::cout);
  csv.WriteHeader({"mode", "bloom_fpr", "hit_ratio", "avg_service_ms",
                   "slab_migrations", "filter_bytes"});

  auto run = [&](const std::string& scheme, double fpr) {
    SchemeOptions options;
    options.pama.bloom_fpr = fpr;
    auto engine = MakeEngine(scheme, cache, SizeClassConfig{}, options);
    auto trace = EtcTrace(scale)();
    Simulator sim(DefaultSimConfig());
    const auto result = sim.Run(*engine, *trace);
    const auto* pama = dynamic_cast<const PamaPolicy*>(&engine->policy());
    csv.WriteRow(scheme, fpr, result.overall_hit_ratio,
                 result.overall_avg_service_time_us / 1000.0,
                 result.final_stats.slab_migrations,
                 pama->tracker().FilterFootprintBytes());
    std::fprintf(stderr, "# %-10s fpr=%.3f hit=%.3f avg=%.2fms filters=%zuKB\n",
                 scheme.c_str(), fpr, result.overall_hit_ratio,
                 result.overall_avg_service_time_us / 1000.0,
                 pama->tracker().FilterFootprintBytes() / 1024);
  };

  run("pama-exact", 0.0);
  for (const double fpr : {0.001, 0.01, 0.05, 0.2}) run("pama", fpr);
  return 0;
}
