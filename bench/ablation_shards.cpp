// Ablation — PAMA split over shards, as the server splits it.
//
// The server divides --capacity-mb among --shards engines, each with its
// own policy, and routes keys with ShardIndexFor. ParallelSimulator routes
// and splits the same way, so this sweep replays the ETC stream at 1, 4
// and 8 shards over the three ETC cache points and prints PAMA's and
// Memcached's average service time, and PAMA's as a fraction of
// Memcached's. At the default scale (0.5) the stream is 3M requests.
#include <cstddef>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "pamakv/sim/parallel_simulator.hpp"
#include "pamakv/util/csv.hpp"

using namespace pamakv;
using namespace pamakv::bench;

namespace {

/// The aggregate's average service time (µs) of `scheme` at `cache` bytes
/// split over `shards` engines.
double AvgServiceUs(const std::string& scheme, Bytes cache,
                    std::size_t shards, double scale) {
  ParallelSimConfig cfg;
  cfg.shards = shards;
  // Per-shard windows that add up to one aggregate window of GETs.
  cfg.sim.window_gets = DefaultSimConfig().window_gets / shards;
  cfg.sim.capture_class_slabs = false;
  auto trace = EtcTrace(scale)();
  return ParallelSimulator(cfg)
      .Run(
          [&](Bytes bytes) {
            return MakeEngine(scheme, bytes, SizeClassConfig{});
          },
          cache, *trace, "etc")
      .aggregate.overall_avg_service_time_us;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = args.GetDouble("scale", BenchScaleFromEnv());

  CsvWriter csv(std::cout);
  csv.WriteHeader({"cache_mb", "shards", "pama_avg_service_us",
                   "memcached_avg_service_us", "pama_over_memcached"});
  for (const Bytes cache : kEtcCaches) {
    for (const std::size_t shards : {1, 4, 8}) {
      const double pama = AvgServiceUs("pama", cache, shards, scale);
      const double memcached = AvgServiceUs("memcached", cache, shards, scale);
      const auto mb = static_cast<unsigned long long>(cache / kMB);
      csv.WriteRow(mb, shards, pama, memcached, pama / memcached);
      std::fprintf(stderr,
                   "# cache=%3lluMB shards=%zu pama=%8.0fus memcached=%8.0fus "
                   "pama/memcached=%.2f\n",
                   mb, shards, pama, memcached, pama / memcached);
    }
  }
  return 0;
}
