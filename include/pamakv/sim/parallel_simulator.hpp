// ParallelSimulator: sharded trace replay with one worker thread per shard.
//
// Topology (see DESIGN.md, "Threading model"): the calling thread acts as
// the producer — it reads the trace in order, routes every request to its
// owning shard with ShardIndexFor, the server's routing, and hands the
// requests over in fixed-size batches through one bounded SPSC ring per
// worker. Each worker owns a private CacheEngine (capacity/N, its own
// policy instance, its clock advancing N per access as the server's
// engines do) and replays its sub-stream through the ordinary serial
// Simulator, so per-shard semantics — write-allocate, window sampling,
// stats — are byte-identical to replaying that shard's sub-trace serially
// on an engine with the same clock step.
// A final merge step reduces the per-shard window series into one aggregate
// SimResult (MergeWindows in sim/metrics).
//
// Engines stay single-threaded by design; the shard is the unit of
// parallelism and nothing mutable is shared between workers. Determinism:
// the producer preserves trace order per shard and the rings are FIFO, so
// every run (any thread interleaving) produces the same per-shard results.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/sim/metrics.hpp"
#include "pamakv/sim/simulator.hpp"
#include "pamakv/trace/request.hpp"

namespace pamakv {

struct ParallelSimConfig {
  /// Per-shard simulator settings. window_gets counts each shard's own GETs;
  /// to mirror an aggregate window of W GETs across N shards, pass W / N.
  SimConfig sim;
  std::size_t shards = 1;
  /// Requests per batch handed through a ring (amortizes synchronization).
  std::size_t batch_requests = 1024;
  /// Ring capacity per shard, in batches (bounds producer run-ahead).
  std::size_t ring_batches = 64;
};

struct ParallelSimResult {
  /// Cross-shard reduction: summed stats, gets-weighted window series.
  SimResult aggregate;
  /// One serial-equivalent SimResult per shard, in shard order.
  std::vector<SimResult> per_shard;
};

class ParallelSimulator {
 public:
  /// Builds one engine of the given capacity with its policy attached.
  using EngineFactory = std::function<std::unique_ptr<CacheEngine>(Bytes)>;

  explicit ParallelSimulator(const ParallelSimConfig& config);

  /// Replays `trace` to exhaustion across config().shards workers. Each
  /// engine is built as factory(total_capacity_bytes / shards) and given a
  /// clock step of `shards`. Worker exceptions are re-thrown here after
  /// all threads join.
  ParallelSimResult Run(const EngineFactory& factory,
                        Bytes total_capacity_bytes, TraceSource& trace,
                        const std::string& workload = "");

  [[nodiscard]] const ParallelSimConfig& config() const noexcept {
    return config_;
  }

 private:
  ParallelSimConfig config_;
};

}  // namespace pamakv
