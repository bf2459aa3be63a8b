#include "pamakv/sim/parallel_simulator.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "pamakv/cache/shard_routing.hpp"
#include "pamakv/util/spsc_ring.hpp"

namespace pamakv {

namespace {

using Batch = std::vector<Request>;
using BatchRing = SpscRing<Batch>;

/// TraceSource over one shard's ring: hands out the requests of each popped
/// batch in order, blocking between batches until the producer closes the
/// ring. This lets a worker replay its sub-stream through the ordinary
/// serial Simulator, so parallel per-shard semantics cannot drift from
/// serial ones.
class RingTraceSource final : public TraceSource {
 public:
  explicit RingTraceSource(BatchRing& ring) : ring_(ring) {}

  bool Next(Request& out) override {
    if (pos_ >= batch_.size()) {
      pos_ = 0;
      batch_.clear();
      if (!ring_.PopBlocking(batch_)) return false;
    }
    out = batch_[pos_++];
    return true;
  }

  void Reset() override {
    throw std::logic_error("RingTraceSource: streams are single-pass");
  }

 private:
  BatchRing& ring_;
  Batch batch_;
  std::size_t pos_ = 0;
};

}  // namespace

ParallelSimulator::ParallelSimulator(const ParallelSimConfig& config)
    : config_(config) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ParallelSimulator: need at least one shard");
  }
  if (config_.batch_requests == 0) config_.batch_requests = 1;
  if (config_.ring_batches == 0) config_.ring_batches = 1;
}

ParallelSimResult ParallelSimulator::Run(const EngineFactory& factory,
                                         Bytes total_capacity_bytes,
                                         TraceSource& trace,
                                         const std::string& workload) {
  const std::size_t shards = config_.shards;
  const Bytes per_shard_bytes = total_capacity_bytes / shards;

  std::vector<std::unique_ptr<CacheEngine>> engines;
  engines.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto engine = factory(per_shard_bytes);
    if (!engine) {
      throw std::invalid_argument("ParallelSimulator: factory returned null");
    }
    // As in the server: every shard's clock counts the whole trace.
    engine->SetClockStep(shards);
    engines.push_back(std::move(engine));
  }

  std::vector<std::unique_ptr<BatchRing>> rings;
  rings.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    rings.push_back(std::make_unique<BatchRing>(config_.ring_batches));
  }

  std::vector<SimResult> per_shard(shards);
  std::vector<std::exception_ptr> errors(shards);

  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    workers.emplace_back([&, i] {
      RingTraceSource source(*rings[i]);
      try {
        Simulator sim(config_.sim);
        per_shard[i] = sim.Run(*engines[i], source);
      } catch (...) {
        errors[i] = std::current_exception();
        // Keep draining so the producer can never block on a full ring
        // that nobody empties.
        Request r;
        while (source.Next(r)) {
        }
      }
    });
  }

  // The calling thread is the producer: route requests to their owning
  // shard, hand them over in batches.
  {
    std::vector<Batch> pending(shards);
    for (auto& b : pending) b.reserve(config_.batch_requests);
    Request r;
    while (trace.Next(r)) {
      const std::size_t s = ShardIndexFor(r.key, shards);
      Batch& b = pending[s];
      b.push_back(r);
      if (b.size() >= config_.batch_requests) {
        rings[s]->Push(std::move(b));
        b = Batch();
        b.reserve(config_.batch_requests);
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (!pending[s].empty()) rings[s]->Push(std::move(pending[s]));
      rings[s]->Close();
    }
  }

  for (auto& w : workers) w.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  const auto end = std::chrono::steady_clock::now();

  ParallelSimResult result;
  result.per_shard = std::move(per_shard);

  SimResult& agg = result.aggregate;
  agg.scheme = result.per_shard.front().scheme;
  agg.workload = workload;
  for (SimResult& shard : result.per_shard) {
    shard.workload = workload;
    agg.cache_bytes += shard.cache_bytes;
    agg.final_stats += shard.final_stats;
    agg.requests_replayed += shard.requests_replayed;
  }
  agg.windows = MergeWindows(result.per_shard);
  agg.overall_hit_ratio = agg.final_stats.HitRatio();
  agg.overall_avg_service_time_us =
      agg.final_stats.AvgServiceTimeUs(engines.front()->hit_time_us());
  agg.wall_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace pamakv
