// MattsonProfiler: exact miss-ratio curves in one pass.
//
// Feeds every GET of a trace through an LRU stack with its rank index on
// and histograms the exact reuse depths (Mattson's classic single-pass
// method, O(log n) per access here). The resulting curve answers "what
// would the miss ratio / total miss penalty be at ANY cache size" for a
// pure-LRU cache — the analysis backbone of the related-work LAMA scheme
// [9], and a useful workload-characterization tool on its own
// (examples/mrc_explorer, tools for sizing caches before running full
// simulations).
//
// Two curves are tracked: by request count (miss *ratio*) and by penalty
// mass (miss *cost*), since the paper's whole point is that the two
// disagree.
#pragma once

#include <cstdint>
#include <vector>

#include "pamakv/cache/hash_index.hpp"
#include "pamakv/ds/lru_stack.hpp"
#include "pamakv/trace/request.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class MattsonProfiler {
 public:
  /// bucket_bytes: depth-histogram granularity in bytes of stack depth
  /// (item sizes are accumulated, so the curve's x-axis is cache bytes).
  explicit MattsonProfiler(Bytes bucket_bytes = 1024 * 1024);

  /// Records one GET. SET/DEL records can be passed too: SETs touch the
  /// stack like GETs (without counting toward the curves); DELs remove.
  void Record(const Request& request);

  /// Drains a source to exhaustion (GETs/SETs/DELs).
  void Profile(TraceSource& trace);

  struct Curve {
    /// x[i] = (i+1) * bucket_bytes of cache; y[i] = miss ratio (or miss
    /// penalty per request, µs) with that much cache under pure LRU.
    std::vector<double> miss_ratio;
    std::vector<double> miss_penalty_per_get_us;
    Bytes bucket_bytes = 0;
    std::uint64_t gets = 0;
    std::uint64_t cold_misses = 0;
  };

  /// Builds the curves from everything recorded so far.
  [[nodiscard]] Curve Build() const;

  [[nodiscard]] std::uint64_t gets() const noexcept { return gets_; }
  [[nodiscard]] std::size_t unique_keys() const noexcept {
    return stack_.size();
  }

 private:
  struct Tracked {
    KeyId key = 0;
    Bytes size = 0;
    LruStack::Node* node = nullptr;
  };

  /// Byte depth of a node: sum of sizes of items above it. Approximated as
  /// rank * mean item size, which is exact for fixed-size items and keeps
  /// the profiler O(log n); the approximation error is reported by tests.
  [[nodiscard]] Bytes DepthBytes(std::size_t rank) const;
  void Touch(KeyId key, Bytes size, MicroSecs penalty, bool count);

  Bytes bucket_bytes_;
  LruStack stack_;
  HashIndex index_;
  std::vector<Tracked> items_;
  std::vector<ItemHandle> free_items_;
  std::vector<std::uint64_t> depth_hits_;
  std::vector<double> depth_penalty_us_;
  std::uint64_t gets_ = 0;
  std::uint64_t cold_misses_ = 0;
  double penalty_cold_us_ = 0.0;
  Bytes total_bytes_ = 0;  // bytes currently on the stack
};

}  // namespace pamakv
