// Verifies the engine's steady-state hot path is allocation-free: once the
// cache has warmed up (item table, LRU node pools and rank indexes, and
// the one hash index that holds cached and evicted keys at their
// structural maxima), Get/Set/eviction cycles must not touch the heap.
// The ghost rings are allocated whole at construction; an eviction
// re-points its key's index slot in place. Guards against regressions like
// the node-allocating std::unordered_map the ghost lists used to carry.
//
// Allocation counting lives in alloc_count.cpp (shared with
// net_alloc_test, which extends the same discipline to the server's
// connection path).

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv {
namespace {

/// Drives `n` GET(+write-allocate SET) requests over a fixed key space whose
/// demand exceeds the cache, so hits, misses, evictions and ghost churn all
/// occur. Sizes and penalties are pure functions of the key.
void Drive(CacheEngine& engine, Rng& rng, std::uint64_t n) {
  constexpr KeyId kKeySpace = 20'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const KeyId key = rng.NextBounded(kKeySpace);
    const Bytes size = 64 + (Mix64(key) & 1023);
    const auto r = engine.Get(key, size, 1'000);
    if (!r.hit) engine.Set(key, size, 1'000);
  }
}

TEST(EngineAllocationTest, SteadyStateGetSetIsAllocationFree) {
  auto engine = MakeEngine("memcached", 8ULL * 1024 * 1024, SizeClassConfig{});
  Rng rng(7);
  // Warm until every pool reaches its structural maximum: the key space
  // oversubscribes the cache, so all classes saturate and the free lists,
  // node pools and index stop growing.
  Drive(*engine, rng, 400'000);

  const std::uint64_t before = test::AllocationCount();
  Drive(*engine, rng, 100'000);
  const std::uint64_t during =
      test::AllocationCount() - before;
  EXPECT_EQ(during, 0u)
      << "steady-state Get/Set allocated " << during << " times";
}

/// PAMA rebuilds per-segment Bloom filters at window boundaries — that is
/// allowed. What must not happen is allocation scaling with requests.
void ExpectAllocationsPerWindow(const char* scheme, std::uint64_t seed) {
  auto engine = MakeEngine(scheme, 8ULL * 1024 * 1024, SizeClassConfig{});
  Rng rng(seed);
  Drive(*engine, rng, 400'000);

  const std::uint64_t before = test::AllocationCount();
  constexpr std::uint64_t kRequests = 100'000;
  Drive(*engine, rng, kRequests);
  const std::uint64_t during =
      test::AllocationCount() - before;
  EXPECT_LT(during, kRequests / 100)
      << scheme << " hot path allocated " << during << " times in "
      << kRequests << " requests";
}

TEST(EngineAllocationTest, PamaAllocatesPerWindowNotPerRequest) {
  ExpectAllocationsPerWindow("pama", 11);
}

TEST(EngineAllocationTest, PamaExactAllocatesPerWindowNotPerRequest) {
  // Exact attribution queries a rank on every hit, so every stack carries
  // a rank index; it may grow only while its stack does.
  ExpectAllocationsPerWindow("pama-exact", 13);
}

}  // namespace
}  // namespace pamakv
