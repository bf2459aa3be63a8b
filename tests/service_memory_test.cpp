// Memory bound of the server's request path: whatever the key churn, the
// service's resident memory must follow its capacity, not the number of
// distinct keys it has ever seen. Ten capacities' worth of distinct 200 B
// values stream through CacheService (16 MiB over 4 shards, the server's
// default geometry), with the flash tier off and on, and RSS growth must
// stay within
//   capacity + 384 B x curr_items + 160 B x flash_items,
// i.e. the cached bytes themselves plus a fixed per-item overhead for the
// record, the engine's item and the flash index. An evicted key may keep
// only a ghost, which the engine preallocated before the measurement.
// Stored with a TTL, each store also leaves an expiry-wheel node until its
// deadline passes (cancellation is lazy), so that run allows 32 B per node
// on top: the node and its slot vector's slack, and no per-key map.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/sim/experiment.hpp"

namespace pamakv::net {
namespace {

namespace fs = std::filesystem;

constexpr Bytes kCapacity = 16ULL * 1024 * 1024;
constexpr std::size_t kShards = 4;
constexpr std::size_t kValueBytes = 200;

/// Resident set size of this process, from /proc/self/statm.
std::uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

void ChurnStaysWithinTheBound(const std::string& flash_dir,
                              std::int64_t exptime_s = 0) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // A sanitizer's allocator holds freed blocks in quarantine and adds
  // shadow memory, so RSS says nothing about the service's own bound.
  GTEST_SKIP() << "RSS bound is meaningless under a sanitizer allocator";
#endif
  CacheServiceConfig cfg;
  cfg.shards = kShards;
  cfg.capacity_bytes = kCapacity;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  std::unique_ptr<flash::FlashTier> tier;
  if (!flash_dir.empty()) {
    flash::FlashConfig fcfg;
    fcfg.dir = flash_dir;
    fcfg.shards = kShards;
    fcfg.segment_bytes = 4 * 1024 * 1024;
    // Room for every demotion: a full tier of all-live records would
    // garbage-collect on every store without reclaiming a byte.
    fcfg.cap_bytes = 16 * kCapacity;
    fcfg.io_thread = false;
    tier = std::make_unique<flash::FlashTier>(fcfg);
    service.AttachFlash(tier.get());
    service.RecoverFlash();
  }

  const std::uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  const std::string value(kValueBytes, 'v');
  const std::uint64_t keys = 10 * kCapacity / kValueBytes;
  for (std::uint64_t i = 0; i < keys; ++i) {
    service.Store(StoreVerb::kSet, "churn:key:" + std::to_string(i), 1'000,
                  exptime_s, value);
  }
  const std::uint64_t growth = ResidentBytes() - before;

  const std::uint64_t items = service.Totals().items;
  std::uint64_t flash_items = 0;
  for (std::size_t s = 0; tier != nullptr && s < kShards; ++s) {
    flash_items += tier->ItemCount(s);
  }
  const std::uint64_t nodes = service.Totals().wheel_nodes;
  const std::uint64_t bound =
      kCapacity + 384 * items + 160 * flash_items + 32 * nodes;
  std::fprintf(stderr,
               "# %llu keys: rss growth %.1f MiB, bound %.1f MiB "
               "(curr_items %llu, flash_items %llu, wheel nodes %llu)\n",
               static_cast<unsigned long long>(keys), growth / 1048576.0,
               bound / 1048576.0, static_cast<unsigned long long>(items),
               static_cast<unsigned long long>(flash_items),
               static_cast<unsigned long long>(nodes));
  EXPECT_GT(items, 0u);
  EXPECT_LE(growth, bound);
}

TEST(ServiceMemoryTest, KeyChurnRssFollowsCapacity) {
  ChurnStaysWithinTheBound("");
}

TEST(ServiceMemoryTest, KeyChurnWithTtlRssFollowsCapacity) {
  ChurnStaysWithinTheBound("", /*exptime_s=*/3'600);
}

TEST(ServiceMemoryTest, KeyChurnRssFollowsCapacityWithFlash) {
  struct TempDir {
    fs::path path = fs::temp_directory_path() /
                    ("pamakv-memtest-" + std::to_string(::getpid()));
    TempDir() { fs::create_directories(path); }
    ~TempDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } dir;
  ChurnStaysWithinTheBound(dir.path.string());
}

}  // namespace
}  // namespace pamakv::net
