// The interval fsync against the request path (DESIGN.md §13). The
// background thread's fdatasync runs outside the WAL mutex, so a store —
// which appends under the shard lock — never waits for the disk. Lives in
// the tsan-labelled binary: appends, interval syncs and a bgsave roll race
// on real threads here.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::persist {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-walsync-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A service with interval-fsync persistence over `dir`, recovered and
/// wired; the background thread is not started.
struct Node {
  std::unique_ptr<net::CacheService> service;
  std::unique_ptr<Persister> persister;
};

Node MakeNode(const std::string& dir, std::size_t shards,
              std::int64_t interval_ms) {
  Node node;
  net::CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = 64ULL * 1024 * 1024;
  node.service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir;
  pcfg.fsync_mode = FsyncMode::kInterval;
  pcfg.fsync_interval_ms = interval_ms;
  pcfg.snapshot_batch = 64;
  node.persister = std::make_unique<Persister>(*node.service, pcfg);
  node.persister->Recover();
  node.service->SetPersistence(node.persister.get());
  return node;
}

std::string Key(int writer, int i) {
  return "w" + std::to_string(writer) + ":" + std::to_string(i);
}

// Writers append on every shard while the interval thread syncs each
// millisecond and bgsave rolls every shard's WAL generation underneath
// them. Every acknowledged store must come back after a restart.
TEST(WalSyncTest, AppendsRaceIntervalSyncsAndSnapshotRoll) {
  constexpr int kWriters = 3;
  constexpr int kStores = 1'500;
  TempDir dir;
  {
    Node node = MakeNode(dir.path(), 4, /*interval_ms=*/1);
    node.persister->Start();
    std::atomic<bool> writing{true};
    std::thread saver([&] {
      while (writing.load()) {
        node.service->TriggerSnapshot();
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kStores; ++i) {
          ASSERT_EQ(node.service->Store(net::StoreVerb::kSet, Key(w, i), 1'000,
                                        0, "value-" + Key(w, i)),
                    net::StoreStatus::kStored);
        }
      });
    }
    for (auto& t : writers) t.join();
    writing.store(false);
    saver.join();
    node.persister->Stop();
    EXPECT_TRUE(node.persister->enabled());
  }
  Node warm = MakeNode(dir.path(), 4, 1);
  EXPECT_EQ(warm.service->ItemCount(),
            static_cast<std::uint64_t>(kWriters * kStores));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kStores; i += 97) {
      std::vector<char> out;
      ASSERT_TRUE(warm.service->Get(Key(w, i), out, false)) << Key(w, i);
      EXPECT_NE(std::string(out.data(), out.size()).find("value-" + Key(w, i)),
                std::string::npos);
    }
  }
}

#if PAMAKV_FAILPOINTS
// The persist.fsync seam holds the background sync for 200 ms. A store's
// WAL append issued meanwhile must not wait for it: before the sync moved
// outside the WAL mutex, it waited the whole 200 ms.
TEST(WalSyncTest, IntervalFsyncDoesNotStallStores) {
  TempDir dir;
  Node node = MakeNode(dir.path(), 1, /*interval_ms=*/5);
  ASSERT_EQ(node.service->Store(net::StoreVerb::kSet, "dirty", 1'000, 0, "x"),
            net::StoreStatus::kStored);
  ASSERT_TRUE(util::FailPoints::Arm("persist.fsync", "sleep:200"));
  const std::uint64_t trips0 = util::FailPoints::Trips("persist.fsync");
  node.persister->Start();
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (util::FailPoints::Trips("persist.fsync") == trips0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(util::FailPoints::Trips("persist.fsync"), trips0)
      << "the interval sync never ran";
  // The background thread is now inside the 200 ms fdatasync.
  WalStore rec;
  rec.key = "during-sync";
  rec.value = "y";
  const auto t0 = std::chrono::steady_clock::now();
  node.persister->OnStore(0, rec);
  const auto waited = std::chrono::steady_clock::now() - t0;
  util::FailPoints::DisableAll();
  node.persister->Stop();
  EXPECT_LT(waited, std::chrono::milliseconds(100))
      << "OnStore waited for the background fdatasync";
  EXPECT_TRUE(node.persister->enabled());
}
#endif  // PAMAKV_FAILPOINTS

}  // namespace
}  // namespace pamakv::persist
