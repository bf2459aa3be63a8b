// Connection-churn soak: many client threads connecting, issuing mixed
// operations, disconnecting abruptly (often mid-request), and
// reconnecting — against a live server with every lifecycle knob enabled.
// The pass criteria are resource-exactness, not throughput: zero leaked
// file descriptors (counted via /proc/self/fd across the server's whole
// lifetime), zero lost connections in the gauges, and self-consistent
// cache stats.
//
// Excluded from the default ctest run: it burns a few wall-clock seconds
// and its value is in CI's sanitizer jobs. Gate: set PAMAKV_SOAK=1 (the
// ctest `soak` label selects the binary; the env var arms it).

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::net {
namespace {

/// Open descriptors in this process, via /proc/self/fd. The readdir fd
/// itself is excluded, so two calls in the same state return equal counts.
std::size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  ::closedir(dir);
  return count - 1;  // the DIR* stream's own fd
}

TEST(NetSoakTest, ConnectionChurnLeaksNothing) {
  if (std::getenv("PAMAKV_SOAK") == nullptr) {
    GTEST_SKIP() << "set PAMAKV_SOAK=1 to run the soak test";
  }

  const std::size_t fds_before = OpenFdCount();
  std::uint64_t expected_gets = 0;
  std::uint64_t expected_sets = 0;

  {
    CacheServiceConfig cfg;
    cfg.shards = 4;
    cfg.capacity_bytes = 32ULL * 1024 * 1024;
    CacheService service(cfg, [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    });
    ServerConfig scfg;
    scfg.port = 0;
    scfg.threads = 2;
    scfg.max_conns = 64;
    scfg.idle_timeout_ms = 10'000;  // real clock; far beyond the test
    scfg.request_timeout_ms = 10'000;
    scfg.tx_pause_bytes = 64 * 1024;
    scfg.tx_resume_bytes = 16 * 1024;
    Server server(scfg, service);
    server.Start();

    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4'000;
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> sets{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(1'000 + static_cast<std::uint64_t>(t));
        BlockingClient client;
        client.Connect("127.0.0.1", server.port());
        std::string value;
        for (int i = 0; i < kOpsPerThread; ++i) {
          try {
            const std::uint64_t dice = rng.NextBounded(100);
            const std::string key =
                "soak:" + std::to_string(t) + ":" +
                std::to_string(rng.NextBounded(200));
            if (dice < 45) {
              if (client.Get(key, value)) {
                if (value.find("v:") != 0) {
                  failures.fetch_add(1, std::memory_order_relaxed);
                }
              }
              gets.fetch_add(1, std::memory_order_relaxed);
            } else if (dice < 85) {
              const std::size_t len = 8 + rng.NextBounded(4096);
              std::string payload = "v:" + std::string(len, 'p');
              if (!client.Set(key, 1'000, payload)) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
              sets.fetch_add(1, std::memory_order_relaxed);
            } else if (dice < 93) {
              client.Delete(key);
            } else if (dice < 97) {
              // Abrupt mid-request disconnect: the server must unwind the
              // half-parsed state without leaking the connection.
              client.SendRaw("set " + key + " 0 0 512\r\npartial");
              client.Close();
              client.Connect("127.0.0.1", server.port());
            } else {
              // Polite goodbye, then reconnect.
              client.SendRaw("quit\r\n");
              client.Close();
              client.Connect("127.0.0.1", server.port());
            }
          } catch (const ClientError&) {
            // A reaped/shed connection is legal under churn; reconnect.
            client.Close();
            client.Connect("127.0.0.1", server.port());
          }
        }
        client.Close();
      });
    }
    for (auto& w : workers) w.join();
    expected_gets = gets.load();
    expected_sets = sets.load();
    EXPECT_EQ(failures.load(), 0);

    // All clients hung up; the server notices every EOF.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (server.curr_connections() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(server.curr_connections(), 0u);
    EXPECT_GE(server.total_connections(), static_cast<std::uint64_t>(kThreads));

    // The server may have executed an op whose response a dying client
    // never credited, so server counts dominate client counts; the wire
    // numbers must still reconcile with themselves exactly.
    const CacheStats totals = service.Totals().stats;
    EXPECT_GE(totals.gets, expected_gets);
    EXPECT_EQ(totals.get_hits + totals.get_misses, totals.gets);
    EXPECT_GE(totals.sets, expected_sets);

    server.Stop();
  }

  // Server, service and every connection are gone: fd-exact.
  EXPECT_EQ(OpenFdCount(), fds_before);
}

}  // namespace
}  // namespace pamakv::net
