// Metrics surfaces pin: a fixed conversation against a 2-shard pama
// CacheService with a flash tier, its metrics and a Server's metrics
// registered on one registry, all under a FakeClock. The conversation
// evicts, migrates a slab, demotes to flash, serves a flash hit, and runs
// touch, incr, cas and delete. Afterwards the `stats` reply, the `stats
// detail` reply and RenderPrometheus() must match
// tests/golden/metrics_surfaces.golden byte for byte: every name, label,
// order and value on the three surfaces. The flash hit is served inline
// from the page cache, as on any filesystem whose fresh pages
// preadv2(RWF_NOWAIT) can read. Runs under the `metrics` ctest label.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/net/metrics_http.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kUnixBase = 1'700'000'000;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-metrics-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The node under test. Members are declared in dependency order, so the
/// registry, which reads the service and the server, is destroyed first.
struct Node {
  util::FakeClock clock;
  TempDir dir;
  std::unique_ptr<flash::FlashTier> tier;
  std::unique_ptr<CacheService> service;
  std::unique_ptr<Server> server;
  util::MetricsRegistry registry;

  Node() {
    clock.SetWallBase(kUnixBase * 1'000'000'000);
    CacheServiceConfig cfg;
    cfg.shards = 2;
    cfg.capacity_bytes = 512 * 1024;  // 4 slabs of 64 KiB per shard
    cfg.clock = &clock;
    cfg.unix_now_s = kUnixBase;
    // No donor grace: a slab can move as soon as the values say so, which
    // keeps the conversation short.
    SchemeOptions options;
    options.pama.donor_grace_accesses = 0;
    service = std::make_unique<CacheService>(cfg, [options](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{}, options);
    });
    flash::FlashConfig fcfg;
    fcfg.dir = dir.path();
    fcfg.shards = 2;
    fcfg.segment_bytes = 64 * 1024;
    fcfg.cap_bytes = 8 * 1024 * 1024;
    fcfg.io_thread = false;
    tier = std::make_unique<flash::FlashTier>(fcfg);
    service->AttachFlash(tier.get());
    service->RecoverFlash();
    ServerConfig scfg;
    scfg.port = 0;
    scfg.clock = &clock;
    server = std::make_unique<Server>(scfg, *service);
    service->RegisterMetrics(registry);
    server->EnableMetrics(registry);
  }

  /// Sends `request` through a fresh Connection (no IO thread, no home
  /// loop: a parked read would run inline) and returns its reply.
  std::string Exchange(const std::string& request) {
    Connection conn(*service);
    conn.Ingest(request.data(), request.size());
    return std::string(conn.pending_output());
  }
};

std::string SetLine(const std::string& key, std::uint32_t flags,
                    const std::string& value) {
  return "set " + key + " " + std::to_string(flags) + " 0 " +
         std::to_string(value.size()) + " noreply\r\n" + value + "\r\n";
}

/// The fixed conversation. Returns the replies of the verbs it checks.
std::string Converse(Node& node) {
  // touch, incr, cas and delete while the pools still have free slabs.
  std::string replies;
  replies += node.Exchange("set ttl 7 0 3\r\nabc\r\ntouch ttl 3600\r\n");
  replies += node.Exchange("set n 0 0 2\r\n41\r\nincr n 1\r\ndecr n 100\r\n");
  replies += node.Exchange("incr missing 1\r\n");
  const std::string gets = node.Exchange("gets n\r\n");
  replies += gets;
  const std::size_t eol = gets.find("\r\n");
  const std::size_t sp = gets.rfind(' ', eol);
  const std::string cas_unique = gets.substr(sp + 1, eol - sp - 1);
  replies += node.Exchange("cas n 0 0 1 " + cas_unique + "\r\n7\r\n");
  replies += node.Exchange("cas n 0 0 1 " + cas_unique + "\r\n8\r\n");
  replies += node.Exchange("cas nope 0 0 1 1\r\n9\r\n");
  replies += node.Exchange("delete n\r\ndelete n\r\n");
  node.clock.Advance(std::chrono::seconds(1));

  // Fill both shards with low-penalty 200 B items: the free slabs go to
  // one (class, band), then stores evict and demote to flash.
  const std::string small(200, 's');
  std::string req;
  for (int i = 0; i < 3000; ++i) {
    req += SetLine("lo:" + std::to_string(i), 100, small);
  }
  node.Exchange(req);
  node.clock.Advance(std::chrono::seconds(1));

  // High-penalty 900 B items in another class find no slab: refused and
  // ghosted. Their misses raise the requester's incoming value, and the
  // next round of stores takes slabs from the cold low band.
  const std::string big(900, 'b');
  for (int round = 0; round < 3; ++round) {
    req.clear();
    for (int i = 0; i < 200; ++i) {
      req += SetLine("hi:" + std::to_string(i), 400'000, big);
    }
    for (int i = 0; i < 200; ++i) req += "get hi:" + std::to_string(i) + "\r\n";
    node.Exchange(req);
    node.clock.Advance(std::chrono::seconds(1));
  }

  // A flash hit: the oldest low-band key was demoted long ago.
  replies += node.Exchange("get lo:0\r\n");
  return replies;
}

/// The three surfaces after the conversation, as golden parts.
std::vector<std::pair<std::string, std::string>> Surfaces(Node& node) {
  return {
      {"stats", test::WithoutFailpointStats(node.Exchange("stats\r\n"))},
      {"stats_detail",
       test::WithoutFailpointStats(node.Exchange("stats detail\r\n"))},
      {"prometheus", node.registry.Snapshot().RenderPrometheus()},
  };
}

/// Minimal blocking HTTP/1.0 GET of /metrics on 127.0.0.1:`port`; returns
/// the body ("" on any failure).
std::string ScrapeMetrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::write(fd, req.data(), req.size()) ==
          static_cast<ssize_t>(req.size())) {
    char buf[4096];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::uint64_t StatValue(const std::string& stats, const std::string& name) {
  const std::string needle = "STAT " + name + " ";
  const std::size_t pos = stats.find(needle);
  if (pos == std::string::npos) return 0;
  return std::stoull(stats.substr(pos + needle.size()));
}

TEST(MetricsSurfacesTest, ConversationMatchesGolden) {
  Node node;
  const std::string replies = Converse(node);
  EXPECT_NE(replies.find("VALUE lo:0 100 200\r\n"), std::string::npos);
  EXPECT_NE(replies.find("TOUCHED\r\n"), std::string::npos);
  EXPECT_NE(replies.find("42\r\n0\r\n"), std::string::npos);
  EXPECT_NE(replies.find("STORED\r\nEXISTS\r\nNOT_FOUND\r\n"),
            std::string::npos);
  EXPECT_NE(replies.find("DELETED\r\nNOT_FOUND\r\n"), std::string::npos);

  const auto surfaces = Surfaces(node);
  // The conversation did what the pin is for.
  const std::string& stats = surfaces[0].second;
  EXPECT_GT(StatValue(stats, "evictions"), 0u);
  EXPECT_GT(StatValue(stats, "slab_migrations"), 0u);
  EXPECT_GT(StatValue(stats, "flash_demotes"), 0u);
  EXPECT_EQ(StatValue(stats, "flash_hits"), 1u);
  EXPECT_EQ(StatValue(stats, "flash_cached_reads"), 1u);

  const test::Golden golden("metrics_surfaces.golden");
  for (const auto& [part, bytes] : surfaces) {
    EXPECT_EQ(bytes, golden.at(part)) << part;
  }
}

TEST(MetricsSurfacesTest, DumpWritesHeaderOnceAndOneRowPerSeries) {
  Node node;
  Converse(node);
  MetricsHttpConfig mcfg;
  mcfg.port = 0;
  mcfg.dump_ms = 100;
  mcfg.dump_path = node.dir.path() + "/dump/metrics.csv";
  mcfg.clock = &node.clock;
  MetricsHttpServer http(mcfg, node.registry);
  http.Start();
  // The dump timer is armed by a task posted to the exporter's loop
  // before any connection; a served scrape shows that task has run, so
  // one period from here fires exactly one dump. The scrape is the same
  // exposition the golden pins.
  EXPECT_EQ(ScrapeMetrics(http.port()),
            node.registry.Snapshot().RenderPrometheus());
  node.clock.Advance(std::chrono::milliseconds(100));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (http.dumps() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  http.Stop();
  ASSERT_EQ(http.dumps(), 1u);

  std::ifstream in(mcfg.dump_path);
  const std::string csv((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::string expected = "elapsed_ms,metric,value\n";
  node.registry.Snapshot().AppendCsv(expected, 100);
  EXPECT_EQ(csv, expected);
  std::vector<char> lines;
  node.registry.Snapshot().AppendStatLines(lines);
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows - 1, std::count(lines.begin(), lines.end(), '\n'));
}

}  // namespace
}  // namespace pamakv::net
