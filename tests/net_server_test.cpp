// In-process integration tests: a real Server on an ephemeral port, a real
// BlockingClient over TCP. The client implements the protocol independently
// of the server's parser so the two ends of the wire don't share bugs.
//
// Lifecycle tests (idle reap, request deadline, drain grace) inject a
// FakeClock: timeouts trigger on clock_.Advance(), never on wall time, so
// every boundary is exact and no test sleeps through its own timeout. The
// only waiting is WaitUntil() — cross-thread observation of counters that
// the loop thread has already been told (by the clock) to bump.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/net/metrics_http.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {
namespace {

using namespace std::chrono_literals;

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if PAMAKV_FAILPOINTS
    // Failpoints are process-global; a test that died mid-storm must not
    // poison its successors.
    util::FailPoints::DisableAll();
#endif
  }

  /// Starts a server on an ephemeral port over `scheme` engines. Lifecycle
  /// knobs go through scfg_ (set before calling); the fixture's FakeClock
  /// is always injected, so timeouts only ever fire via clock_.Advance().
  void StartServer(const std::string& scheme = "memcached",
                   std::size_t threads = 1, std::size_t shards = 2,
                   bool with_metrics = false) {
    CacheServiceConfig cfg;
    cfg.shards = shards;
    cfg.capacity_bytes = 64ULL * 1024 * 1024;
    // The service shares the fixture's FakeClock, so TTL expiry (like the
    // lifecycle timeouts) only ever advances via clock_.Advance().
    cfg.clock = &clock_;
    service_ = std::make_unique<CacheService>(cfg, [&](Bytes bytes) {
      return MakeEngine(scheme, bytes, SizeClassConfig{});
    });
    scfg_.port = 0;  // ephemeral
    scfg_.threads = threads;
    scfg_.clock = &clock_;
    server_ = std::make_unique<Server>(scfg_, *service_);
    if (with_metrics) {
      service_->RegisterMetrics(registry_);
      server_->EnableMetrics(registry_);
    }
    server_->Start();
  }

  BlockingClient Connect() {
    BlockingClient client;
    client.Connect("127.0.0.1", server_->port());
    return client;
  }

  /// Observation-only spin: waits for a loop-thread-side effect to become
  /// visible. Never used to let a timeout elapse — that is Advance()'s job.
  static bool WaitUntil(const std::function<bool()>& pred) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(200us);
    }
    return pred();
  }

  /// Expects the next read on `client` to fail with a connection-level
  /// ClientError (the server closed or reset the socket).
  static void ExpectConnectionGone(BlockingClient& client) {
    try {
      client.ReadLine();
      FAIL() << "expected the server to have closed the connection";
    } catch (const ClientError& e) {
      EXPECT_TRUE(e.kind() == ClientError::Kind::kConnectionClosed ||
                  e.kind() == ClientError::Kind::kConnectionReset ||
                  e.kind() == ClientError::Kind::kShortRead)
          << e.what();
    }
  }

  static std::uint64_t Stat(
      const std::vector<std::pair<std::string, std::uint64_t>>& stats,
      const std::string& name) {
    for (const auto& [k, v] : stats) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "stat " << name << " missing";
    return 0;
  }

  util::FakeClock clock_;
  ServerConfig scfg_;
  util::MetricsRegistry registry_;
  std::unique_ptr<CacheService> service_;
  std::unique_ptr<Server> server_;
};

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1:`port`. Returns the
/// body; fills `head_out` with the status line + headers when non-null.
std::string HttpGet(std::uint16_t port, const std::string& path,
                    std::string* head_out = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
  for (std::size_t off = 0; off < req.size();) {
    const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto split = response.find("\r\n\r\n");
  if (split == std::string::npos) return "";
  if (head_out != nullptr) *head_out = response.substr(0, split);
  return response.substr(split + 4);
}

/// Parses Prometheus exposition text into series -> value-string. Skips
/// comment lines; keys are the full series spelling (name + label set).
std::map<std::string, std::string> ParseExposition(const std::string& body) {
  std::map<std::string, std::string> series;
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    series[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return series;
}

TEST_F(ServerTest, SetGetDeleteRoundTrip) {
  StartServer();
  auto client = Connect();

  // Miss on a cold key.
  std::string value;
  EXPECT_FALSE(client.Get("alpha", value));

  // Store and read back; flags carry the miss penalty and must echo.
  ASSERT_TRUE(client.Set("alpha", 2'500, "hello world"));
  std::uint32_t flags = 0;
  ASSERT_TRUE(client.Get("alpha", value, &flags));
  EXPECT_EQ(value, "hello world");
  EXPECT_EQ(flags, 2'500u);

  // Overwrite changes the value in place.
  ASSERT_TRUE(client.Set("alpha", 2'500, "second"));
  ASSERT_TRUE(client.Get("alpha", value));
  EXPECT_EQ(value, "second");

  // Delete, then the key misses again.
  EXPECT_TRUE(client.Delete("alpha"));
  EXPECT_FALSE(client.Delete("alpha"));
  EXPECT_FALSE(client.Get("alpha", value));
}

TEST_F(ServerTest, BinaryValuesSurviveTheWire) {
  StartServer();
  auto client = Connect();
  const std::string value("\r\nEND\r\nVALUE x 0 0\r\n\0\xff", 22);
  ASSERT_TRUE(client.Set("bin", 0, value));
  std::string got;
  ASSERT_TRUE(client.Get("bin", got));
  EXPECT_EQ(got, value);
}

TEST_F(ServerTest, MultiGetAndCas) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("a", 1, "one"));
  ASSERT_TRUE(client.Set("b", 2, "two"));

  // Multi-get returns hits in request order, silently skips misses.
  client.SendRaw("get a miss b\r\n");
  EXPECT_EQ(client.ReadLine(), "VALUE a 1 3");
  EXPECT_EQ(client.ReadLine(), "one");
  EXPECT_EQ(client.ReadLine(), "VALUE b 2 3");
  EXPECT_EQ(client.ReadLine(), "two");
  EXPECT_EQ(client.ReadLine(), "END");

  // gets includes a CAS stamp that changes on overwrite.
  client.SendRaw("gets a\r\n");
  const std::string first = client.ReadLine();
  ASSERT_TRUE(first.rfind("VALUE a 1 3 ", 0) == 0) << first;
  client.ReadLine();  // value
  EXPECT_EQ(client.ReadLine(), "END");
  ASSERT_TRUE(client.Set("a", 1, "ONE"));
  client.SendRaw("gets a\r\n");
  const std::string second = client.ReadLine();
  client.ReadLine();
  EXPECT_EQ(client.ReadLine(), "END");
  EXPECT_NE(first, second);
}

TEST_F(ServerTest, StatsMatchServiceTotals) {
  StartServer("pama");
  auto client = Connect();

  ASSERT_TRUE(client.Set("x", 10'000, "xxxx"));
  ASSERT_TRUE(client.Set("y", 100'000, "yyyyyyyy"));
  std::string value;
  EXPECT_TRUE(client.Get("x", value));
  EXPECT_TRUE(client.Get("y", value));
  EXPECT_FALSE(client.Get("z", value));
  EXPECT_TRUE(client.Delete("y"));

  const auto stats = client.Stats();
  const CacheStats totals = service_->Totals().stats;
  EXPECT_EQ(Stat(stats, "cmd_get"), totals.gets);
  EXPECT_EQ(Stat(stats, "cmd_set"), totals.sets);
  EXPECT_EQ(Stat(stats, "get_hits"), totals.get_hits);
  EXPECT_EQ(Stat(stats, "get_misses"), totals.get_misses);
  EXPECT_EQ(Stat(stats, "bytes"), totals.bytes_stored);
  EXPECT_EQ(Stat(stats, "evictions"), totals.evictions);
  EXPECT_EQ(Stat(stats, "curr_items"), service_->Totals().items);
  EXPECT_EQ(Stat(stats, "shards"), service_->shard_count());
  EXPECT_EQ(Stat(stats, "hash_collisions_resolved"), 0u);

  // The wire numbers reconcile with themselves too.
  EXPECT_EQ(Stat(stats, "cmd_get"), 3u);
  EXPECT_EQ(Stat(stats, "get_hits"), 2u);
  EXPECT_EQ(Stat(stats, "get_misses"), 1u);
  EXPECT_EQ(Stat(stats, "curr_items"), 1u);  // x remains
}

TEST_F(ServerTest, FlushAllVersionQuit) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("k1", 0, "v1"));
  ASSERT_TRUE(client.Set("k2", 0, "v2"));
  EXPECT_EQ(service_->Totals().items, 2u);
  client.FlushAll();
  // flush_all is an epoch cutover, not a synchronous wipe: the items die
  // lazily, so the count only drops as the dead entries are touched.
  std::string value;
  EXPECT_FALSE(client.Get("k1", value));
  EXPECT_FALSE(client.Get("k2", value));
  EXPECT_EQ(service_->Totals().items, 0u);

  EXPECT_EQ(client.Version(), "pamakv-0.2");

  client.SendRaw("quit\r\n");
  // The server closes; the next read hits EOF.
  EXPECT_THROW(client.ReadLine(), std::exception);
}

TEST_F(ServerTest, NoreplySetIsSilent) {
  StartServer();
  auto client = Connect();
  client.SendRaw("set quiet 7 0 2 noreply\r\nqq\r\nget quiet\r\n");
  // No STORED line: the first thing back is the VALUE block.
  EXPECT_EQ(client.ReadLine(), "VALUE quiet 7 2");
  EXPECT_EQ(client.ReadLine(), "qq");
  EXPECT_EQ(client.ReadLine(), "END");
}

TEST_F(ServerTest, ManyConnectionsAcrossLoopThreads) {
  StartServer("pama", /*threads=*/2, /*shards=*/4);
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 300;
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this, c] {
      auto client = Connect();
      std::string value;
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key =
            "k:" + std::to_string(c) + ":" + std::to_string(i % 50);
        if (!client.Get(key, value)) {
          ASSERT_TRUE(client.Set(key, 1'000, "payload-" + key));
        } else {
          ASSERT_EQ(value, "payload-" + key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(server_->total_connections(), kClients);
  const CacheStats totals = service_->Totals().stats;
  EXPECT_EQ(totals.gets, kClients * kOpsPerClient);
  EXPECT_EQ(totals.get_hits + totals.get_misses, totals.gets);
  // 50 distinct keys per client, all re-hit after first touch.
  EXPECT_EQ(totals.get_misses, kClients * 50u);
}

TEST_F(ServerTest, ServerSurvivesAbruptDisconnect) {
  StartServer();
  {
    auto client = Connect();
    client.SendRaw("set dangling 0 0 100\r\n");  // half a command, then gone
  }
  auto client = Connect();
  ASSERT_TRUE(client.Set("after", 0, "ok"));
  std::string value;
  ASSERT_TRUE(client.Get("after", value));
  EXPECT_EQ(value, "ok");
}

// ---------------------------------------------------------------------------
// Connection lifecycle under the fake clock.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, IdleConnectionReapedAtExactTimeout) {
  scfg_.idle_timeout_ms = 500;
  StartServer();

  // `idle` goes quiet at fake-time 0; `prober` keeps round-tripping, which
  // both refreshes its own activity and proves the loop made progress
  // after each Advance without touching `idle`.
  auto idle = Connect();
  auto prober = Connect();
  EXPECT_EQ(idle.Version(), "pamakv-0.2");
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 2; }));

  // One tick short of the deadline: nothing is reaped. The prober
  // round-trip after Advance guarantees the loop ran a full dispatch
  // round (whose timer sweep saw the advanced clock) before we assert.
  clock_.Advance(499ms);
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->timed_out_connections(), 0u);
  EXPECT_EQ(server_->curr_connections(), 2u);

  // Crossing the exact deadline (fake-time 500ms) reaps `idle` — and only
  // `idle`: the prober refreshed itself at 499ms.
  clock_.Advance(1ms);
  ASSERT_TRUE(WaitUntil([&] { return server_->timed_out_connections() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 1; }));
  ExpectConnectionGone(idle);
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
}

TEST_F(ServerTest, RequestDeadlineClosesStalledRequest) {
  scfg_.request_timeout_ms = 400;  // idle timeout stays off
  StartServer();

  auto staller = Connect();
  auto prober = Connect();
  EXPECT_EQ(prober.Version(), "pamakv-0.2");

  // A set whose payload never finishes: header + 5 of 10 value bytes.
  staller.SendRaw("set stall 0 0 10\r\nhello");
  ASSERT_TRUE(WaitUntil([&] { return server_->MidRequestConnections() == 1; }));

  clock_.Advance(399ms);
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->timed_out_connections(), 0u);

  clock_.Advance(2ms);
  ASSERT_TRUE(WaitUntil([&] { return server_->timed_out_connections() == 1; }));
  ExpectConnectionGone(staller);

  // The prober was never mid-request, so the deadline does not apply to
  // it; completed requests clear the deadline too.
  EXPECT_TRUE(prober.Set("fine", 0, "value"));
  clock_.Advance(10s);
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 1; }));
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->timed_out_connections(), 1u);
}

TEST_F(ServerTest, BackpressurePausesAndResumesReading) {
  scfg_.tx_pause_bytes = 64 * 1024;
  scfg_.tx_resume_bytes = 16 * 1024;
  StartServer();

  auto client = Connect();
  // 24 KiB fits the largest slab slot (16B × 2^11 = 32 KiB classes).
  const std::string big(24 * 1024, 'B');
  ASSERT_TRUE(client.Set("big", 7, big));

  // Pipeline far more response bytes than kernel buffers absorb while the
  // client reads nothing: the unsent backlog must cross the high-water
  // mark and the server must stop reading (EPOLLIN off) until we drain.
  constexpr int kGets = 400;  // ~9.6 MiB of responses
  std::string pipeline;
  for (int i = 0; i < kGets; ++i) pipeline += "get big\r\n";
  client.SendRaw(pipeline);
  ASSERT_TRUE(WaitUntil([&] { return server_->backpressure_pauses() >= 1; }));

  // Drain: every pipelined response arrives complete and in order — the
  // pause deferred work, it lost none of it.
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(client.ReadLine(), "VALUE big 7 24576") << "response " << i;
    std::string value;
    client.ReadExact(value, big.size());
    ASSERT_EQ(value.size(), big.size());
    ASSERT_TRUE(value == big) << "payload corrupted in response " << i;
    ASSERT_EQ(client.ReadLine(), "");  // CRLF after the data block
    ASSERT_EQ(client.ReadLine(), "END");
  }
  ASSERT_TRUE(WaitUntil([&] { return server_->backpressure_resumes() >= 1; }));

  // Reading resumed: the connection serves new requests.
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->overflow_closes(), 0u);
}

TEST_F(ServerTest, TxCapHardClosesUnboundedBacklog) {
  scfg_.tx_pause_bytes = 0;  // no pause: backlog grows without bound...
  scfg_.tx_cap_bytes = 1024 * 1024;  // ...until the cap cuts the client off
  StartServer();

  auto client = Connect();
  const std::string big(24 * 1024, 'C');
  ASSERT_TRUE(client.Set("big", 0, big));

  std::string pipeline;
  for (int i = 0; i < 1'000; ++i) pipeline += "get big\r\n";  // ~24 MiB out
  client.SendRaw(pipeline);
  ASSERT_TRUE(WaitUntil([&] { return server_->overflow_closes() == 1; }));

  // The socket is gone; reading ends in a connection-level error (some
  // already-flushed responses may arrive first).
  try {
    while (true) {
      client.ReadLine();
    }
  } catch (const ClientError& e) {
    EXPECT_TRUE(e.kind() == ClientError::Kind::kConnectionClosed ||
                e.kind() == ClientError::Kind::kConnectionReset ||
                e.kind() == ClientError::Kind::kShortRead)
        << e.what();
  }
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 0; }));
}

TEST_F(ServerTest, MaxConnsShedsWithServerError) {
  scfg_.max_conns = 2;
  StartServer();

  auto a = Connect();
  auto b = Connect();
  EXPECT_EQ(a.Version(), "pamakv-0.2");
  EXPECT_EQ(b.Version(), "pamakv-0.2");
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 2; }));

  // The third connection is told why before being closed.
  {
    auto c = Connect();
    EXPECT_EQ(c.ReadLine(), "SERVER_ERROR too many connections");
    ExpectConnectionGone(c);
  }
  EXPECT_EQ(server_->rejected_connections(), 1u);

  // Established connections are unaffected, and a freed slot is reusable.
  EXPECT_EQ(a.Version(), "pamakv-0.2");
  b.Close();
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 1; }));
  auto d = Connect();
  EXPECT_EQ(d.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->rejected_connections(), 1u);
}

TEST_F(ServerTest, GracefulShutdownCompletesInFlightRequest) {
  StartServer();

  auto busy = Connect();
  auto quiet = Connect();
  EXPECT_EQ(quiet.Version(), "pamakv-0.2");

  // `busy` is mid-set when the drain starts: header + half the payload.
  busy.SendRaw("set last 0 0 10\r\nhello");
  ASSERT_TRUE(WaitUntil([&] { return server_->MidRequestConnections() == 1; }));

  bool clean = false;
  std::thread shutdown([&] {
    clean = server_->Shutdown(std::chrono::milliseconds(60'000));
  });
  ASSERT_TRUE(WaitUntil([&] { return server_->draining(); }));

  // The quiescent connection was closed by the drain sweep...
  ExpectConnectionGone(quiet);
  // ...while the in-flight one still gets to finish and see its reply.
  busy.SendRaw("world\r\n");
  EXPECT_EQ(busy.ReadLine(), "STORED");
  ExpectConnectionGone(busy);  // then closed, now quiescent

  shutdown.join();
  EXPECT_TRUE(clean) << "drain should complete without force-closing";
  EXPECT_EQ(service_->Totals().stats.sets, 1u);  // the last set landed
}

TEST_F(ServerTest, ShutdownForceClosesAfterGraceExpires) {
  StartServer();

  auto staller = Connect();
  staller.SendRaw("set never 0 0 10\r\nhel");  // never completed
  ASSERT_TRUE(WaitUntil([&] { return server_->MidRequestConnections() == 1; }));

  bool clean = true;
  std::thread shutdown([&] {
    clean = server_->Shutdown(std::chrono::milliseconds(250));
  });
  // draining() flips only after every loop armed its grace timer, so this
  // Advance is guaranteed to cross an armed deadline.
  ASSERT_TRUE(WaitUntil([&] { return server_->draining(); }));
  clock_.Advance(251ms);

  shutdown.join();
  EXPECT_FALSE(clean) << "an unfinished request must force the drain";
  ExpectConnectionGone(staller);
  EXPECT_EQ(service_->Totals().stats.sets, 0u);
}

TEST_F(ServerTest, StatsExposeLifecycleCounters) {
  scfg_.max_conns = 1;
  StartServer();
  auto client = Connect();
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  {
    auto shed = Connect();
    EXPECT_EQ(shed.ReadLine(), "SERVER_ERROR too many connections");
  }
  ASSERT_TRUE(WaitUntil([&] { return server_->rejected_connections() == 1; }));

  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "curr_connections"), 1u);
  EXPECT_EQ(Stat(stats, "total_connections"), 1u);
  EXPECT_EQ(Stat(stats, "rejected_connections"), 1u);
  EXPECT_EQ(Stat(stats, "timed_out_connections"), 0u);
  EXPECT_EQ(Stat(stats, "overflow_closes"), 0u);
  EXPECT_EQ(Stat(stats, "backpressure_pauses"), 0u);
  EXPECT_EQ(Stat(stats, "backpressure_resumes"), 0u);
}

TEST_F(ServerTest, RetryPolicyReconnectsAfterIdleReap) {
  scfg_.idle_timeout_ms = 500;
  StartServer();

  BlockingClient client;
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_base = std::chrono::milliseconds(0);  // no sleeping in tests
  client.set_retry_policy(policy);
  client.Connect("127.0.0.1", server_->port());
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  // The prober round trip serializes behind the client's post-I/O
  // activity stamp on the loop thread — without it, Advance below could
  // slip between the client's reply and its Touch, moving the idle
  // deadline past the jump.
  auto prober = Connect();
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 2; }));

  // The prober refreshes itself at 499ms; the retrying client last spoke
  // at 0ms, so crossing 500ms reaps it — and only it. The client doesn't
  // know yet.
  clock_.Advance(499ms);
  EXPECT_EQ(prober.Version(), "pamakv-0.2");
  clock_.Advance(2ms);
  ASSERT_TRUE(
      WaitUntil([&] { return server_->timed_out_connections() == 1; }));
  ASSERT_TRUE(WaitUntil([&] { return server_->curr_connections() == 1; }));

  // The next operation hits the dead socket, reconnects under the policy,
  // and completes transparently — the caller never sees the outage.
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  EXPECT_EQ(server_->total_connections(), 3u);
}

// ---------------------------------------------------------------------------
// Fault injection (chaos builds only). Each test arms named failpoints in
// the server's syscall/allocation seams and asserts the hardening holds:
// no lost responses, no leaked fds, no inconsistent cache state.
// ---------------------------------------------------------------------------

#if PAMAKV_FAILPOINTS

/// Open descriptors in this process, via /proc/self/fd.
std::size_t OpenFdCount() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n >= 3 ? n - 3 : 0;  // ".", "..", and the dirfd itself
}

TEST_F(ServerTest, EmfileAcceptShedsPausesAndRecovers) {
  scfg_.accept_retry_ms = 10;
  StartServer();

  // Five consecutive EMFILEs from accept4: the first pair (accept + shed's
  // accept) forces pause #1, the next pair pause #2, the fifth exhausts
  // the spec mid-shed so the shed's accept goes through for real.
  ASSERT_TRUE(util::FailPoints::Arm("net.accept4", "EMFILE@x5"));

  // The kernel completes this handshake into the backlog even though the
  // server cannot accept it yet.
  auto victim = Connect();
  ASSERT_TRUE(WaitUntil([&] { return server_->accept_pauses() == 1; }));

  // While paused the loop must sleep, not spin: over 100ms of real time it
  // may wake a handful of times (the pending fake-timer's epoll timeout),
  // never thousands.
  const std::uint64_t cycles_before = server_->LoopIterations();
  std::this_thread::sleep_for(100ms);
  EXPECT_LT(server_->LoopIterations() - cycles_before, 50u)
      << "accept pause is busy-spinning the event loop";

  clock_.Advance(11ms);  // retry #1: still EMFILE, pause again
  ASSERT_TRUE(WaitUntil([&] { return server_->accept_pauses() == 2; }));

  clock_.Advance(11ms);  // retry #2: spec exhausts mid-shed -> shed lands
  ASSERT_TRUE(WaitUntil([&] { return server_->emfile_sheds() == 1; }));

  // The shed connection was told why, then closed.
  EXPECT_EQ(victim.ReadLine(), "SERVER_ERROR out of file descriptors");
  ExpectConnectionGone(victim);

  // Accepting has fully recovered, and the storm shows up in stats.
  auto client = Connect();
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "emfile_sheds"), 1u);
  EXPECT_EQ(Stat(stats, "accept_pauses"), 2u);
  EXPECT_EQ(Stat(stats, "failpoint.net.accept4"), 5u);
}

TEST_F(ServerTest, OneByteWritesDeliverPipelinedResponsesIntact) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 3, "payload"));

  // Every server-side write now moves exactly one byte; each response
  // dribbles out over dozens of EPOLLOUT resumptions.
  ASSERT_TRUE(util::FailPoints::Arm("net.writev", "short:1"));
  constexpr int kGets = 400;
  std::string pipeline;
  for (int i = 0; i < kGets; ++i) pipeline += "get k\r\n";
  client.SendRaw(pipeline);

  // Byte-identical responses, in order, nothing dropped or duplicated.
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(client.ReadLine(), "VALUE k 3 7") << "response " << i;
    ASSERT_EQ(client.ReadLine(), "payload") << "response " << i;
    ASSERT_EQ(client.ReadLine(), "END") << "response " << i;
  }
  util::FailPoints::DisableAll();
  EXPECT_GT(util::FailPoints::Trips("net.writev"), 1000u);
  EXPECT_EQ(client.Version(), "pamakv-0.2");
}

TEST_F(ServerTest, OomDuringStoreAnswersServerErrorAndRollsBack) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("resident", 1, "untouchable"));
  const auto before = client.Stats();

  // The service-layer allocation (key/value string storage) fails once.
  ASSERT_TRUE(util::FailPoints::Arm("svc.store_bytes", "oom@once"));
  try {
    client.Set("victim", 0, "value");
    FAIL() << "expected SERVER_ERROR";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kServerError);
    EXPECT_STREQ(e.what(), "SERVER_ERROR out of memory storing object");
  }
  util::FailPoints::DisableAll();

  // The failed store is invisible (gauges unchanged), the connection
  // stayed up, and the same Set succeeds afterwards.
  const auto after = client.Stats();
  EXPECT_EQ(Stat(after, "bytes"), Stat(before, "bytes"));
  EXPECT_EQ(Stat(after, "curr_items"), Stat(before, "curr_items"));
  EXPECT_EQ(Stat(after, "failpoint.svc.store_bytes"), 1u);
  std::string value;
  ASSERT_TRUE(client.Get("resident", value));
  EXPECT_EQ(value, "untouchable");
  ASSERT_TRUE(client.Set("victim", 0, "value"));
  ASSERT_TRUE(client.Get("victim", value));
  EXPECT_EQ(value, "value");
}

TEST_F(ServerTest, OomInEngineItemTableAlsoAnswersServerError) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("resident", 1, "untouchable"));
  const auto before = client.Stats();

  // Deeper seam: the engine's item-table growth throws while the service
  // layer has already resolved the shard — rollback must span both layers.
  ASSERT_TRUE(util::FailPoints::Arm("engine.item_alloc", "oom@once"));
  try {
    client.Set("victim", 0, "value");
    FAIL() << "expected SERVER_ERROR";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kServerError);
  }
  util::FailPoints::DisableAll();

  const auto after = client.Stats();
  EXPECT_EQ(Stat(after, "bytes"), Stat(before, "bytes"));
  EXPECT_EQ(Stat(after, "curr_items"), Stat(before, "curr_items"));
  std::string value;
  EXPECT_FALSE(client.Get("victim", value));
  ASSERT_TRUE(client.Set("victim", 0, "value"));
  ASSERT_TRUE(client.Get("victim", value));
  EXPECT_EQ(value, "value");
}

TEST_F(ServerTest, FailedStartLeaksNoDescriptorsAndIsRetryable) {
  const std::size_t fds_before = OpenFdCount();
  ASSERT_TRUE(util::FailPoints::Arm("net.socket", "EMFILE@once"));
  EXPECT_THROW(StartServer(), std::system_error);
  util::FailPoints::DisableAll();
  server_.reset();
  service_.reset();
  EXPECT_EQ(OpenFdCount(), fds_before);

  // Nothing half-open lingers: the next Start works.
  StartServer();
  auto client = Connect();
  EXPECT_EQ(client.Version(), "pamakv-0.2");
}

TEST_F(ServerTest, EventLoopSetupFailureCleansUpListener) {
  const std::size_t fds_before = OpenFdCount();
  // The listener socket opens fine; the loop's eventfd then fails. Start
  // must close the already-bound listener (and the EMFILE spare) on the
  // way out.
  ASSERT_TRUE(util::FailPoints::Arm("net.eventfd", "EMFILE@once"));
  EXPECT_THROW(StartServer(), std::system_error);
  util::FailPoints::DisableAll();
  server_.reset();
  service_.reset();
  EXPECT_EQ(OpenFdCount(), fds_before);

  StartServer();
  auto client = Connect();
  EXPECT_EQ(client.Version(), "pamakv-0.2");
}

#endif  // PAMAKV_FAILPOINTS

TEST_F(ServerTest, AbruptStopSurfacesTypedClientError) {
  StartServer();
  auto client = Connect();
  EXPECT_EQ(client.Version(), "pamakv-0.2");
  server_->Stop();
  try {
    std::string value;
    client.Get("anything", value);
    // A race may let one request through a dying socket; the next cannot.
    client.Get("anything", value);
    FAIL() << "expected a ClientError after server stop";
  } catch (const ClientError& e) {
    EXPECT_TRUE(e.kind() == ClientError::Kind::kConnectionClosed ||
                e.kind() == ClientError::Kind::kConnectionReset ||
                e.kind() == ClientError::Kind::kShortRead)
        << e.what();
  }
}

// ---- observability (DESIGN.md §10) ----

TEST_F(ServerTest, MetricsEndpointServesPrometheusExposition) {
  StartServer("pama", 1, 2, /*with_metrics=*/true);
  MetricsHttpConfig mcfg;
  mcfg.port = 0;  // ephemeral
  MetricsHttpServer http(mcfg, registry_);
  http.Start();
  ASSERT_NE(http.port(), 0);

  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 1'000, "value"));
  std::string value;
  EXPECT_TRUE(client.Get("k", value));

  std::string head;
  const std::string body = HttpGet(http.port(), "/metrics", &head);
  EXPECT_NE(head.find("HTTP/1.0 200"), std::string::npos) << head;
  EXPECT_NE(head.find("text/plain; version=0.0.4"), std::string::npos) << head;
  EXPECT_EQ(http.scrapes(), 1u);

  // Every non-comment line must be `series value` with a parseable value
  // (the same lint CI applies to the live endpoint).
  const auto series = ParseExposition(body);
  EXPECT_GT(series.size(), 50u);
  for (const auto& [name, val] : series) {
    char* end = nullptr;
    std::strtod(val.c_str(), &end);
    EXPECT_EQ(*end, '\0') << name << " " << val;
  }
  EXPECT_EQ(series.at("pamakv_cmd_get"), "1");
  EXPECT_EQ(series.at("pamakv_cmd_set"), "1");
  EXPECT_EQ(series.at("pamakv_curr_connections"), "1");
  EXPECT_EQ(series.at("pamakv_service_time_us_count{verb=\"get\"}"), "1");
  // Cumulative histogram: the +Inf bucket equals _count.
  EXPECT_EQ(series.at("pamakv_service_time_us_bucket{verb=\"get\",le=\"+Inf\"}"),
            series.at("pamakv_service_time_us_count{verb=\"get\"}"));

  // Unknown paths 404; the scrape counter does not move.
  const std::string missing = HttpGet(http.port(), "/nope", &head);
  EXPECT_NE(head.find("HTTP/1.0 404"), std::string::npos) << head;
  EXPECT_EQ(http.scrapes(), 1u);

  http.Stop();
}

TEST_F(ServerTest, StatsDetailMatchesPrometheusEndpointMidLoad) {
  // Both surfaces render from the same registry snapshot type with the
  // same number formatter, so with the cache quiescent between the two
  // scrapes every shared series must agree byte-for-byte.
  StartServer("pama", 1, 2, /*with_metrics=*/true);
  MetricsHttpConfig mcfg;
  mcfg.port = 0;
  MetricsHttpServer http(mcfg, registry_);
  http.Start();

  auto client = Connect();
  std::string value;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.Set("key" + std::to_string(i),
                           1'000 * (1 + i % 4),  // spread across bands
                           std::string(32 + i * 8, 'v')));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(client.Get("key" + std::to_string(i), value));
  }
  EXPECT_FALSE(client.Get("missing", value));
  EXPECT_TRUE(client.Delete("key0"));

  // HTTP scrape first: the later `stats detail` snapshot observes nothing
  // new in between (its own service time is recorded only after the
  // response is built), so the two snapshots see identical state.
  const auto prom = ParseExposition(HttpGet(http.port(), "/metrics"));
  ASSERT_FALSE(prom.empty());

  client.SendRaw("stats detail\r\n");
  std::map<std::string, std::string> ascii;
  for (std::string line = client.ReadLine(); line != "END";
       line = client.ReadLine()) {
    ASSERT_TRUE(line.rfind("STAT ", 0) == 0) << line;
    const auto sp = line.rfind(' ');
    ASSERT_GT(sp, 5u) << line;
    ascii[line.substr(5, sp - 5)] = line.substr(sp + 1);
  }

  // Every registry-backed STAT series that has a Prometheus spelling must
  // carry the identical value string. (ASCII quantile rows _p50/_p99/_p999
  // have no exposition counterpart; buckets exist only in Prometheus.)
  std::size_t matched = 0;
  for (const auto& [name, val] : ascii) {
    // tx-flush is observed only after the response bytes are on the wire,
    // so the previous command's observation can land between the two
    // scrapes under scheduler pressure — the one series the protocol
    // itself cannot quiesce.
    if (name.rfind("pamakv_tx_flush_us", 0) == 0) continue;
    const auto it = prom.find(name);
    if (it == prom.end()) continue;
    EXPECT_EQ(val, it->second) << name;
    ++matched;
  }
  EXPECT_GT(matched, 30u);
  // Spot-check the load is actually in the numbers, not vacuously equal.
  ASSERT_TRUE(ascii.count("pamakv_cmd_get"));
  EXPECT_EQ(ascii.at("pamakv_cmd_get"), "65");
  ASSERT_TRUE(ascii.count("pamakv_service_time_us_count{verb=\"set\"}"));
  EXPECT_EQ(ascii.at("pamakv_service_time_us_count{verb=\"set\"}"), "64");
  ASSERT_TRUE(ascii.count("pamakv_curr_items"));
  EXPECT_EQ(ascii.at("pamakv_curr_items"), "63");

  http.Stop();
}

TEST(MetricsWiringTest, WiringTwiceKeepsOneSetOfSeries) {
  // A service or server wired again on the same registry (a restart)
  // replaces its collector: the exposition neither doubles nor moves.
  CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 4ULL * 1024 * 1024;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  ASSERT_TRUE(service.Set("k", 1'000, "value"));
  Server server(ServerConfig{}, service);
  util::MetricsRegistry registry;
  service.RegisterMetrics(registry);
  server.EnableMetrics(registry);
  const std::string once = registry.Snapshot().RenderPrometheus();
  service.RegisterMetrics(registry);
  server.EnableMetrics(registry);
  EXPECT_EQ(registry.Snapshot().RenderPrometheus(), once);
  EXPECT_NE(once.find("pamakv_cmd_set 1\n"), std::string::npos);
}

TEST_F(ServerTest, PlainStatsOmitsRegistrySeries) {
  StartServer("memcached", 1, 2, /*with_metrics=*/true);
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 100, "v"));
  client.SendRaw("stats\r\n");
  for (std::string line = client.ReadLine(); line != "END";
       line = client.ReadLine()) {
    EXPECT_EQ(line.find("pamakv_"), std::string::npos) << line;
  }
  // And a bad argument is a client error, not a silent fallback.
  client.SendRaw("stats bogus\r\n");
  const std::string err = client.ReadLine();
  EXPECT_TRUE(err.rfind("CLIENT_ERROR", 0) == 0) << err;
}

// ---- expiry & command surface (all TTL motion via the FakeClock) ----

TEST_F(ServerTest, StorageVerbPreconditions) {
  StartServer();
  auto client = Connect();
  using Outcome = BlockingClient::StoreOutcome;

  // add: only into a vacancy.
  EXPECT_EQ(client.Add("k", 1, "one"), Outcome::kStored);
  EXPECT_EQ(client.Add("k", 1, "two"), Outcome::kNotStored);
  // replace: only over an existing value.
  EXPECT_EQ(client.Replace("k", 1, "TWO"), Outcome::kStored);
  EXPECT_EQ(client.Replace("missing", 1, "x"), Outcome::kNotStored);
  // append/prepend concatenate in place and keep the original flags.
  EXPECT_EQ(client.Append("k", 9, "-tail"), Outcome::kStored);
  EXPECT_EQ(client.Prepend("k", 9, "head-"), Outcome::kStored);
  EXPECT_EQ(client.Append("missing", 9, "x"), Outcome::kNotStored);
  std::string value;
  std::uint32_t flags = 0;
  ASSERT_TRUE(client.Get("k", value, &flags));
  EXPECT_EQ(value, "head-TWO-tail");
  EXPECT_EQ(flags, 1u);
}

TEST_F(ServerTest, CasStoredExistsNotFound) {
  StartServer();
  auto client = Connect();
  using Outcome = BlockingClient::StoreOutcome;

  ASSERT_TRUE(client.Set("k", 1, "v1"));
  std::string value;
  std::uint64_t unique = 0;
  ASSERT_TRUE(client.Gets("k", value, unique));

  // A cas with the fresh unique wins; the same unique replayed is stale
  // (every mutation bumps the stamp).
  EXPECT_EQ(client.Cas("k", 1, "v2", unique), Outcome::kStored);
  EXPECT_EQ(client.Cas("k", 1, "v3", unique), Outcome::kExists);
  ASSERT_TRUE(client.Get("k", value));
  EXPECT_EQ(value, "v2");
  // cas against a missing key is NOT_FOUND, not NOT_STORED.
  EXPECT_EQ(client.Cas("missing", 1, "x", 1), Outcome::kNotFound);

  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "cas_hits"), 1u);
  EXPECT_EQ(Stat(stats, "cas_badval"), 1u);
  EXPECT_EQ(Stat(stats, "cas_misses"), 1u);
}

TEST_F(ServerTest, IncrDecrArithmetic) {
  StartServer();
  auto client = Connect();

  EXPECT_FALSE(client.Incr("counter", 1).has_value());  // NOT_FOUND
  ASSERT_TRUE(client.Set("counter", 1, "5"));
  EXPECT_EQ(client.Incr("counter", 3), 8u);
  // decr floors at zero instead of wrapping (memcached semantics).
  EXPECT_EQ(client.Decr("counter", 100), 0u);
  // incr saturates at 2^64-1 (documented divergence from wrap-around).
  ASSERT_TRUE(client.Set("counter", 1, "18446744073709551615"));
  EXPECT_EQ(client.Incr("counter", 5), 18446744073709551615ULL);

  // Non-numeric values answer memcached's exact CLIENT_ERROR wording.
  ASSERT_TRUE(client.Set("text", 1, "abc"));
  try {
    client.Incr("text", 1);
    FAIL() << "expected CLIENT_ERROR";
  } catch (const ClientError& e) {
    EXPECT_EQ(std::string(e.what()),
              "CLIENT_ERROR cannot increment or decrement non-numeric value");
  }
  // The value is left untouched.
  std::string value;
  ASSERT_TRUE(client.Get("text", value));
  EXPECT_EQ(value, "abc");
}

TEST_F(ServerTest, ExpiryExactAtBoundary) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("ttl", 1, "v", /*exptime=*/5));
  std::string value;

  // One millisecond before the deadline the item is fetchable; at the
  // deadline it is a miss — lazy expiry on access is exact.
  clock_.Advance(5s - 1ms);
  EXPECT_TRUE(client.Get("ttl", value));
  clock_.Advance(1ms);
  EXPECT_FALSE(client.Get("ttl", value));
  EXPECT_EQ(service_->Totals().items, 0u);

  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "expired"), 1u);
  // It was fetched before it died, so not expired_unfetched; lazily
  // collected, so not reclaimed either (that counts the background reap).
  EXPECT_EQ(Stat(stats, "expired_unfetched"), 0u);
  EXPECT_EQ(Stat(stats, "reclaimed"), 0u);
}

TEST_F(ServerTest, ExpiredUnfetchedDistinguishesNeverReadItems) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("read", 1, "v", 2));
  ASSERT_TRUE(client.Set("unread", 1, "v", 2));
  std::string value;
  ASSERT_TRUE(client.Get("read", value));
  clock_.Advance(3s);
  EXPECT_FALSE(client.Get("read", value));
  EXPECT_FALSE(client.Get("unread", value));
  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "expired"), 2u);
  EXPECT_EQ(Stat(stats, "expired_unfetched"), 1u);
}

TEST_F(ServerTest, TouchAndGatExtendLifetime) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 7, "vv", 5));
  std::string value;

  clock_.Advance(4s);
  EXPECT_TRUE(client.Touch("k", 10));  // deadline now t=14s
  clock_.Advance(6s);                  // t=10s: past the original deadline
  EXPECT_TRUE(client.Get("k", value));
  EXPECT_EQ(value, "vv");

  // gat returns the value and refreshes again (deadline t=10s+8).
  EXPECT_TRUE(client.Gat(8, "k", value));
  clock_.Advance(7s);  // t=17s: inside the gat extension
  EXPECT_TRUE(client.Get("k", value));
  clock_.Advance(2s);  // t=19s: past it
  EXPECT_FALSE(client.Get("k", value));

  EXPECT_FALSE(client.Touch("k", 5));  // expired: NOT_FOUND
  const auto stats = client.Stats();
  // One explicit touch + one gat: gat counts as a touch hit too
  // (memcached-accurate).
  EXPECT_EQ(Stat(stats, "touch_hits"), 2u);
  EXPECT_EQ(Stat(stats, "touch_misses"), 1u);
}

TEST_F(ServerTest, GatsReturnsCasAndRefreshes) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 3, "abc", 5));
  client.SendRaw("gats 100 k\r\n");
  const std::string header = client.ReadLine();
  ASSERT_TRUE(header.rfind("VALUE k 3 3 ", 0) == 0) << header;
  EXPECT_EQ(client.ReadLine(), "abc");
  EXPECT_EQ(client.ReadLine(), "END");
  // The 5s TTL was replaced by 100s.
  clock_.Advance(50s);
  std::string value;
  EXPECT_TRUE(client.Get("k", value));
}

TEST_F(ServerTest, FlushAllDelayCutover) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("old", 1, "v"));
  client.FlushAll(/*delay=*/5);
  std::string value;

  // Until the cutover everything stays serveable.
  clock_.Advance(4s);
  EXPECT_TRUE(client.Get("old", value));
  // Stored after the command but before the cutover: dies at the cutover
  // too (its store time precedes the flush point — memcached semantics).
  ASSERT_TRUE(client.Set("mid", 1, "v"));
  clock_.Advance(1s);
  EXPECT_FALSE(client.Get("old", value));
  EXPECT_FALSE(client.Get("mid", value));
  // Stored at/after the cutover: unaffected.
  ASSERT_TRUE(client.Set("new", 1, "v"));
  EXPECT_TRUE(client.Get("new", value));
}

TEST_F(ServerTest, FlushAllImmediateRestoreResurrects) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 1, "before"));
  client.FlushAll();
  // A store after the flush (same FakeClock instant — the flush sequence
  // number breaks the tie) is live again.
  ASSERT_TRUE(client.Set("k", 1, "after"));
  std::string value;
  ASSERT_TRUE(client.Get("k", value));
  EXPECT_EQ(value, "after");
}

TEST_F(ServerTest, ReapSweepIsBatchBoundedUnderTenThousandExpired) {
  StartServer();
  auto client = Connect();
  constexpr std::size_t kItems = 10'000;
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(client.Set("e:" + std::to_string(i), 1, "v", 1));
  }
  EXPECT_EQ(service_->Totals().items, kItems);
  EXPECT_EQ(service_->Totals().wheel_nodes, kItems);

  // Past the deadline: every item is due. Each sweep may reap at most
  // reap_batch per shard; the leftover carries to the next sweep.
  clock_.Advance(3s);
  constexpr std::size_t kBatch = 256;
  const std::size_t ceiling = kBatch * service_->shard_count();
  std::size_t total = 0;
  std::size_t sweeps = 0;
  while (total < kItems) {
    const std::size_t got = service_->ReapExpired(kBatch);
    EXPECT_LE(got, ceiling);
    ASSERT_GT(got, 0u) << "reap stopped making progress at " << total;
    total += got;
    ++sweeps;
  }
  EXPECT_EQ(total, kItems);
  EXPECT_GE(sweeps, kItems / ceiling);
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_EQ(service_->Totals().wheel_nodes, 0u);

  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "expired"), kItems);
  EXPECT_EQ(Stat(stats, "expired_unfetched"), kItems);  // never read
  EXPECT_EQ(Stat(stats, "reclaimed"), kItems);          // all by the reaper
  EXPECT_EQ(Stat(stats, "bytes"), 0u);  // reaped bytes credited back
}

TEST_F(ServerTest, ReapExpiresWhicheverKeyTheNodesHandleHolds) {
  // Expiry entries are filed per item handle. b takes the handle a freed,
  // at the deadline a's entry already holds, so that entry stays put and
  // must reap b. c is on a handle without an entry and files its own.
  StartServer("memcached", 1, /*shards=*/1);
  auto client = Connect();
  ASSERT_TRUE(client.Set("a", 1, "v", 60));
  ASSERT_TRUE(client.Delete("a"));
  ASSERT_TRUE(client.Set("b", 1, "v", 60));
  ASSERT_TRUE(client.Set("c", 1, "v", 60));
  EXPECT_EQ(service_->Totals().wheel_nodes, 2u);

  clock_.Advance(62s);
  EXPECT_EQ(service_->ReapExpired(1'000), 2u);
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_EQ(service_->Totals().wheel_nodes, 0u);
  EXPECT_EQ(Stat(client.Stats(), "reclaimed"), 2u);
}

TEST_F(ServerTest, BackgroundReapTimerSweepsOnClockAdvance) {
  scfg_.reap_interval_ms = 1'000;
  scfg_.reap_batch = 64;
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Set("a", 1, "v", 1));
  ASSERT_TRUE(client.Set("b", 1, "v", 1));

  // Two timer periods past the deadline: the loop-0 sweep fires on the
  // FakeClock and reclaims both without any client access.
  clock_.Advance(3s);
  ASSERT_TRUE(WaitUntil([&] { return server_->reaped_items() >= 2; }));
  EXPECT_EQ(service_->Totals().items, 0u);
  EXPECT_GE(server_->reap_sweeps(), 1u);
  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "reclaimed"), 2u);
  EXPECT_EQ(Stat(stats, "reap_failures"), 0u);
}

TEST_F(ServerTest, LazyExpiredMissRoutesToGhostList) {
  StartServer("pama");
  auto client = Connect();
  ASSERT_TRUE(client.Set("k", 10'000, "vvvv", 2));
  std::string value;
  ASSERT_TRUE(client.Get("k", value));
  EXPECT_EQ(Stat(client.Stats(), "ghost_hits"), 0u);

  // The lazy-expired miss must land in the ghost list of the (class,
  // band) the item occupied — the PAMA penalty accounting treats it like
  // any other miss, so the demand stays visible to the allocator.
  clock_.Advance(3s);
  EXPECT_FALSE(client.Get("k", value));
  const auto stats = client.Stats();
  EXPECT_EQ(Stat(stats, "expired"), 1u);
  EXPECT_EQ(Stat(stats, "ghost_hits"), 1u);
}

TEST_F(ServerTest, AbsoluteAndAlreadyPastExptimes) {
  // The service anchors unix time from its injected clock at startup
  // (Clock::WallNowNs), so absolute exptimes must be computed against
  // the fake wall base, not the host's real clock.
  constexpr std::int64_t kUnixBase = 1'700'000'000;
  clock_.SetWallBase(kUnixBase * 1'000'000'000LL);
  StartServer();
  auto client = Connect();
  std::string value;

  // Negative exptime: expired on arrival — stored, never serveable.
  ASSERT_TRUE(client.Set("gone", 1, "v", -1));
  EXPECT_FALSE(client.Get("gone", value));

  // An exptime above 30 days is an absolute unix timestamp, so
  // "unix_now + 3s" expires 3s from now.
  ASSERT_TRUE(client.Set("abs", 1, "v", kUnixBase + 3));
  EXPECT_TRUE(client.Get("abs", value));
  clock_.Advance(4s);
  EXPECT_FALSE(client.Get("abs", value));

  // An absolute timestamp already in the past: expired on arrival.
  ASSERT_TRUE(client.Set("past", 1, "v", kUnixBase - 3600));
  EXPECT_FALSE(client.Get("past", value));
}

}  // namespace
}  // namespace pamakv::net
