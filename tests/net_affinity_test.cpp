// Shard-affinity ordering/equivalence suite (DESIGN.md §12).
//
// Every command runs as an op of a per-connection batch: ops are grouped
// by shard and each group runs under one lock, one clock read and one WAL
// commit, and a group whose op needs a flash record parks until the read
// lands. Execution order is therefore not request order, but observation
// order must be: the response stream has to equal the one a serial
// per-command server produced, byte for byte. That serial server is gone;
// its output for every input here was recorded as a golden transcript
// (tests/golden/, see golden.hpp). Layers of proof:
//
//  * a handcrafted pipeline covering every verb family, the barrier verbs,
//    parse errors, noreply, an oversized store and a fatal framing error —
//    at batch depth 1 and 64 against the transcript;
//  * a 400-deep cross-shard pipeline, inline at depth 1 and 64 and on a
//    flash-backed service whose DRAM holds a fraction of the keys, with
//    the segment pages resident (reads served inline) and dropped (reads
//    park on the IO thread; chaos builds skew group and read latencies
//    with sleep failpoints) while the bytes must not move;
//  * a seeded random property test: each stream at depth 1 and 64 against
//    its transcript, plus per-shard EngineSnapshots and service counters
//    compared between the two depths. Seeds are printed and replayable via
//    PAMAKV_AFFINITY_SEED (a seed without a transcript compares the two
//    depths only);
//  * a live server with two loop threads and a flash tier serving get,
//    gat, append and incr on demoted keys through batches, and the same
//    conversation served from the page cache inside Ingest.
//
// The in-process services run on paused FakeClocks (advanced only while
// quiescent), so one clock read per group is observationally identical to
// one per op.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine_snapshot.hpp"
#include "flash_pages.hpp"
#include "golden.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::net {
namespace {

using namespace std::chrono_literals;
using test::Golden;
using test::WithoutFailpointStats;

constexpr std::size_t kDepths[] = {1, 64};

std::unique_ptr<CacheService> MakeService(util::Clock* clock,
                                          std::size_t shards) {
  CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = 8ULL * 1024 * 1024;
  cfg.clock = clock;
  cfg.unix_now_s = 1'700'000'000;  // pin the absolute-exptime anchor
  return std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-affinity-XXXXXX";
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

/// One event loop running on its own thread (its timers use the real
/// SteadyClock — the service under test keeps its FakeClock).
class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.Run(); }) {}
  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }

 private:
  EventLoop loop_;
  std::thread thread_;
};

/// Drives a Connection at a given batch depth. With a home loop, Ingest
/// runs there and Feed blocks until every batch the input staged has been
/// sequenced (parked flash reads included); without one it runs inline.
class Harness {
 public:
  Harness(CacheService& service, std::size_t depth, EventLoop* home = nullptr)
      : conn_(service), home_(home) {
    conn_.set_executor(nullptr, depth, home, [this] {
      if (!conn_.batch_in_flight()) Signal();
    });
  }

  void Feed(std::string_view data) {
    if (home_ == nullptr) {
      conn_.Ingest(data.data(), data.size());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = false;
    }
    home_->Post([this, data] {
      conn_.Ingest(data.data(), data.size());
      if (!conn_.batch_in_flight()) Signal();
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }

  std::string Run(std::string_view data) {
    Feed(data);
    return TakeOutput();
  }

  std::string TakeOutput() {
    std::string out(conn_.pending_output());
    conn_.ConsumeOutput(out.size());
    return out;
  }

  [[nodiscard]] Connection& conn() { return conn_; }

 private:
  void Signal() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  Connection conn_;
  EventLoop* home_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = true;
};

void ExpectSameEngineState(CacheService& a, CacheService& b) {
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EngineSnapshot::Of(a.shard_engine(s))
        .ExpectEq(EngineSnapshot::Of(b.shard_engine(s)));
  }
  const ServiceCounters ca = a.TotalCounters();
  const ServiceCounters cb = b.TotalCounters();
  EXPECT_EQ(ca.cas_hits, cb.cas_hits);
  EXPECT_EQ(ca.cas_misses, cb.cas_misses);
  EXPECT_EQ(ca.cas_badval, cb.cas_badval);
  EXPECT_EQ(ca.incr_hits, cb.incr_hits);
  EXPECT_EQ(ca.incr_misses, cb.incr_misses);
  EXPECT_EQ(ca.decr_hits, cb.decr_hits);
  EXPECT_EQ(ca.decr_misses, cb.decr_misses);
  EXPECT_EQ(ca.touch_hits, cb.touch_hits);
  EXPECT_EQ(ca.touch_misses, cb.touch_misses);
  EXPECT_EQ(a.ItemCount(), b.ItemCount());
  EXPECT_EQ(a.ExpiryNodeCount(), b.ExpiryNodeCount());
}

// ---------------------------------------------------------------------------
// Handcrafted full-surface pipeline: every verb family, noreply, multi-key
// retrieval, barrier verbs mid-stream, a parse error, an oversized store,
// a cas race and a fatal bad data chunk — byte for byte at both depths.
TEST(ShardAffinityTest, BatchedInlineMatchesSerialByteForByte) {
  std::string script;
  script += "set alpha 1000 0 5\r\nhello\r\n";
  script += "set bravo 2000 60 5\r\nworld\r\n";
  script += "add alpha 0 0 2\r\nxx\r\n";       // NOT_STORED
  script += "add charlie 0 0 3\r\nnew\r\n";    // STORED
  script += "replace delta 0 0 2\r\nzz\r\n";   // NOT_STORED (absent)
  script += "append alpha 0 0 1\r\n!\r\n";
  script += "prepend alpha 0 0 1\r\n>\r\n";
  script += "get alpha bravo charlie nope\r\n";
  script += "gets alpha\r\n";
  script += "cas alpha 0 0 3 999999\r\nbad\r\n";  // EXISTS (stale unique)
  script += "cas nope 0 0 1 7\r\nz\r\n";          // NOT_FOUND
  script += "set ctr 0 0 2\r\n40\r\n";
  script += "incr ctr 2\r\n";
  script += "decr ctr 100\r\n";  // floors at 0
  script += "incr alpha 1\r\n";  // CLIENT_ERROR non-numeric
  script += "incr nope 1\r\n";   // NOT_FOUND
  script += "touch bravo 120\r\n";
  script += "touch nope 120\r\n";
  script += "gat 60 bravo\r\n";
  script += "gats 60 bravo nope\r\n";
  script += "version\r\n";                     // barrier mid-stream
  script += "set echo 0 0 4 noreply\r\nquie\r\n";
  script += "get echo\r\n";
  script += "delete echo noreply\r\n";
  script += "delete echo\r\n";  // NOT_FOUND now
  script += "bogus_verb a b c\r\n";  // ERROR, an answered op
  script += "get alpha\r\n";
  script += "flush_all\r\n";   // barrier: everything below misses
  script += "get alpha\r\n";
  script += "stats\r\n";       // barrier with a multi-line reply
  script += "get bravo\r\n";
  // An oversized store (> 1 MiB) is swallowed with an in-band error; the
  // connection survives.
  std::string big = "set big 0 0 2097152\r\n";
  big.append(2'097'152, 'x');
  big += "\r\nget charlie\r\n";
  // A bad data chunk (payload not CRLF-terminated) is fatal.
  const std::string bad = "set k 0 0 2\r\nxxxx\r\n";

  const Golden golden("affinity_handcrafted.golden");
  std::vector<std::unique_ptr<CacheService>> services;
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    util::FakeClock clock(1'000'000'000);
    services.push_back(MakeService(&clock, 4));
    Harness conn(*services.back(), depth);
    EXPECT_EQ(WithoutFailpointStats(conn.Run(script)), golden.at("script"));
    EXPECT_FALSE(conn.conn().closing());
    EXPECT_EQ(conn.Run(big), golden.at("big"));
    EXPECT_FALSE(conn.conn().closing());
    EXPECT_EQ(conn.Run(bad), golden.at("bad"));
    EXPECT_TRUE(conn.conn().closing());
  }
  ExpectSameEngineState(*services[0], *services[1]);
}

// ---------------------------------------------------------------------------
// A 400-deep mixed pipeline whose keys fan out across 8 shards. Every
// response embeds the request index, so a swap anywhere changes the bytes.
std::string Pipeline400() {
  std::string script;
  Rng rng(2024);
  for (int i = 0; i < 400; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(96));
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const std::string value = "v" + std::to_string(i);
      script += "set " + key + " 1000 0 " + std::to_string(value.size()) +
                "\r\n" + value + "\r\n";
    } else if (dice < 0.75) {
      script += (dice < 0.6 ? "get " : "gets ") + key + "\r\n";
    } else if (dice < 0.85) {
      script += "delete " + key + "\r\n";
    } else if (dice < 0.95) {
      const std::string ctr = "c" + std::to_string(rng.NextBounded(16));
      script += "set " + ctr + " 0 0 2 noreply\r\n10\r\n";
      script += "incr " + ctr + " " + std::to_string(i) + "\r\n";
    } else {
      script += "touch " + key + " 60\r\n";
    }
  }
  return script;
}

TEST(ShardAffinityTest, CrossShardPipelineKeepsRequestOrder) {
  const std::string script = Pipeline400();
  const Golden golden("affinity_pipeline400.golden");
  const std::string& expect = golden.at("pipeline");
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    util::FakeClock clock(1'000'000'000);
    auto service = MakeService(&clock, 8);
    Harness conn(*service, depth);
    const std::string got = conn.Run(script);
    ASSERT_EQ(expect.size(), got.size());
    EXPECT_EQ(expect, got) << "cross-shard responses re-ordered or corrupted";
  }
}

// The same pipeline on a flash-backed service whose DRAM holds 8 of the
// ~14 keys per shard: evictions demote, and reads, incrs and touches of
// demoted keys need their record. It runs twice. With the segment pages
// resident, records are read inline under the shard lock. With them
// dropped, each such op parks its shard group on an IO-thread read that
// posts back to the connection's loop. Every demoted key is served from
// flash, so the client cannot tell — the bytes must equal the all-DRAM
// transcript, in order, however the reads and groups interleave.
TEST(ShardAffinityTest, FlashBackedPipelineKeepsRequestOrder) {
  constexpr std::size_t kShards = 8;
  // Frames are demoted mid-pipeline, so the cold run drops the segment
  // pages before every slice of it.
  constexpr std::size_t kColdSlice = 256;
  const std::string script = Pipeline400();
  const Golden golden("affinity_pipeline400.golden");
  const std::string& expect = golden.at("pipeline");
  std::uint64_t cached_reads[2] = {0, 0};
  std::uint64_t cold_reads[2] = {0, 0};
  std::string fs_name;
  for (const bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "pages dropped" : "pages resident");
    TempDir dir;
    fs_name = test::FilesystemOf(dir.path());
    util::FakeClock clock(1'000'000'000);
    CacheServiceConfig cfg;
    cfg.shards = kShards;
    cfg.capacity_bytes = kShards * 2 * 64;  // two 64-byte slabs per shard
    cfg.clock = &clock;
    cfg.unix_now_s = 1'700'000'000;
    SizeClassConfig geometry;
    geometry.slab_bytes = 64;
    geometry.num_classes = 3;
    CacheService service(cfg, [geometry](Bytes bytes) {
      return MakeEngine("memcached", bytes, geometry);
    });
    flash::FlashConfig fcfg;
    fcfg.dir = dir.path();
    fcfg.shards = kShards;
    fcfg.segment_bytes = 64 * 1024;
    fcfg.cap_bytes = 64ULL << 20;  // never collects: no demoted key is lost
    flash::FlashTier tier(fcfg);
    service.AttachFlash(&tier);
    service.RecoverFlash();
    tier.StartIo();

#if PAMAKV_FAILPOINTS
    // Skew group and read latencies so groups resume in adversarial orders.
    ASSERT_TRUE(util::FailPoints::Arm("svc.batch", "sleep:1@p:0.05:42"));
    ASSERT_TRUE(util::FailPoints::Arm("flash.read", "sleep:2@p:0.3:7"));
#endif
    std::string got;
    {
      LoopThread home;
      Harness conn(service, 64, &home.loop());
      if (cold) {
        for (std::size_t at = 0; at < script.size(); at += kColdSlice) {
          test::ForceColdFlashReads(dir.path());
          conn.Feed(std::string_view(script).substr(at, kColdSlice));
        }
        got = conn.TakeOutput();
      } else {
        got = conn.Run(script);
      }
    }
#if PAMAKV_FAILPOINTS
    util::FailPoints::DisableAll();
#endif
    tier.StopIo();

    ASSERT_EQ(expect.size(), got.size());
    EXPECT_EQ(expect, got) << "flash-served responses re-ordered or corrupted";
    const ServiceCounters counters = service.TotalCounters();
    EXPECT_GT(counters.flash_promotes, 0u);
    EXPECT_EQ(counters.flash_read_failures, 0u);
    cached_reads[cold] = test::CachedReads(tier);
    cold_reads[cold] = test::ColdReads(tier);
  }
  std::printf("flash reads: resident run %llu inline / %llu parked, "
              "dropped run %llu inline / %llu parked\n",
              static_cast<unsigned long long>(cached_reads[0]),
              static_cast<unsigned long long>(cold_reads[0]),
              static_cast<unsigned long long>(cached_reads[1]),
              static_cast<unsigned long long>(cold_reads[1]));
  if (cached_reads[0] == 0) {
    GTEST_SKIP() << "no flash read was served from the page cache on "
                 << fs_name;
  }
  if (cold_reads[1] == 0) {
    GTEST_SKIP() << "dropped segment pages stayed readable from the page "
                    "cache on "
                 << fs_name;
  }
}

// ---------------------------------------------------------------------------
// Seeded random equivalence property. One op stream (all verb families,
// TTLs that really expire, cas races, noreply, barriers, parse errors) at
// depth 1 and 64 must reproduce its transcript per chunk and leave both
// services in identical shard states. Seeds are printed and replayable:
//   PAMAKV_AFFINITY_SEED=<n> ctest -R SeededRandomOps
std::vector<std::string> GenerateStream(std::uint64_t seed, int chunks,
                                        int ops_per_chunk) {
  std::vector<std::string> stream;
  Rng rng(seed);
  for (int c = 0; c < chunks; ++c) {
    std::string s;
    for (int i = 0; i < ops_per_chunk; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBounded(48));
      const bool noreply = rng.NextDouble() < 0.10;
      const std::int64_t ttl =
          static_cast<std::int64_t>(rng.NextBounded(6)) - 2;  // -2..3 s
      const double dice = rng.NextDouble();
      if (dice < 0.22) {  // set: numeric (incr-compatible) or text value
        std::string value;
        if (rng.NextDouble() < 0.5) {
          value = std::to_string(rng.NextBounded(1'000'000'000));
        } else {
          value.assign(8 + rng.NextBounded(120),
                       static_cast<char>('a' + rng.NextBounded(26)));
        }
        s += "set " + key + " " + std::to_string(rng.NextBounded(5'000)) +
             " " + std::to_string(ttl > 0 ? ttl : 0) + " " +
             std::to_string(value.size()) + (noreply ? " noreply" : "") +
             "\r\n" + value + "\r\n";
      } else if (dice < 0.30) {  // add/replace/append/prepend
        static constexpr const char* kVerbs[] = {"add", "replace", "append",
                                                 "prepend"};
        const char* verb = kVerbs[rng.NextBounded(4)];
        std::string value(1 + rng.NextBounded(24),
                          static_cast<char>('A' + rng.NextBounded(26)));
        s += std::string(verb) + " " + key + " 0 " +
             std::to_string(ttl > 0 ? ttl : 0) + " " +
             std::to_string(value.size()) + (noreply ? " noreply" : "") +
             "\r\n" + value + "\r\n";
      } else if (dice < 0.36) {  // cas race: small uniques hit all branches
        s += "cas " + key + " 0 0 3 " +
             std::to_string(1 + rng.NextBounded(64)) +
             (noreply ? " noreply" : "") + "\r\nRCE\r\n";
      } else if (dice < 0.60) {  // retrieval, sometimes multi-key
        const char* verb = rng.NextDouble() < 0.7 ? "get" : "gets";
        s += std::string(verb) + " " + key;
        const std::uint64_t extra = rng.NextBounded(3);
        for (std::uint64_t e = 0; e < extra; ++e) {
          s += " k" + std::to_string(rng.NextBounded(48));
        }
        s += "\r\n";
      } else if (dice < 0.70) {  // incr/decr
        s += (rng.NextDouble() < 0.5 ? "incr " : "decr ") + key + " " +
             std::to_string(rng.NextBounded(1'000)) +
             (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.78) {  // touch
        s += "touch " + key + " " + std::to_string(ttl) +
             (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.86) {  // gat/gats
        s += (rng.NextDouble() < 0.5 ? "gat " : "gats ") +
             std::to_string(ttl > 0 ? ttl : 1) + " " + key + "\r\n";
      } else if (dice < 0.93) {  // delete
        s += "delete " + key + (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.96) {  // barrier verb mid-pipeline
        s += rng.NextDouble() < 0.7 ? "version\r\n" : "flush_all 2\r\n";
      } else if (dice < 0.98) {  // parse error mid-pipeline
        s += "definitely_not_a_verb " + key + "\r\n";
      } else {  // second parse-error shape: bad argument count
        s += "get\r\n";
      }
    }
    stream.push_back(std::move(s));
  }
  return stream;
}

TEST(ShardAffinityTest, SeededRandomOpsAreEquivalentOnAllPaths) {
  constexpr std::size_t kShards = 5;  // odd on purpose
  std::vector<std::uint64_t> seeds = {11, 42, 1337};
  if (const char* env = std::getenv("PAMAKV_AFFINITY_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  const Golden golden("affinity_seeded.golden");

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::fprintf(stderr,
                 "# affinity equivalence seed=%llu (replay: "
                 "PAMAKV_AFFINITY_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    const std::vector<std::string> stream =
        GenerateStream(seed, /*chunks=*/6, /*ops_per_chunk=*/400);

    // Depth 1 runs inline on this thread, depth 64 on a home loop.
    util::FakeClock shallow_clock(1'000'000'000);
    util::FakeClock deep_clock(1'000'000'000);
    auto shallow_svc = MakeService(&shallow_clock, kShards);
    auto deep_svc = MakeService(&deep_clock, kShards);
    LoopThread home;
    Harness shallow(*shallow_svc, 1);
    Harness deep(*deep_svc, 64, &home.loop());

    for (std::size_t c = 0; c < stream.size(); ++c) {
      SCOPED_TRACE("chunk " + std::to_string(c));
      const std::string part =
          "seed" + std::to_string(seed) + "/chunk" + std::to_string(c);
      const std::string got_shallow = shallow.Run(stream[c]);
      EXPECT_EQ(got_shallow, deep.Run(stream[c]));
      if (golden.has(part)) {
        EXPECT_EQ(got_shallow, golden.at(part));
      }
      // Advance both clocks identically while both are quiescent: TTLs of
      // 1–3s (and the flush_all 2 epochs) really expire between chunks,
      // on exactly the same boundary everywhere.
      shallow_clock.Advance(1500ms);
      deep_clock.Advance(1500ms);
    }
    ExpectSameEngineState(*shallow_svc, *deep_svc);
  }
}

// ---------------------------------------------------------------------------
// Partial writes: a pipelined stream fed one byte at a time must stage,
// dispatch and sequence exactly as when fed whole — the staging scanner
// may not consume half commands or dispatch early in a way that changes
// bytes.
TEST(ShardAffinityTest, BytewiseFeedMatchesWholeFeed) {
  util::FakeClock clock_a(1'000'000'000), clock_b(1'000'000'000);
  auto whole_svc = MakeService(&clock_a, 4);
  auto bytewise_svc = MakeService(&clock_b, 4);
  Harness whole(*whole_svc, 8);
  Harness bytewise(*bytewise_svc, 8);

  std::string script;
  script += "set split 123 0 10\r\n0123456789\r\n";
  script += "get split\r\n";
  script += "gets split missing\r\n";
  script += "incr nope 4\r\n";
  script += "version\r\n";
  script += "delete split\r\n";

  const std::string expect = whole.Run(script);
  for (const char byte : script) bytewise.Feed(std::string_view(&byte, 1));
  EXPECT_EQ(expect, bytewise.TakeOutput());
  ExpectSameEngineState(*whole_svc, *bytewise_svc);
}

// ---------------------------------------------------------------------------
// Flash and batching compose on a live server: two loop threads, batch
// depth 64, a DRAM of four 1 KiB slabs per shard and a flash tier. Values
// and counters are stored until the early ones demote, then pipelined get,
// gets, gat, gats, append, prepend, incr, decr, touch and delete reach the
// demoted keys through batches. Each phase must answer with the bytes a
// serial per-command server sent for the same conversation.
std::vector<std::string> FlashWirePhases() {
  const auto payload = [](int i) {
    std::string v = "value-" + std::to_string(i) + "-";
    v.append(100 - v.size(), 'p');
    return v;
  };
  std::vector<std::string> phases;
  std::string counters;  // one slab of the 16-byte class per shard
  for (int i = 0; i < 10; ++i) {
    counters += "set c:" + std::to_string(i) + " 1500 0 4\r\n" +
                std::to_string(1000 + i) + "\r\n";
  }
  phases.push_back(counters);
  std::string values;  // overflow the 128-byte class: v:0.. demote
  for (int i = 0; i < 60; ++i) {
    values += "set v:" + std::to_string(i) + " 2000 0 100\r\n" + payload(i) +
              "\r\n";
  }
  phases.push_back(values);
  std::string more;  // overflow the counters' slab: c:0.. demote
  for (int i = 10; i < 200; ++i) {
    more += "set c:" + std::to_string(i) + " 1500 0 4\r\n" +
            std::to_string(1000 + i) + "\r\n";
  }
  phases.push_back(more);
  std::string probe;
  probe += "get v:0\r\n";
  probe += "gets v:1 v:59 v:2\r\n";
  probe += "gat 3600 v:3\r\n";
  probe += "gats 3600 v:4 v:5\r\n";
  probe += "append v:6 0 0 5\r\n-tail\r\n";
  probe += "prepend v:7 0 0 5\r\nhead-\r\n";
  probe += "get v:6 v:7\r\n";
  probe += "incr c:0 1\r\n";
  probe += "incr c:1 5\r\n";
  probe += "decr c:2 3\r\n";
  probe += "get c:0 c:1 c:2 c:199\r\n";
  probe += "touch v:8 3600\r\n";
  probe += "delete v:9\r\n";
  probe += "get v:9\r\n";
  probe += "add v:10 0 0 1\r\nx\r\n";
  probe += "replace v:11 0 0 3\r\nnew\r\n";
  probe += "get v:10 v:11 v:12 v:13\r\n";
  probe += "incr c:3 1\r\nget c:3 c:4\r\n";
  phases.push_back(probe);
  std::string sweep;
  for (int i = 0; i < 60; ++i) sweep += "get v:" + std::to_string(i) + "\r\n";
  for (int i = 0; i < 200; i += 7) {
    sweep += "incr c:" + std::to_string(i) + " 2\r\n";
  }
  phases.push_back(sweep);
  return phases;
}

TEST(ShardAffinityTest, FlashBatchesServeDemotedKeysOverTheWire) {
  TempDir dir;
  CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2 * 4 * 1024;  // four 1 KiB slabs per shard
  SizeClassConfig geometry;
  geometry.slab_bytes = 1024;
  geometry.num_classes = 7;
  CacheService service(cfg, [geometry](Bytes bytes) {
    return MakeEngine("memcached", bytes, geometry);
  });
  flash::FlashConfig fcfg;
  fcfg.dir = dir.path();
  fcfg.shards = cfg.shards;
  fcfg.cap_bytes = 64ULL << 20;
  flash::FlashTier tier(fcfg);
  service.AttachFlash(&tier);
  service.RecoverFlash();
  tier.StartIo();
  ServerConfig scfg;
  scfg.port = 0;
  scfg.threads = 2;
  scfg.batch_depth = 64;
  Server server(scfg, service);
  server.Start();

  const Golden golden("flash_wire.golden");
  BlockingClient client;
  client.Connect("127.0.0.1", server.port());
  const std::vector<std::string> phases = FlashWirePhases();
  for (std::size_t p = 0; p < phases.size(); ++p) {
    SCOPED_TRACE("phase " + std::to_string(p));
    const std::string& expect = golden.at("phase" + std::to_string(p));
    client.SendRaw(phases[p]);
    std::string got;
    client.ReadExact(got, expect.size());
    EXPECT_EQ(got, expect);
  }
  std::uint64_t batches = 0;
  for (const auto& [name, value] : client.Stats()) {
    if (name == "executor_batches") batches = value;
  }
  client.Close();
  EXPECT_TRUE(server.Shutdown(std::chrono::milliseconds(10'000)));
  EXPECT_GT(batches, 0u);
  const ServiceCounters counters = service.TotalCounters();
  EXPECT_GT(counters.flash_promotes, 0u);
  EXPECT_EQ(counters.flash_read_failures, 0u);
}

// The same conversation through a Connection whose home loop never runs,
// on a tier with an IO thread: a record in the page cache is read under
// the shard lock, so every get, gat, append and incr on a demoted key
// completes inside Ingest — nothing parks, nothing is posted.
TEST(ShardAffinityTest, PageCacheFlashReadsCompleteInsideIngest) {
  TempDir dir;
  CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 2 * 4 * 1024;  // four 1 KiB slabs per shard
  SizeClassConfig geometry;
  geometry.slab_bytes = 1024;
  geometry.num_classes = 7;
  CacheService service(cfg, [geometry](Bytes bytes) {
    return MakeEngine("memcached", bytes, geometry);
  });
  flash::FlashConfig fcfg;
  fcfg.dir = dir.path();
  fcfg.shards = cfg.shards;
  fcfg.cap_bytes = 64ULL << 20;
  flash::FlashTier tier(fcfg);
  service.AttachFlash(&tier);
  service.RecoverFlash();
  tier.StartIo();

  const Golden golden("flash_wire.golden");
  const std::vector<std::string> phases = FlashWirePhases();
  {
    EventLoop home;
    Connection conn(service);
    conn.set_executor(nullptr, 64, &home, [] {});
    for (std::size_t p = 0; p < phases.size(); ++p) {
      SCOPED_TRACE("phase " + std::to_string(p));
      conn.Ingest(phases[p].data(), phases[p].size());
      ASSERT_FALSE(conn.batch_in_flight()) << "an op parked on a flash read";
      const std::string got(conn.pending_output());
      conn.ConsumeOutput(got.size());
      EXPECT_EQ(got, golden.at("phase" + std::to_string(p)));
    }
  }
  tier.StopIo();
  const ServiceCounters counters = service.TotalCounters();
  EXPECT_GT(counters.flash_promotes, 0u);
  EXPECT_EQ(counters.flash_read_failures, 0u);
  EXPECT_GT(test::CachedReads(tier), 0u);
  EXPECT_EQ(test::ColdReads(tier), 0u);
  std::vector<char> stats;
  service.AppendStats(stats);
  const std::string expect_line =
      "STAT flash_cached_reads " + std::to_string(test::CachedReads(tier));
  EXPECT_NE(std::string(stats.data(), stats.size()).find(expect_line),
            std::string::npos);
}

#if PAMAKV_FAILPOINTS
// ---------------------------------------------------------------------------
// bad_alloc inside a batched storage op degrades in-band: SERVER_ERROR,
// connection survives, every other op in the batch unaffected.
TEST(ShardAffinityTest, OomInsideBatchDegradesLikeSerial) {
  util::FakeClock clock(1'000'000'000);
  auto svc = MakeService(&clock, 4);
  Harness batched(*svc, 8);

  EXPECT_EQ("STORED\r\n", batched.Run("set a 0 0 1\r\nx\r\n"));

  // svc.store_bytes throws while staging the value bytes of the next
  // store; the op fails in-band and the batch keeps going.
  ASSERT_TRUE(util::FailPoints::Arm("svc.store_bytes", "oom@once"));
  std::string script;
  script += "get a\r\n";
  script += "set victim 0 0 600\r\n" + std::string(600, 'v') + "\r\n";
  script += "get a\r\n";
  const std::string got = batched.Run(script);
  util::FailPoints::DisableAll();

  const std::string value_block = "VALUE a 0 1\r\nx\r\nEND\r\n";
  EXPECT_EQ(value_block + std::string(kStoreOomReply) + value_block, got);
  EXPECT_FALSE(batched.conn().closing());

  // A non-storage op hitting OOM (svc.batch point) fails the batch and
  // closes the connection.
  ASSERT_TRUE(util::FailPoints::Arm("svc.batch", "oom@once"));
  batched.Feed("get a\r\n");
  util::FailPoints::DisableAll();
  EXPECT_TRUE(batched.conn().closing());
}
#endif  // PAMAKV_FAILPOINTS

}  // namespace
}  // namespace pamakv::net
